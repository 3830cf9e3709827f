//! Placement strategies: how a task graph is assigned to a cluster.
//!
//! A [`PlacementStrategy`] turns a [`Cluster`] description (worker/standby
//! counts plus an optional fault-domain hierarchy) into a [`Placement`].
//! Three strategies ship:
//!
//! * [`RoundRobin`] — deal tasks across workers in task order; reproduces
//!   [`Placement::round_robin`] bit for bit (the engine's historical
//!   default, topology- and domain-blind);
//! * [`Packed`] — fill nodes sequentially to capacity. The adversarial
//!   baseline: consecutive tasks (usually whole operators, often whole
//!   MC-trees) land in the same fault domain, so a single rack burst takes
//!   out maximal dependent state;
//! * [`DomainSpread`] — anti-affinity against the cluster's fault domains:
//!   spread each MC-tree's tasks across distinct domains of a chosen
//!   level, and put every primary/standby pair in distinct domains, so a
//!   domain burst degrades output instead of erasing it (§IV's motivation
//!   for planning against *plausible* correlated failures). Falls back
//!   gracefully — to load balancing — when domains or capacity run short.

use super::{NodeId, Placement, PlacementError};
use ppa_core::mctree::{enumerate_mc_trees, McTreeLimits};
use ppa_core::model::TaskGraph;
use ppa_faults::FaultDomainTree;

/// A cluster description a strategy places onto: node counts plus the
/// fault-domain hierarchy those nodes live in.
#[derive(Debug, Clone)]
pub struct Cluster {
    pub n_workers: usize,
    pub n_standby: usize,
    /// The node → fault-domain hierarchy over `0..n_workers + n_standby`
    /// (or a subset). [`DomainSpread`] needs it; every strategy attaches it
    /// to the produced [`Placement`] so the runtime and planners see the
    /// same mapping the placement was built against.
    pub domains: Option<FaultDomainTree>,
}

impl Cluster {
    /// A cluster with no fault-domain structure.
    pub fn flat(n_workers: usize, n_standby: usize) -> Self {
        Cluster {
            n_workers,
            n_standby,
            domains: None,
        }
    }

    /// A cluster whose nodes (workers then standbys) are grouped into
    /// consecutive racks of `rack_size`. A zero rack size is a typed
    /// error, consistent with the rest of the placement validation
    /// (`FaultDomainTree::racks` would abort on it).
    pub fn racked(
        n_workers: usize,
        n_standby: usize,
        rack_size: usize,
    ) -> Result<Self, PlacementError> {
        if rack_size == 0 {
            return Err(PlacementError::ZeroRackSize);
        }
        let nodes: Vec<NodeId> = (0..n_workers + n_standby).collect();
        Ok(Cluster {
            n_workers,
            n_standby,
            domains: Some(FaultDomainTree::racks(&nodes, rack_size)),
        })
    }

    fn validate(&self) -> Result<(), PlacementError> {
        if self.n_workers == 0 {
            return Err(PlacementError::NoWorkers);
        }
        if self.n_standby == 0 {
            return Err(PlacementError::NoStandby);
        }
        Ok(())
    }

    /// Attaches this cluster's domain tree to a freshly built placement.
    fn finish(&self, placement: Placement) -> Result<Placement, PlacementError> {
        match &self.domains {
            Some(tree) => placement.with_fault_domains(tree.clone()),
            None => Ok(placement),
        }
    }
}

/// A policy choosing where every primary and standby lands.
pub trait PlacementStrategy {
    /// Short name used in experiment labels ("RoundRobin", "Packed", ...).
    fn name(&self) -> &'static str;

    /// Places `graph` onto `cluster`.
    fn place(&self, graph: &TaskGraph, cluster: &Cluster) -> Result<Placement, PlacementError>;
}

/// The historical default: deal tasks across workers (and standbys) in
/// task order. Bit-identical to [`Placement::round_robin`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl PlacementStrategy for RoundRobin {
    fn name(&self) -> &'static str {
        "RoundRobin"
    }

    fn place(&self, graph: &TaskGraph, cluster: &Cluster) -> Result<Placement, PlacementError> {
        cluster.validate()?;
        let placement = Placement::round_robin(graph, cluster.n_workers, cluster.n_standby)?;
        cluster.finish(placement)
    }
}

/// Fill nodes sequentially: the first `ceil(n / n_workers)` tasks on worker
/// 0, the next chunk on worker 1, and likewise for standbys. Consecutive
/// tasks — whole operators, typically whole MC-trees — share nodes and
/// racks, making this the adversarial baseline for correlated failures.
#[derive(Debug, Clone, Copy, Default)]
pub struct Packed;

impl PlacementStrategy for Packed {
    fn name(&self) -> &'static str {
        "Packed"
    }

    fn place(&self, graph: &TaskGraph, cluster: &Cluster) -> Result<Placement, PlacementError> {
        cluster.validate()?;
        let n = graph.n_tasks();
        let per_worker = n.div_ceil(cluster.n_workers).max(1);
        let per_standby = n.div_ceil(cluster.n_standby).max(1);
        let primary: Vec<NodeId> = (0..n).map(|t| t / per_worker).collect();
        let standby: Vec<NodeId> = (0..n)
            .map(|t| cluster.n_workers + t / per_standby)
            .collect();
        let placement =
            Placement::explicit(primary, standby, cluster.n_workers, cluster.n_standby)?;
        cluster.finish(placement)
    }
}

/// Fault-domain anti-affinity at a chosen hierarchy `level` (1 = the
/// children of the root, e.g. racks in a `racks` tree).
///
/// Greedy, deterministic, in task order. For every task the strategy
/// scores candidate worker nodes by, in order:
///
/// 1. how many already-placed tasks *sharing an MC-tree* with this task
///    sit in the candidate's domain (spread each tree across domains: a
///    domain failure then cuts each tree at most once);
/// 2. how many already-placed tasks *of the same operator* sit there
///    (spread each layer: tasks of one operator share no MC-tree, yet
///    losing a whole layer to one rack severs every tree at once);
/// 3. the candidate node's current load (stay balanced);
/// 4. the node id (stable tie-break).
///
/// Anti-affinity never unbalances the cluster: a node already at the even
/// share `ceil(n_tasks / n_nodes_of_its_role)` is deprioritized below
/// every under-capacity node (for primaries this makes the share a hard
/// bound — a conflict-free node cannot soak up the whole graph).
///
/// Standbys additionally refuse the primary's own domain whenever any
/// standby outside it exists (primary/standby pair anti-affinity), then
/// apply the same tree/operator-spread and load scoring. When the cluster
/// has no domain tree, or MC-tree enumeration explodes, the tree term
/// vanishes and the strategy degrades to operator-spread load balancing —
/// graceful, never an error.
#[derive(Debug, Clone, Copy)]
pub struct DomainSpread {
    /// Hierarchy level the anti-affinity applies at.
    pub level: usize,
    /// MC-tree enumeration guard; explosion falls back to singleton groups.
    pub mc_limits: McTreeLimits,
}

impl Default for DomainSpread {
    fn default() -> Self {
        DomainSpread {
            level: 1,
            mc_limits: McTreeLimits::default(),
        }
    }
}

impl DomainSpread {
    /// Anti-affinity at the rack level of a [`FaultDomainTree::racks`]
    /// (or `regular`) hierarchy.
    pub fn racks() -> Self {
        DomainSpread::default()
    }

    /// Per-task MC-tree membership (tree indices, sorted). Singleton empty
    /// memberships when enumeration is unavailable or explodes.
    fn memberships(&self, graph: &TaskGraph) -> Vec<Vec<usize>> {
        let n = graph.n_tasks();
        let mut member: Vec<Vec<usize>> = vec![Vec::new(); n];
        if let Ok(trees) = enumerate_mc_trees(graph, self.mc_limits) {
            // Bound the pairwise-sharing work on pathological topologies;
            // beyond this the tree term adds noise, not structure.
            if trees.len() <= 4096 {
                for (i, tree) in trees.iter().enumerate() {
                    for t in tree.iter() {
                        member[t.0].push(i);
                    }
                }
            }
        }
        member
    }
}

/// Whether two sorted membership lists intersect.
fn share_tree(a: &[usize], b: &[usize]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

impl PlacementStrategy for DomainSpread {
    fn name(&self) -> &'static str {
        "DomainSpread"
    }

    fn place(&self, graph: &TaskGraph, cluster: &Cluster) -> Result<Placement, PlacementError> {
        cluster.validate()?;
        let n = graph.n_tasks();
        let member = self.memberships(graph);
        // Domain of a node at the anti-affinity level; None = outside the
        // hierarchy (its own pseudo-domain, never conflicting).
        let domain_at = |node: NodeId| -> Option<ppa_faults::DomainId> {
            cluster
                .domains
                .as_ref()
                .and_then(|t| t.domain_of_at_level(node, self.level))
        };

        // Conflict pressure of placing task `t` into domain `dom`, given
        // the nodes already chosen for tasks `0..t` (looked up via `at`):
        // MC-tree co-members first, operator peers second.
        let conflicts = |t: usize,
                         dom: Option<ppa_faults::DomainId>,
                         placed: &[NodeId],
                         at: &dyn Fn(NodeId) -> Option<ppa_faults::DomainId>|
         -> (usize, usize) {
            let Some(d) = dom else { return (0, 0) };
            let mut tree = 0;
            let mut op = 0;
            for (u, &node) in placed.iter().enumerate() {
                if at(node) != Some(d) {
                    continue;
                }
                if share_tree(&member[t], &member[u]) {
                    tree += 1;
                }
                if graph.operator_of(ppa_core::model::TaskIndex(u))
                    == graph.operator_of(ppa_core::model::TaskIndex(t))
                {
                    op += 1;
                }
            }
            (tree, op)
        };

        let cap_workers = n.div_ceil(cluster.n_workers);
        let cap_standby = n.div_ceil(cluster.n_standby);
        let mut primary: Vec<NodeId> = Vec::with_capacity(n);
        let mut load = vec![0usize; cluster.n_workers + cluster.n_standby];
        for t in 0..n {
            let best = (0..cluster.n_workers)
                .min_by_key(|&w| {
                    let (tree, op) = conflicts(t, domain_at(w), &primary, &domain_at);
                    (load[w] >= cap_workers, tree, op, load[w], w)
                })
                .ok_or(PlacementError::NoWorkers)?;
            load[best] += 1;
            primary.push(best);
        }

        let mut standby: Vec<NodeId> = Vec::with_capacity(n);
        let standby_range = cluster.n_workers..cluster.n_workers + cluster.n_standby;
        // `primary` is fully built here; `standby` grows as `t` advances.
        #[expect(clippy::needless_range_loop, reason = "`standby` grows with `t`")]
        for t in 0..n {
            let primary_dom = domain_at(primary[t]);
            // Pair anti-affinity is only enforceable if some standby node
            // lives outside the primary's domain. It outranks the capacity
            // share: a colocated replica is worthless, an uneven standby
            // is merely slower.
            let escapable =
                primary_dom.is_some() && standby_range.clone().any(|s| domain_at(s) != primary_dom);
            let best = standby_range
                .clone()
                .min_by_key(|&s| {
                    let dom = domain_at(s);
                    let pair_conflict = (escapable && dom == primary_dom) as usize;
                    let (tree, op) = conflicts(t, dom, &standby, &domain_at);
                    (pair_conflict, load[s] >= cap_standby, tree, op, load[s], s)
                })
                .ok_or(PlacementError::NoStandby)?;
            load[best] += 1;
            standby.push(best);
        }

        let placement =
            Placement::explicit(primary, standby, cluster.n_workers, cluster.n_standby)?;
        cluster.finish(placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_core::model::{OperatorSpec, Partitioning, TopologyBuilder};

    /// Chain topology: 4 sources → 2 maps → 1 sink (7 tasks).
    fn chain() -> TaskGraph {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 4, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 1, 1.0));
        b.connect(s, m, Partitioning::Merge).unwrap();
        b.connect(m, k, Partitioning::Merge).unwrap();
        TaskGraph::new(b.build().unwrap())
    }

    #[test]
    fn round_robin_strategy_matches_placement_round_robin() {
        let g = chain();
        let cluster = Cluster::racked(3, 2, 2).unwrap();
        let via_strategy = RoundRobin.place(&g, &cluster).unwrap();
        let direct = Placement::round_robin(&g, 3, 2).unwrap();
        assert_eq!(via_strategy.primary, direct.primary);
        assert_eq!(via_strategy.standby, direct.standby);
        assert!(via_strategy.fault_domains().is_some(), "tree attached");
    }

    #[test]
    fn packed_fills_sequentially() {
        let g = chain();
        let p = Packed.place(&g, &Cluster::flat(3, 2)).unwrap();
        // ceil(7/3) = 3 per worker: 0,0,0,1,1,1,2.
        assert_eq!(p.primary, vec![0, 0, 0, 1, 1, 1, 2]);
        // ceil(7/2) = 4 per standby: 3,3,3,3,4,4,4.
        assert_eq!(p.standby, vec![3, 3, 3, 3, 4, 4, 4]);
    }

    #[test]
    fn domain_spread_separates_pairs_and_balances() {
        let g = chain();
        // 4 workers + 4 standbys in racks of 2: worker racks {0,1} {2,3},
        // standby racks {4,5} {6,7}.
        let cluster = Cluster::racked(4, 4, 2).unwrap();
        let p = DomainSpread::racks().place(&g, &cluster).unwrap();
        for t in 0..g.n_tasks() {
            assert_ne!(
                p.domain_of(p.primary[t]),
                p.domain_of(p.standby[t]),
                "task {t}: primary and standby share a rack"
            );
        }
        // Load stays balanced: no worker holds more than ceil(7/4) + 1.
        for w in 0..4 {
            assert!(p.tasks_on(w).len() <= 3, "worker {w} overloaded");
        }
    }

    #[test]
    fn domain_spread_spreads_mc_trees_and_operators() {
        let g = chain();
        // 8 workers in racks of 2 → 4 worker racks.
        let cluster = Cluster::racked(8, 8, 2).unwrap();
        let p = DomainSpread::racks().place(&g, &cluster).unwrap();
        let tree = p.fault_domains().unwrap();
        let trees = enumerate_mc_trees(&g, McTreeLimits::default()).unwrap();
        assert_eq!(trees.len(), 4, "one path per source");
        // Operator anti-affinity: the 4 sources land in 4 distinct racks
        // (so no single rack failure silences half the input).
        let source_racks: std::collections::BTreeSet<_> = (0..4)
            .map(|t| tree.domain_of_at_level(p.primary[t], 1).unwrap())
            .collect();
        assert_eq!(source_racks.len(), 4, "sources not spread across racks");
        // MC-tree anti-affinity: no rack ever hosts a whole tree, and at
        // most one tree is cut twice by one rack — with one source per
        // rack, the sink's own rack unavoidably doubles up with exactly
        // that rack's source path.
        let mut doubled = 0;
        for mc in &trees {
            let racks: Vec<_> = mc
                .iter()
                .map(|t| tree.domain_of_at_level(p.primary[t.0], 1).unwrap())
                .collect();
            let distinct: std::collections::BTreeSet<_> = racks.iter().collect();
            assert!(distinct.len() >= 2, "a whole MC-tree in one rack");
            if distinct.len() < racks.len() {
                doubled += 1;
            }
        }
        assert!(
            doubled <= 1,
            "{doubled} trees doubled up, expected at most 1"
        );
    }

    #[test]
    fn domain_spread_without_domains_degrades_to_balance() {
        let g = chain();
        let p = DomainSpread::racks()
            .place(&g, &Cluster::flat(3, 2))
            .unwrap();
        // No domains: pure load balance, capacity ceil(7/3)=3 respected.
        for w in 0..3 {
            assert!(p.tasks_on(w).len() <= 3);
        }
        assert!(p.fault_domains().is_none());
    }

    #[test]
    fn strategies_validate_the_cluster() {
        let g = chain();
        for s in [
            &RoundRobin as &dyn PlacementStrategy,
            &Packed,
            &DomainSpread::racks(),
        ] {
            assert_eq!(
                s.place(&g, &Cluster::flat(0, 2)).unwrap_err(),
                PlacementError::NoWorkers,
                "{}",
                s.name()
            );
            assert_eq!(
                s.place(&g, &Cluster::flat(2, 0)).unwrap_err(),
                PlacementError::NoStandby,
                "{}",
                s.name()
            );
        }
    }
}
