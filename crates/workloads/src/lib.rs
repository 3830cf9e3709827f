//! # ppa-workloads — the paper's evaluation workloads
//!
//! * [`synthetic`] — the Fig. 6 topology used in the recovery-efficiency
//!   experiments (§VI-A): 16 source tasks on 4 nodes feeding 4 synthetic
//!   sliding-window operators (8/4/2/1 tasks) on 15 nodes, with 15 standby
//!   nodes.
//! * [`worldcup`] — Q1 (§VI-B): a hierarchical top-100 aggregation over a
//!   WorldCup'98-style access log. The original trace is not redistributable,
//!   so a Zipf-popularity synthetic log generator stands in (see README.md
//!   §4 — only the (server, object) shape matters to the query).
//! * [`navigation`] — Q2 (§VI-B): traffic-incident detection over a
//!   community-based navigation feed: a user-location stream joined with a
//!   user-reported incident stream (both synthetic, as in the paper).
//! * [`accuracy`] — the paper's query-accuracy functions
//!   (`|ST ∩ SA| / |SA|`) comparing tentative runs against golden runs.

pub mod accuracy;
pub mod navigation;
pub mod synthetic;
pub mod worldcup;
pub mod zipf;

pub use accuracy::{
    batch_fidelity, floored_outage_windows, incident_accuracy, outage_fidelity, outage_windows,
    sink_set_accuracy, topk_accuracy, OutageWindow,
};
pub use navigation::{q2_scenario, NavigationConfig};
pub use synthetic::{fig6_scenario, Fig6Config};
pub use worldcup::{q1_scenario, Q1Config};

use ppa_core::model::{Partitioning, TaskGraph};
use ppa_engine::{Cluster, ControlPolicy, Placement, PlacementError, PlacementStrategy, Query};

/// Factory producing a fresh control policy per run. Policies are
/// stateful (`&mut` hooks), so a scenario carries a factory rather than
/// an instance — each simulated run drives its own copy, which keeps
/// parallel harness runs independent and deterministic.
pub type PolicyFactory = Box<dyn Fn() -> Box<dyn ControlPolicy> + Send + Sync>;

/// A ready-to-run workload: query + placement + the worker nodes whose
/// simultaneous death is the paper's correlated failure.
pub struct Scenario {
    pub query: Query,
    pub placement: Placement,
    /// Nodes hosting the non-source tasks (the correlated-failure kill set;
    /// source nodes survive, as in §VI-A).
    pub worker_kill_set: Vec<usize>,
    /// Name of the placement strategy that produced `placement`
    /// (`"Dedicated"` for the paper's hand-built layout).
    pub placement_strategy: String,
    /// Optional control policy driving online adaptation when the
    /// scenario runs through `Simulation::drive`. `None` means the
    /// static (never-acting) policy — byte-identical to the legacy run
    /// paths.
    pub policy: Option<PolicyFactory>,
}

impl Scenario {
    /// Attaches a control-policy factory; each run gets a fresh instance.
    pub fn with_policy(
        mut self,
        factory: impl Fn() -> Box<dyn ControlPolicy> + Send + Sync + 'static,
    ) -> Self {
        self.policy = Some(Box::new(factory));
        self
    }

    /// Instantiates the scenario's policy (the static no-op when none is
    /// attached).
    pub fn make_policy(&self) -> Box<dyn ControlPolicy> {
        match &self.policy {
            Some(factory) => factory(),
            None => Box::new(ppa_engine::StaticPolicy),
        }
    }
    /// Re-places an existing scenario's query with a [`PlacementStrategy`]
    /// over a [`Cluster`]: the placement (and its attached fault-domain
    /// mapping) is rebuilt and the strategy's name is recorded for run
    /// labels. The kill set keeps its documented §VI-A contract — the
    /// nodes hosting non-source primaries — even though a generic strategy
    /// mixes sources onto shared workers (a node hosting both a source and
    /// a synthetic task is still in the set; a pure source node is not).
    pub fn placed_with(
        mut self,
        strategy: &dyn PlacementStrategy,
        cluster: &Cluster,
    ) -> Result<Self, PlacementError> {
        let graph = self.graph();
        let placement = strategy.place(&graph, cluster)?;
        self.worker_kill_set = placement.nodes_of(
            (0..graph.n_tasks())
                .map(ppa_core::model::TaskIndex)
                .filter(|&t| !graph.is_source_task(t)),
        );
        self.placement = placement;
        self.placement_strategy = strategy.name().to_string();
        Ok(self)
    }

    /// The task graph of the scenario's query.
    pub fn graph(&self) -> TaskGraph {
        TaskGraph::new(self.query.topology().clone())
    }

    /// A fault-domain hierarchy over the scenario's worker nodes: the kill
    /// set grouped into consecutive racks of `rack_size`. This is the
    /// cluster description the `ppa-faults` generators (and the
    /// `corr_sweep` experiment) draw bursts and cascades from; source and
    /// standby nodes are left outside the tree, mirroring §VI-A where they
    /// survive the correlated failure.
    pub fn worker_fault_domains(&self, rack_size: usize) -> ppa_faults::FaultDomainTree {
        ppa_faults::FaultDomainTree::racks(&self.worker_kill_set, rack_size)
    }
}

/// Places every source task on shared source nodes (4 tasks per node) and
/// every other task on its own worker node, with one standby node per task,
/// mirroring the paper's layout.
pub(crate) fn dedicated_placement(graph: &TaskGraph) -> (Placement, Vec<usize>) {
    let n = graph.n_tasks();
    let mut primary = vec![0usize; n];
    let mut next_source_slot = 0usize;
    let mut worker_nodes: Vec<usize> = Vec::new();

    let n_source_tasks = graph.source_tasks().len();
    let n_source_nodes = n_source_tasks.div_ceil(4).max(1);
    let mut next_worker = n_source_nodes;
    for (t, slot) in primary.iter_mut().enumerate() {
        if graph.is_source_task(ppa_core::model::TaskIndex(t)) {
            *slot = next_source_slot / 4;
            next_source_slot += 1;
        } else {
            *slot = next_worker;
            worker_nodes.push(next_worker);
            next_worker += 1;
        }
    }
    let n_workers = next_worker;
    let n_standby = n.max(1);
    let standby: Vec<usize> = (0..n).map(|t| n_workers + t % n_standby).collect();
    #[expect(
        clippy::expect_used,
        reason = "the loops above put every primary below n_workers (at least the one source node) and every standby in n_workers..n_workers + n_standby (n_standby >= 1), which is all Placement::explicit checks"
    )]
    let placement = Placement::explicit(primary, standby, n_workers, n_standby)
        .expect("dedicated placement is structurally valid");
    (placement, worker_nodes)
}

/// The link between two levels of an aggregation tree whose downstream
/// parallelism divides the upstream one: `OneToOne` when they are equal,
/// `Merge` otherwise — arity-valid either way.
pub(crate) fn merge_link(upstream: usize, downstream: usize) -> Partitioning {
    if upstream == downstream {
        Partitioning::OneToOne
    } else {
        Partitioning::Merge
    }
}

/// Strategy label of the paper's hand-built source-isolating layout.
pub(crate) const DEDICATED: &str = "Dedicated";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_fault_domains_cover_exactly_the_kill_set() {
        let s = synthetic::fig6_scenario(&Fig6Config::default());
        let tree = s.worker_fault_domains(4);
        assert_eq!(
            tree.all_nodes(),
            s.worker_kill_set,
            "racks partition the kill set"
        );
        assert_eq!(
            tree.domains_at_level(1).len(),
            4,
            "15 workers in racks of 4"
        );
        // Source nodes are outside the hierarchy.
        for t in s.graph().source_tasks() {
            assert_eq!(tree.domain_of(s.placement.primary[t.0]), None);
        }
    }

    #[test]
    fn placed_with_rebuilds_placement_and_keeps_kill_set_contract() {
        use ppa_engine::{Cluster, Packed};
        let s = synthetic::fig6_scenario(&Fig6Config::default())
            .placed_with(&Packed, &Cluster::flat(12, 12))
            .unwrap();
        assert_eq!(s.placement_strategy, "Packed");
        let g = s.graph();
        // Packed puts the 16 sources (tasks 0..16, 3 per node) on nodes
        // 0..5 and nothing else on 0..4; the kill set must keep its §VI-A
        // contract: nodes hosting non-source primaries only.
        for node in 0..4 {
            assert!(
                !s.worker_kill_set.contains(&node),
                "pure source node {node} in the kill set"
            );
        }
        for &node in &s.worker_kill_set {
            assert!(
                s.placement
                    .tasks_on(node)
                    .iter()
                    .any(|&t| !g.is_source_task(t)),
                "kill-set node {node} hosts no non-source primary"
            );
        }
        assert!(!s.worker_kill_set.is_empty());
    }

    #[test]
    fn dedicated_placement_isolates_sources() {
        let s = synthetic::fig6_scenario(&Fig6Config::default());
        let g = s.graph();
        // 16 source tasks on 4 nodes.
        for t in g.source_tasks() {
            assert!(s.placement.primary[t.0] < 4);
        }
        // 15 synthetic tasks on their own nodes 4..19.
        let mut seen = std::collections::BTreeSet::new();
        for t in 0..g.n_tasks() {
            if !g.is_source_task(ppa_core::model::TaskIndex(t)) {
                assert!(s.placement.primary[t] >= 4);
                assert!(
                    seen.insert(s.placement.primary[t]),
                    "one synthetic task per node"
                );
            }
        }
        assert_eq!(s.worker_kill_set.len(), 15);
    }
}
