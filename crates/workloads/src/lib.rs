//! # ppa-workloads — the paper's evaluation workloads
//!
//! * [`synthetic`] — the Fig. 6 topology used in the recovery-efficiency
//!   experiments (§VI-A): 16 source tasks on 4 nodes feeding 4 synthetic
//!   sliding-window operators (8/4/2/1 tasks) on 15 nodes, with 15 standby
//!   nodes.
//! * `worldcup` — Q1 (§VI-B): a hierarchical top-100 aggregation over a
//!   WorldCup'98-style access log. The original trace is not redistributable,
//!   so a Zipf-popularity synthetic log generator stands in (see README.md
//!   §4 — only the (server, object) shape matters to the query).
//! * `navigation` — Q2 (§VI-B): traffic-incident detection over a
//!   community-based navigation feed: a user-location stream joined with a
//!   user-reported incident stream (both synthetic, as in the paper).
//! * `accuracy` — the paper's query-accuracy functions
//!   (`|ST ∩ SA| / |SA|`) comparing tentative runs against golden runs.

mod accuracy;
mod key_sums;
mod navigation;
pub mod synthetic;
mod worldcup;
mod zipf;

pub use accuracy::{
    batch_fidelity, incident_accuracy, outage_fidelity, outage_windows, topk_accuracy,
};
pub use navigation::{q2_query, q2_scenario, NavigationConfig};
pub use synthetic::{fig6_query, fig6_scenario, Fig6Config, SyntheticOp};
pub use worldcup::{q1_query, q1_scenario, Q1Config};

use ppa_core::{Partitioning, TaskGraph};
use ppa_engine::{Cluster, ControlPolicy, Placement, PlacementError, PlacementStrategy, Query};

/// Factory producing a fresh control policy per run. Policies are
/// stateful (`&mut` hooks), so a scenario carries a factory rather than
/// an instance — each simulated run drives its own copy, which keeps
/// parallel harness runs independent and deterministic.
pub(crate) type PolicyFactory = Box<dyn Fn() -> Box<dyn ControlPolicy> + Send + Sync>;

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
    pub(crate) placement_strategy: String,
    /// Optional control policy driving online adaptation when the
    /// scenario runs through `Simulation::drive`. `None` means the
    /// static (never-acting) policy — byte-identical to the legacy run
    /// paths.
    pub(crate) policy: Option<PolicyFactory>,
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
                .map(ppa_core::TaskIndex)
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
        if graph.is_source_task(ppa_core::TaskIndex(t)) {
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

/// Checks the contract a source's re-serve rests on: `SourceGen::batch`
/// is a pure function of the batch id. Every batch a fresh generator
/// yields comes back equal from one generator asked for it twice, out of
/// order, after other batches, and `SourceGen::batch_len` (what a muted
/// replica charges) is its length, asked in order and out of it.
#[cfg(test)]
fn assert_pure_source(name: &str, fresh: impl Fn() -> Box<dyn ppa_engine::SourceGen>) {
    const BATCHES: u64 = 64;
    let expected: Vec<Vec<ppa_engine::Tuple>> = (0..BATCHES).map(|b| fresh().batch(b)).collect();
    assert!(
        expected.iter().any(|tuples| !tuples.is_empty()),
        "{name} emits tuples"
    );
    let mut counted = fresh();
    for b in 0..BATCHES {
        let len = counted.batch_len(b);
        assert_eq!(len, expected[b as usize].len(), "{name} batch_len {b}");
    }
    let mut reused = fresh();
    for round in 0..2 {
        // 37 is coprime to 64: every batch once per round, out of order.
        for b in (0..BATCHES).map(|i| (i * 37 + round * 11) % BATCHES) {
            let len = reused.batch_len(b);
            assert_eq!(len, expected[b as usize].len(), "{name} batch_len {b}");
            assert_eq!(reused.batch(b), expected[b as usize], "{name} batch {b}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_engine::{SourceGen, Tuple, Value};

    /// Folds `bytes` into the FNV-1a-64 state `h`.
    fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// A tuple as its key, a variant tag and its payload, little-endian;
    /// a float by its bits.
    fn tuple_bytes(t: &Tuple) -> Vec<u8> {
        let mut out = t.key.to_le_bytes().to_vec();
        match &t.value {
            Value::Empty => out.push(0),
            Value::Int(v) => {
                out.push(1);
                out.extend(v.to_le_bytes());
            }
            Value::Float(v) => {
                out.push(2);
                out.extend(v.to_bits().to_le_bytes());
            }
            Value::Pair(a, b) => {
                out.push(3);
                out.extend(a.to_le_bytes());
                out.extend(b.to_le_bytes());
            }
            Value::Counts(counts) => {
                out.push(4);
                out.extend((counts.len() as u64).to_le_bytes());
                for (k, n) in counts.iter() {
                    out.extend(k.to_le_bytes());
                    out.extend(n.to_le_bytes());
                }
            }
        }
        out
    }

    /// Batches 0..64 of every task of each default-config generator,
    /// folded with their lengths into one FNV-1a-64 digest per generator:
    /// a change to any tuple a generator emits, or to their order, shows
    /// here. The generators are built by the same factories the queries
    /// use.
    #[test]
    fn default_generators_emit_the_pinned_tuples() {
        let digest = |tasks: usize, factory: &dyn Fn(usize) -> Box<dyn SourceGen>| {
            let mut h = 0xCBF2_9CE4_8422_2325;
            for task in 0..tasks {
                let mut gen = factory(task);
                for b in 0..64 {
                    let tuples = gen.batch(b);
                    assert_eq!(gen.batch_len(b), tuples.len(), "task {task} batch {b}");
                    h = fnv1a64(h, &(tuples.len() as u64).to_le_bytes());
                    for t in &tuples {
                        h = fnv1a64(h, &tuple_bytes(t));
                    }
                }
            }
            format!("{h:016x}")
        };
        let (q1, q2) = (Q1Config::default(), NavigationConfig::default());
        let (location, incident) = navigation::q2_sources(&q2);
        let fig6 = synthetic::uniform_sources(&Fig6Config::default());
        let got = [
            ("UniformSource", digest(16, &fig6)),
            (
                "AccessLogSource",
                digest(q1.src_tasks, &worldcup::access_log_sources(&q1)),
            ),
            ("LocationSource", digest(q2.loc_src_tasks, &location)),
            ("IncidentSource", digest(q2.o3_tasks, &incident)),
        ];
        let pinned = [
            ("UniformSource", "b9ea82e66500e3a9"),
            ("AccessLogSource", "228e535a8c4ac847"),
            ("LocationSource", "b9c99aa406e14191"),
            ("IncidentSource", "d506753e9c657b46"),
        ];
        let got: Vec<(&str, &str)> = got.iter().map(|(name, h)| (*name, h.as_str())).collect();
        assert_eq!(got, pinned);
    }

    #[test]
    fn the_engine_counting_source_is_pure() {
        assert_pure_source("CountingSource", || {
            Box::new(ppa_engine::CountingSource {
                per_batch: 100,
                seed: 7,
                key_space: 50,
            })
        });
    }

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
                    .primary
                    .iter()
                    .enumerate()
                    .any(|(t, &n)| n == node && !g.is_source_task(ppa_core::TaskIndex(t))),
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
            if !g.is_source_task(ppa_core::TaskIndex(t)) {
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
