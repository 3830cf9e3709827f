//! Replication planners (§IV): given a topology and a budget of `R` actively
//! replicable tasks, choose the task set maximizing the quality of tentative
//! outputs under a worst-case correlated failure (Definition 2).
//!
//! * [`DpPlanner`] — Algorithm 1's exact optimum over MC-tree unions, found
//!   by a depth-first branch-and-bound.
//! * [`GreedyPlanner`] — Algorithm 2, topology-agnostic task ranking.
//! * [`StructureAwarePlanner`] — Algorithms 3–5, decomposition into
//!   structured/full sub-topologies with profit-density expansion.
//! * [`BruteForcePlanner`] — exhaustive search over MC-tree subsets, used as
//!   the optimality oracle in tests.

mod adaptive;
mod dp;
mod greedy;
mod structure;

pub use adaptive::{AdaptivePlanner, PlanAdaptation};
pub use dp::DpPlanner;
pub use greedy::GreedyPlanner;
pub use structure::StructureAwarePlanner;

use crate::error::Result;
use crate::fidelity::{DownstreamClosure, FidelityModel, LossAnchor};
use crate::mctree::{enumerate_mc_trees_with, McTreeLimits};
use crate::model::{TaskGraph, TaskSet, Topology};
use crate::rates::RateModel;
use std::sync::OnceLock;

/// Which quality metric a planner optimizes. The paper optimizes OF; the
/// Fig. 12 experiment additionally produces IC-optimized plans to show that
/// IC mispredicts accuracy for queries with joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    #[default]
    OutputFidelity,
    InternalCompleteness,
}

/// A partially active replication plan: the set of actively replicated tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The actively replicated tasks.
    pub tasks: TaskSet,
    /// The objective value (OF or IC, per the context's [`Objective`]) of the
    /// plan under the worst-case correlated failure.
    pub value: f64,
}

impl Plan {
    /// Number of replication slots the plan consumes.
    pub fn resources(&self) -> usize {
        self.tasks.len()
    }

    /// The arg-max rule of the exact planners ([`DpPlanner`] and
    /// [`BruteForcePlanner`]): `candidate`, scoring `score`, replaces the
    /// plan if it scores higher, or ties (within 1e-12) and uses fewer
    /// tasks (Theorem 1), or ties with as many tasks and is the smaller
    /// set. Exact ties thus go the same way in whatever order candidates
    /// are offered, so the two planners agree on which equally optimal
    /// plan they return.
    pub(crate) fn offer(&mut self, candidate: &TaskSet, score: f64) {
        let tied = score > self.value - 1e-12;
        if score > self.value + 1e-12
            || (tied && candidate.len() < self.tasks.len())
            || (tied && candidate.len() == self.tasks.len() && *candidate < self.tasks)
        {
            self.tasks.words_mut().copy_from_slice(candidate.words());
            // Keep the running *maximum* on tie wins — adopting the tied
            // (possibly epsilon-lower) score would let the tie threshold
            // drift downward and re-introduce order dependence across
            // near-tie chains.
            self.value = self.value.max(score);
        }
    }
}

/// Everything a planner needs: the task graph, rates, the metric to
/// optimize, and a lazily enumerated MC-tree cache.
pub struct PlanContext {
    graph: TaskGraph,
    rates: RateModel,
    objective: Objective,
    mc_trees: OnceLock<Result<Vec<TaskSet>>>,
    /// Candidate correlated-failure sets (typically derived from a fault
    /// domain hierarchy via [`PlanContext::with_fault_domains`]). `None`
    /// means Definition 2's worst case: every non-replicated task down.
    failure_sets: Option<Vec<TaskSet>>,
    /// Lazily cached objective value of the no-failure state — the fold
    /// identity of the domain-aware [`PlanContext::score_plan`], which
    /// planners call per candidate (reset when the objective switches).
    none_failed: OnceLock<f64>,
    /// Each task's downstream closure, built on a [`Scorer`]'s first delta
    /// pass: a context nobody plans on never pays for it.
    closure: OnceLock<DownstreamClosure>,
}

// Contexts are shared by reference across the harness's worker threads.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<PlanContext>();
};

impl PlanContext {
    /// Builds a context (task graph + rates) for a topology, optimizing OF.
    pub fn new(topology: &Topology) -> Result<Self> {
        Ok(Self::from_graph(TaskGraph::new(topology.clone())))
    }

    /// Builds a context from an already expanded task graph.
    pub(crate) fn from_graph(graph: TaskGraph) -> Self {
        let rates = RateModel::compute(&graph);
        PlanContext {
            graph,
            rates,
            objective: Objective::OutputFidelity,
            mc_trees: OnceLock::new(),
            failure_sets: None,
            none_failed: OnceLock::new(),
            closure: OnceLock::new(),
        }
    }

    /// Builds a context whose correlated-failure sets are *derived from a
    /// fault-domain hierarchy* instead of Definition 2's all-down worst
    /// case: every proper domain (rack, switch, power zone, ...) of the
    /// tree contributes the set of tasks whose hosting node it contains.
    /// `node_of_task[t]` is task `t`'s primary node.
    ///
    /// Planners that score candidates through `PlanContext::score_plan`
    /// (structure-aware, DP, brute force) then optimize the worst case over
    /// *plausible* domain failures, so replication budget is not wasted
    /// hedging against failures the cluster topology cannot produce. DP
    /// and brute force still draw their candidates from Definition 2's
    /// MC-tree unions, but pick among them by this domain-aware score.
    /// Greedy ranks tasks by single-task failures; only its reported plan
    /// value is domain-aware.
    pub fn with_fault_domains(
        topology: &Topology,
        domains: &ppa_faults::FaultDomainTree,
        node_of_task: &[ppa_faults::NodeId],
    ) -> Result<Self> {
        let cx = Self::new(topology)?;
        let n = cx.n_tasks();
        if node_of_task.len() != n {
            return Err(crate::error::CoreError::TaskNodeMapLength {
                expected: n,
                got: node_of_task.len(),
            });
        }
        let mut sets: Vec<TaskSet> = Vec::new();
        for d in domains.proper_domains() {
            let nodes = domains.nodes_under(d);
            let set = TaskSet::from_tasks(
                n,
                (0..n)
                    .filter(|&t| nodes.binary_search(&node_of_task[t]).is_ok())
                    .map(crate::model::TaskIndex),
            );
            if !set.is_empty() && !sets.contains(&set) {
                sets.push(set);
            }
        }
        Ok(cx.with_failure_sets(sets))
    }

    /// Overrides the candidate correlated-failure sets directly.
    pub fn with_failure_sets(mut self, sets: Vec<TaskSet>) -> Self {
        self.failure_sets = Some(sets);
        self
    }

    /// The candidate correlated-failure sets, when the context was built
    /// from a fault-domain hierarchy (or had sets attached explicitly).
    pub fn failure_sets(&self) -> Option<&[TaskSet]> {
        self.failure_sets.as_deref()
    }

    /// Switches the metric the planners optimize.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        // The cached baseline and MC-trees are per-objective.
        self.none_failed = OnceLock::new();
        self.mc_trees = OnceLock::new();
        self
    }

    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    pub(crate) fn rates(&self) -> &RateModel {
        &self.rates
    }

    pub(crate) fn objective(&self) -> Objective {
        self.objective
    }

    pub fn n_tasks(&self) -> usize {
        self.graph.n_tasks()
    }

    /// The fidelity model over this context's graph and rates.
    pub fn fidelity(&self) -> FidelityModel<'_> {
        FidelityModel::new(&self.graph, &self.rates)
    }

    /// Objective value when `failed` tasks are down.
    pub(crate) fn score_failed(&self, failed: &TaskSet) -> f64 {
        match self.objective {
            Objective::OutputFidelity => self.fidelity().output_fidelity(failed),
            Objective::InternalCompleteness => self.fidelity().internal_completeness(failed),
        }
    }

    /// Objective value of a plan under the worst-case correlated failure.
    ///
    /// Without failure sets this is Definition 2: all non-replicated tasks
    /// down. With domain-derived sets ([`PlanContext::with_fault_domains`])
    /// it is the minimum over the candidate sets, each masked by the plan
    /// (replicated tasks survive their domain's failure). A planner scoring
    /// many plans does it through one [`Scorer`], which keeps one anchor
    /// per set, so each set is recomputed from its own previous trial.
    pub(crate) fn score_plan(&self, plan: &TaskSet) -> f64 {
        Scorer::new(self).score_plan(plan)
    }

    /// Output fidelity of a plan, regardless of the planning objective.
    pub fn of_plan(&self, plan: &TaskSet) -> f64 {
        self.fidelity().of_plan(plan)
    }

    /// Internal completeness of a plan, regardless of the objective.
    pub fn ic_plan(&self, plan: &TaskSet) -> f64 {
        self.fidelity().ic_plan(plan)
    }

    /// The topology's MC-trees (cached; `Err` if enumeration explodes past
    /// the default [`McTreeLimits`]). Under the IC objective joins are
    /// treated as unions, matching what that metric believes a complete
    /// tree is.
    pub fn mc_trees(&self) -> Result<&[TaskSet]> {
        let joins_as_union = self.objective == Objective::InternalCompleteness;
        match self.mc_trees.get_or_init(|| {
            enumerate_mc_trees_with(&self.graph, McTreeLimits::default(), joins_as_union)
        }) {
            Ok(trees) => Ok(trees.as_slice()),
            Err(e) => Err(e.clone()),
        }
    }

    /// Wraps a task set into a [`Plan`] with its objective value.
    pub(crate) fn make_plan(&self, tasks: TaskSet) -> Plan {
        Scorer::new(self).make_plan(tasks)
    }
}

/// The scoring state of one planner call: [`PlanContext::score_plan`] and
/// [`PlanContext::score_failed`] as delta passes
/// ([`FidelityModel::score_delta`]), each from the previous call of its
/// kind. Failed words are written straight into one scratch buffer. The
/// values are those of the one-off methods, bit for bit, whatever was
/// scored before; the call order only decides how many tasks a pass
/// recomputes.
pub(crate) struct Scorer<'c> {
    cx: &'c PlanContext,
    /// The failed words of the pass being scored.
    failed: Vec<u64>,
    /// `score_plan`'s anchors: one per failure set, or the one of
    /// Definition 2's complement.
    plan_anchors: Vec<LossAnchor>,
    /// The anchor of every other failure pattern (`score_failed`,
    /// `score_cone`).
    failed_anchor: LossAnchor,
}

impl<'c> Scorer<'c> {
    pub(crate) fn new(cx: &'c PlanContext) -> Self {
        let n = cx.n_tasks();
        let sets = cx.failure_sets.as_ref().map_or(1, Vec::len);
        Scorer {
            cx,
            failed: vec![0; n.div_ceil(64)],
            plan_anchors: (0..sets).map(|_| LossAnchor::new(n)).collect(),
            failed_anchor: LossAnchor::new(n),
        }
    }

    pub(crate) fn cx(&self) -> &'c PlanContext {
        self.cx
    }

    /// [`PlanContext::score_plan`].
    pub(crate) fn score_plan(&mut self, plan: &TaskSet) -> f64 {
        let cx = self.cx;
        let plan = plan.words();
        match &cx.failure_sets {
            None => {
                for (f, &p) in self.failed.iter_mut().zip(plan) {
                    *f = !p;
                }
                // Bits past the capacity stay clear.
                let excess = self.failed.len() * 64 - cx.n_tasks();
                if let Some(last) = self.failed.last_mut() {
                    *last &= u64::MAX >> excess;
                }
                pass(cx, &self.failed, &mut self.plan_anchors[0])
            }
            Some(sets) => {
                let mut worst = *cx
                    .none_failed
                    .get_or_init(|| cx.score_failed(&TaskSet::empty(cx.n_tasks())));
                for (set, anchor) in sets.iter().zip(&mut self.plan_anchors) {
                    for ((f, &d), &p) in self.failed.iter_mut().zip(set.words()).zip(plan) {
                        *f = d & !p;
                    }
                    worst = f64::min(worst, pass(cx, &self.failed, anchor));
                }
                worst
            }
        }
    }

    /// [`PlanContext::score_failed`].
    pub(crate) fn score_failed(&mut self, failed: &TaskSet) -> f64 {
        self.failed.copy_from_slice(failed.words());
        pass(self.cx, &self.failed, &mut self.failed_anchor)
    }

    /// The objective when the tasks of `cone` outside `plan` are down:
    /// `score_failed(&cone.difference(plan))`.
    pub(crate) fn score_cone(&mut self, cone: &TaskSet, plan: &TaskSet) -> f64 {
        for ((f, &c), &p) in self.failed.iter_mut().zip(cone.words()).zip(plan.words()) {
            *f = c & !p;
        }
        pass(self.cx, &self.failed, &mut self.failed_anchor)
    }

    /// Wraps a task set into a [`Plan`] with its objective value.
    pub(crate) fn make_plan(&mut self, tasks: TaskSet) -> Plan {
        let value = self.score_plan(&tasks);
        Plan { tasks, value }
    }
}

/// One delta pass of `cx`'s objective from `anchor`.
fn pass(cx: &PlanContext, failed: &[u64], anchor: &mut LossAnchor) -> f64 {
    let closure = anchor
        .primed()
        .then(|| cx.closure.get_or_init(|| DownstreamClosure::new(&cx.graph)));
    let all_independent = cx.objective == Objective::InternalCompleteness;
    cx.fidelity()
        .score_delta(failed, all_independent, closure, anchor)
}

/// A replication planner for Definition 2.
pub trait Planner {
    /// Short name used in experiment reports ("DP", "Greedy", "SA", ...).
    fn name(&self) -> &'static str;

    /// Chooses at most `budget` tasks to actively replicate.
    fn plan(&self, cx: &PlanContext, budget: usize) -> Result<Plan>;
}

/// Exhaustive search over subsets of MC-trees: the optimality oracle used in
/// tests to validate [`DpPlanner`]. Exponential in the number of MC-trees.
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForcePlanner;

/// [`BruteForcePlanner`] refuses instances with more MC-trees than this.
const BRUTE_FORCE_TREES: usize = 20;

impl Planner for BruteForcePlanner {
    fn name(&self) -> &'static str {
        "BruteForce"
    }

    fn plan(&self, cx: &PlanContext, budget: usize) -> Result<Plan> {
        let trees = cx.mc_trees()?;
        if trees.len() > BRUTE_FORCE_TREES {
            return Err(crate::error::CoreError::McTreeExplosion {
                limit: BRUTE_FORCE_TREES,
            });
        }
        let n = cx.n_tasks();
        let mut scorer = Scorer::new(cx);
        let mut best = scorer.make_plan(TaskSet::empty(n));
        for mask in 0u64..(1u64 << trees.len()) {
            let mut union = TaskSet::empty(n);
            for (i, tree) in trees.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    union.union_with(tree);
                }
            }
            if union.len() <= budget {
                best.offer(&union, scorer.score_plan(&union));
            }
        }
        // `offer` keeps the running maximum, which a near-tied other
        // candidate may have set: report the chosen plan's own score.
        Ok(scorer.make_plan(best.tasks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{OperatorSpec, Partitioning, TaskIndex, TopologyBuilder};
    use crate::random::{RandomTopologySpec, Skew, TopologyStyle};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small() -> Topology {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 2, 10.0));
        let k = b.add_operator(OperatorSpec::map("k", 1, 1.0));
        b.connect(s, k, Partitioning::Merge).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn context_scores_and_plans() {
        let cx = PlanContext::new(&small()).unwrap();
        assert_eq!(cx.n_tasks(), 3);
        let all = TaskSet::full(3);
        assert!((cx.score_plan(&all) - 1.0).abs() < 1e-12);
        let plan = cx.make_plan(all);
        assert_eq!(plan.resources(), 3);
        assert!((plan.value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mc_trees_are_cached() {
        let cx = PlanContext::new(&small()).unwrap();
        let a = cx.mc_trees().unwrap().as_ptr();
        let b = cx.mc_trees().unwrap().as_ptr();
        assert_eq!(a, b);
    }

    #[test]
    fn brute_force_finds_a_tree_when_budget_allows() {
        let cx = PlanContext::new(&small()).unwrap();
        // Budget 2 fits one MC-tree (1 source + sink).
        let plan = BruteForcePlanner.plan(&cx, 2).unwrap();
        assert_eq!(plan.resources(), 2);
        assert!(plan.value > 0.0);
        // Budget 1 fits nothing useful.
        let plan = BruteForcePlanner.plan(&cx, 1).unwrap();
        assert_eq!(plan.resources(), 0);
        assert_eq!(plan.value, 0.0);
    }

    #[test]
    fn fault_domains_derive_failure_sets_and_relax_scoring() {
        use ppa_faults::FaultDomainTree;
        let t = small(); // 2 source tasks + 1 sink task
                         // Tasks 0,1 (sources) on nodes 0,1 in rack A; task 2 (sink) on
                         // node 2 in rack B.
        let node_of_task = [0usize, 1, 2];
        let racks = FaultDomainTree::racks(&[0, 1, 2], 2);
        let cx = PlanContext::with_fault_domains(&t, &racks, &node_of_task).unwrap();
        // Two proper domains → two distinct failure sets.
        assert_eq!(cx.failure_sets().unwrap().len(), 2);

        // Under Definition 2 an empty plan scores 0 (everything dies); under
        // the rack model the worst single-rack failure still leaves either
        // the sink or the sources, but never a complete source→sink tree,
        // so the empty plan still scores 0 here.
        let empty = TaskSet::empty(3);
        assert_eq!(cx.score_plan(&empty), 0.0);

        // Replicating the sink makes the cluster survive the sink's rack
        // failing — but rack A dying still kills both sources, so OF stays
        // 0. Replicating one source *and* the sink covers both failures:
        // whichever rack dies, a full tree survives.
        let sink_only = TaskSet::from_tasks(3, [crate::model::TaskIndex(2)]);
        assert_eq!(cx.score_plan(&sink_only), 0.0);
        let covered =
            TaskSet::from_tasks(3, [crate::model::TaskIndex(0), crate::model::TaskIndex(2)]);
        assert!(
            cx.score_plan(&covered) > 0.0,
            "a plan covering every rack failure scores positively under the domain model"
        );
        // ... while Definition 2 gives the same plan a zero (the other
        // source task is assumed dead too, halving the source rate but the
        // tree survives — actually check both models agree on sign).
        let def2 = PlanContext::new(&t).unwrap();
        assert!(
            cx.score_plan(&covered) >= def2.score_plan(&covered),
            "domain-restricted failures can only improve the worst case"
        );
    }

    #[test]
    fn fault_domains_reject_short_node_maps() {
        use ppa_faults::FaultDomainTree;
        let t = small();
        let racks = FaultDomainTree::racks(&[0, 1, 2], 2);
        // 3 tasks but only 2 mapped nodes: a typed error, not an abort.
        let err = match PlanContext::with_fault_domains(&t, &racks, &[0, 1]) {
            Err(e) => e,
            Ok(_) => panic!("short node map accepted"),
        };
        assert_eq!(
            err,
            crate::error::CoreError::TaskNodeMapLength {
                expected: 3,
                got: 2
            }
        );
        assert!(err.to_string().contains("2 task(s)"), "{err}");
    }

    #[test]
    fn explicit_failure_sets_override() {
        let cx = PlanContext::new(&small())
            .unwrap()
            .with_failure_sets(vec![]);
        // No plausible failure at all: every plan is perfect.
        assert_eq!(cx.score_plan(&TaskSet::empty(3)), 1.0);
    }

    #[test]
    fn objective_switch_changes_scoring() {
        // Join where the two metrics diverge.
        let mut b = TopologyBuilder::new();
        let s1 = b.add_operator(OperatorSpec::source("s1", 2, 10.0));
        let s2 = b.add_operator(OperatorSpec::source("s2", 2, 10.0));
        let j = b.add_operator(OperatorSpec::join("j", 1, 1.0));
        b.connect(s1, j, Partitioning::Merge).unwrap();
        b.connect(s2, j, Partitioning::Merge).unwrap();
        let t = b.build().unwrap();

        let cx_of = PlanContext::new(&t).unwrap();
        let cx_ic = PlanContext::new(&t)
            .unwrap()
            .with_objective(Objective::InternalCompleteness);
        // Plan covering one source of s1 plus the join, nothing of s2.
        let plan = TaskSet::from_tasks(5, [crate::model::TaskIndex(0), crate::model::TaskIndex(4)]);
        assert_eq!(cx_of.score_plan(&plan), 0.0, "join starves without s2");
        assert!(cx_ic.score_plan(&plan) > 0.0, "IC ignores the correlation");
    }

    #[test]
    fn objective_switch_drops_the_cached_mc_trees() {
        // Two 2-task sources joined into a 1-task join: an OF tree needs a
        // task of each source, an IC tree (joins as unions) only one.
        let mut b = TopologyBuilder::new();
        let s1 = b.add_operator(OperatorSpec::source("s1", 2, 10.0));
        let s2 = b.add_operator(OperatorSpec::source("s2", 2, 10.0));
        let j = b.add_operator(OperatorSpec::join("j", 1, 1.0));
        b.connect(s1, j, Partitioning::Merge).unwrap();
        b.connect(s2, j, Partitioning::Merge).unwrap();
        let t = b.build().unwrap();

        let cx = PlanContext::new(&t).unwrap();
        let of_sizes: Vec<usize> = cx.mc_trees().unwrap().iter().map(TaskSet::len).collect();
        assert_eq!(of_sizes, [3; 4]);
        let switched = cx.with_objective(Objective::InternalCompleteness);
        let fresh = PlanContext::new(&t)
            .unwrap()
            .with_objective(Objective::InternalCompleteness);
        assert_eq!(switched.mc_trees().unwrap(), fresh.mc_trees().unwrap());
        assert!(switched
            .mc_trees()
            .unwrap()
            .iter()
            .all(|tree| tree.len() == 2));
    }

    /// The Fig. 6, Q1 and Q2 shapes with the workloads crate's default
    /// parallelism and partitioning (rates and selectivities are not
    /// theirs), then random topologies of the four `plan_corpus` specs.
    fn delta_corpus() -> Vec<Topology> {
        let chain = |widths: &[usize]| {
            let mut b = TopologyBuilder::new();
            let mut up = b.add_operator(OperatorSpec::source("src", widths[0], 100.0));
            for &w in &widths[1..] {
                let op = b.add_operator(OperatorSpec::map("op", w, 0.7));
                b.connect(up, op, Partitioning::Merge).unwrap();
                up = op;
            }
            b.build().unwrap()
        };
        let q2 = {
            let mut b = TopologyBuilder::new();
            let loc = b.add_operator(OperatorSpec::source("loc", 8, 500.0));
            let inc = b.add_operator(OperatorSpec::source("inc", 4, 30.0));
            let o1 = b.add_operator(OperatorSpec::map("o1", 4, 0.25));
            let o2 = b.add_operator(OperatorSpec::map("o2", 4, 0.2));
            let o3 = b.add_operator(OperatorSpec::join("o3", 4, 0.5));
            let o4 = b.add_operator(OperatorSpec::map("o4", 1, 1.0));
            b.connect(loc, o1, Partitioning::Merge).unwrap();
            b.connect(o1, o3, Partitioning::OneToOne).unwrap();
            b.connect(inc, o2, Partitioning::OneToOne).unwrap();
            b.connect(o2, o3, Partitioning::OneToOne).unwrap();
            b.connect(o3, o4, Partitioning::Merge).unwrap();
            b.build().unwrap()
        };
        let mut corpus = vec![chain(&[16, 8, 4, 2, 1]), chain(&[16, 8, 4, 1]), q2];
        let base = RandomTopologySpec {
            n_operators: (5, 10),
            parallelism: (1, 10),
            ..RandomTopologySpec::default()
        };
        let specs = [
            base.clone(),
            RandomTopologySpec {
                skew: Skew::Zipf { s: 0.1 },
                ..base.clone()
            },
            RandomTopologySpec {
                style: TopologyStyle::Full,
                ..base.clone()
            },
            RandomTopologySpec {
                join_fraction: 0.5,
                ..base
            },
        ];
        let mut rng = StdRng::seed_from_u64(42);
        for spec in &specs {
            corpus.extend((0..6).map(|_| spec.generate(&mut rng)));
        }
        corpus
    }

    fn random_set(n: usize, rng: &mut StdRng) -> TaskSet {
        let p: f64 = rng.gen_range(0.0..1.0);
        TaskSet::from_tasks(n, (0..n).filter(|_| rng.gen_bool(p)).map(TaskIndex))
    }

    /// Plan sequences as the planners issue them: a plan growing by trials
    /// `plan ∪ add` (SA), distinct unions in sorted row order (the DP), and
    /// unrelated sets.
    fn call_sequences(n: usize, rng: &mut StdRng) -> [Vec<TaskSet>; 3] {
        let mut growing = Vec::new();
        let mut plan = TaskSet::empty(n);
        while plan.len() < n {
            growing.push(plan.clone());
            let mut trial = plan.clone();
            for _ in 0..3 {
                trial = plan.clone();
                for _ in 0..rng.gen_range(1..=3) {
                    trial.insert(TaskIndex(rng.gen_range(0..n)));
                }
                growing.push(trial.clone());
            }
            plan = trial;
        }
        let mut rows: Vec<TaskSet> = (0..40).map(|_| random_set(n, rng)).collect();
        rows.sort();
        rows.dedup();
        let jumps = (0..40).map(|_| random_set(n, rng)).collect();
        [growing, rows, jumps]
    }

    /// The objective under `all_independent` with `failed` down, from
    /// scratch.
    fn full_pass(cx: &PlanContext, failed: &TaskSet, all_independent: bool) -> f64 {
        if all_independent {
            cx.fidelity().internal_completeness(failed)
        } else {
            cx.fidelity().output_fidelity(failed)
        }
    }

    /// [`PlanContext::score_plan`] from scratch.
    fn plan_pass(cx: &PlanContext, plan: &TaskSet, all_independent: bool) -> f64 {
        match cx.failure_sets() {
            None => full_pass(cx, &plan.complement(), all_independent),
            Some(sets) => sets
                .iter()
                .map(|d| full_pass(cx, &d.difference(plan), all_independent))
                .fold(
                    full_pass(cx, &TaskSet::empty(cx.n_tasks()), all_independent),
                    f64::min,
                ),
        }
    }

    #[test]
    fn delta_pass_matches_a_full_pass_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(7);
        for (i, topology) in delta_corpus().iter().enumerate() {
            let cx = PlanContext::new(topology).unwrap();
            let n = cx.n_tasks();
            let (model, closure) = (cx.fidelity(), DownstreamClosure::new(cx.graph()));
            // One anchor across every sequence: each starts from whatever
            // the previous one left.
            let mut anchor = LossAnchor::new(n);
            let sequences = call_sequences(n, &mut rng);
            for (kind, sequence) in sequences.iter().enumerate() {
                for all_independent in [false, true] {
                    for set in sequence {
                        // Plans fail their complement; the unrelated sets
                        // fail as they are, under either objective.
                        let (failed, all_independent) = match kind {
                            2 => (set.clone(), rng.gen_bool(0.5)),
                            _ => (set.complement(), all_independent),
                        };
                        let got = model.score_delta(
                            failed.words(),
                            all_independent,
                            Some(&closure),
                            &mut anchor,
                        );
                        let want = full_pass(&cx, &failed, all_independent);
                        assert_eq!(got.to_bits(), want.to_bits(), "topology {i}, kind {kind}");
                    }
                }
            }
            // Re-scoring after any history, twice in a row, is exact.
            for sequence in &sequences {
                let failed = sequence[0].complement();
                for _ in 0..2 {
                    let got = model.score_delta(failed.words(), false, Some(&closure), &mut anchor);
                    assert_eq!(got.to_bits(), cx.of_plan(&sequence[0]).to_bits());
                }
            }
        }
    }

    #[test]
    fn scorer_matches_one_off_scores_with_and_without_failure_sets() {
        let mut rng = StdRng::seed_from_u64(8);
        for (i, topology) in delta_corpus().iter().enumerate() {
            let n = PlanContext::new(topology).unwrap().n_tasks();
            let sets: Vec<TaskSet> = (0..4).map(|_| random_set(n, &mut rng)).collect();
            let sequences = call_sequences(n, &mut rng);
            let cone = random_set(n, &mut rng);
            for objective in [Objective::OutputFidelity, Objective::InternalCompleteness] {
                let all_independent = objective == Objective::InternalCompleteness;
                for failure_sets in [None, Some(sets.clone())] {
                    let mut cx = PlanContext::new(topology)
                        .unwrap()
                        .with_objective(objective);
                    if let Some(sets) = &failure_sets {
                        cx = cx.with_failure_sets(sets.clone());
                    }
                    let want_plan = |plan: &TaskSet| plan_pass(&cx, plan, all_independent);
                    let mut scorer = Scorer::new(&cx);
                    for sequence in &sequences {
                        for plan in sequence {
                            let got = scorer.score_plan(plan);
                            assert_eq!(got.to_bits(), want_plan(plan).to_bits(), "topology {i}");
                            // SA's local scores interleave with its global
                            // ones, on the other anchor.
                            let got = scorer.score_cone(&cone, plan);
                            let want = full_pass(&cx, &cone.difference(plan), all_independent);
                            assert_eq!(got.to_bits(), want.to_bits(), "topology {i}");
                        }
                    }
                    for sequence in &sequences {
                        let plan = &sequence[0];
                        assert_eq!(scorer.score_plan(plan).to_bits(), want_plan(plan).to_bits());
                        assert_eq!(
                            scorer.score_failed(plan).to_bits(),
                            cx.score_failed(plan).to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exact_planners_report_their_own_plans_score() {
        // On draw 12 at ratio 0.8, under OF and under IC, brute force kept
        // the score of a near-tied other candidate, one ulp above its
        // plan's own.
        let spec = RandomTopologySpec {
            parallelism: (1, 4),
            ..RandomTopologySpec::default()
        };
        let mut rng = StdRng::seed_from_u64(100);
        let mut sets_rng = StdRng::seed_from_u64(9);
        let planners: [&dyn Planner; 2] = [&DpPlanner::default(), &BruteForcePlanner];
        let mut checked = 0;
        for draw in 0..16 {
            let topology = spec.generate(&mut rng);
            let n = topology.n_tasks();
            let sets: Vec<TaskSet> = (0..3).map(|_| random_set(n, &mut sets_rng)).collect();
            for objective in [Objective::OutputFidelity, Objective::InternalCompleteness] {
                for failure_sets in [None, Some(sets.clone())] {
                    let mut cx = PlanContext::new(&topology)
                        .unwrap()
                        .with_objective(objective);
                    if let Some(sets) = failure_sets {
                        cx = cx.with_failure_sets(sets);
                    }
                    if cx.mc_trees().map_or(true, |trees| trees.len() > 14) {
                        continue;
                    }
                    for ratio in [0.2, 0.4, 0.6, 0.8, 1.0] {
                        let budget = (n as f64 * ratio).round() as usize;
                        for planner in planners {
                            let plan = planner.plan(&cx, budget).unwrap();
                            let all_independent = objective == Objective::InternalCompleteness;
                            let want = plan_pass(&cx, &plan.tasks, all_independent);
                            assert_eq!(
                                plan.value.to_bits(),
                                want.to_bits(),
                                "{}, draw {draw}, {objective:?}, sets {}, budget {budget}",
                                planner.name(),
                                cx.failure_sets().is_some()
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked >= 250, "only {checked} plans checked");
    }
}
