//! Algorithm 5: the structure-aware planner for general topologies.
//!
//! 1. Decompose the topology into full/structured sub-topologies
//!    ([`super::decompose`]).
//! 2. Give every sub-topology an initial budget equal to its operator count
//!    and plan it with its dedicated algorithm — one complete (local)
//!    MC-tree each. Because neighbouring sub-topologies are joined by `Full`
//!    partitioning, locally chosen trees stitch into global MC-trees.
//! 3. Repeatedly ask each sub-topology for its next one-increment expansion,
//!    and apply the proposal with the highest profit density
//!    `ΔOF / Δresources` that still fits the budget.
//!
//! Scores during sub-topology planning are *local*: the candidate plan is
//! evaluated with only this sub-topology's unplanned tasks failed, which
//! isolates the sub-topology's contribution exactly as the paper's
//! "treated as an independent topology" evaluation does, while reusing the
//! global loss propagation.

use super::full::{operator_deltas, plan_full};
use super::structured::plan_structured;
use super::units::UnitGraph;
use super::{decompose, SubKind, SubTopology};
use crate::error::Result;
use crate::mctree::min_tree_size;
use crate::model::{TaskGraph, TaskIndex, TaskSet};
use crate::planner::{Plan, PlanContext, Planner, Scorer};

/// The structure-aware planner (Algorithm 5).
#[derive(Debug, Clone, Copy)]
pub struct StructureAwarePlanner {
    /// Per-unit segment enumeration cap (heuristic truncation).
    pub(crate) segment_cap: usize,
    /// How many top segments per unit are evaluated as candidate seeds.
    pub(crate) eval_cap: usize,
}

impl Default for StructureAwarePlanner {
    fn default() -> Self {
        StructureAwarePlanner {
            segment_cap: 512,
            eval_cap: 48,
        }
    }
}

struct SubState {
    sub: SubTopology,
    /// The sub-topology's tasks plus their entire upstream closure. Local
    /// scoring fails every unplanned task in this cone: a segment only
    /// scores if the paths feeding it are replicated too, even when those
    /// paths live in an upstream sub-topology (the paper can assume
    /// independence because its boundaries are Full; our decomposition of
    /// arbitrary graphs cannot).
    cone: TaskSet,
    planning: SubPlanning,
}

/// What a sub-topology's dedicated algorithm plans from.
enum SubPlanning {
    /// Algorithm 3: the sub-topology's units and their segments.
    Structured(UnitGraph),
    /// Algorithm 4: each operator's tasks ranked by `δ`.
    Full(Vec<Vec<(TaskIndex, f64)>>),
}

impl StructureAwarePlanner {
    fn build_states(&self, scorer: &mut Scorer<'_>, subs: Vec<SubTopology>) -> Vec<SubState> {
        let cx = scorer.cx();
        let graph = cx.graph();
        let n = cx.n_tasks();
        let mut states: Vec<SubState> = subs
            .into_iter()
            .map(|sub| {
                let tasks =
                    TaskSet::from_tasks(n, sub.ops.iter().flat_map(|&op| graph.op_tasks(op)));
                // Upstream closure of the sub's tasks.
                let mut cone = tasks.clone();
                let mut stack: Vec<_> = tasks.iter().collect();
                while let Some(t) = stack.pop() {
                    for u in graph.upstream_tasks(t) {
                        if !cone.contains(u) {
                            cone.insert(u);
                            stack.push(u);
                        }
                    }
                }
                let joins_as_union =
                    cx.objective() == crate::planner::Objective::InternalCompleteness;
                let planning = match sub.kind {
                    SubKind::Structured => SubPlanning::Structured(UnitGraph::build_with(
                        graph,
                        cx.rates(),
                        &sub.ops,
                        self.segment_cap,
                        joins_as_union,
                    )),
                    SubKind::Full => {
                        SubPlanning::Full(operator_deltas(graph, &sub.ops, &mut |f| {
                            scorer.score_failed(f)
                        }))
                    }
                };
                SubState {
                    sub,
                    cone,
                    planning,
                }
            })
            .collect();
        // Plan upstream sub-topologies first, so downstream segments can
        // complete against already-planned feeders. A sub whose deepest
        // operator sits earlier in the topological order is more upstream.
        let topo_pos: std::collections::BTreeMap<usize, usize> = graph
            .topology()
            .topo_order()
            .iter()
            .enumerate()
            .map(|(i, op)| (op.0, i))
            .collect();
        states.sort_by_key(|s| {
            s.sub
                .ops
                .iter()
                .map(|op| topo_pos[&op.0])
                .max()
                .unwrap_or(0)
        });
        states
    }

    /// Expands `plan` within one sub-topology by up to `max_steps`
    /// increments, bounded by `budget` total tasks in the plan.
    fn plan_sub(
        &self,
        scorer: &mut Scorer<'_>,
        state: &SubState,
        plan: &mut TaskSet,
        budget: usize,
        max_steps: usize,
    ) -> bool {
        let graph = scorer.cx().graph();
        // Local objective: the sub's unplanned tasks fail, together with
        // every unplanned task of its upstream cone.
        let mut local = |p: &TaskSet| scorer.score_cone(&state.cone, p);
        match &state.planning {
            SubPlanning::Structured(units) => plan_structured(
                graph,
                units,
                plan,
                budget,
                max_steps,
                self.eval_cap,
                &mut local,
                true, // blind proposals: Algorithm 5 completes them cross-sub
            ),
            SubPlanning::Full(deltas) => plan_full(
                graph,
                &state.sub.ops,
                deltas,
                plan,
                budget,
                max_steps,
                &mut local,
            ),
        }
    }
}

impl Planner for StructureAwarePlanner {
    fn name(&self) -> &'static str {
        "SA"
    }

    fn plan(&self, cx: &PlanContext, budget: usize) -> Result<Plan> {
        let graph = cx.graph();
        let n = cx.n_tasks();
        let budget = budget.min(n);

        // No budget can complete even the smallest MC-tree: give up early
        // (the paper's line-3 guard, tightened to the minimal tree size —
        // see README.md §Design notes).
        if budget < min_tree_size(graph) {
            return Ok(cx.make_plan(TaskSet::empty(n)));
        }

        let mut scorer = Scorer::new(cx);
        let states = self.build_states(&mut scorer, decompose(graph.topology()));
        let mut plan = TaskSet::empty(n);

        // Profit-density expansion (paper lines 11–18). The paper's phase 1
        // additionally seeds every sub-topology with one MC-tree up front;
        // with cone-local scoring the density loop bootstraps upstream
        // sub-topologies first on its own, and skipping the unconditional
        // seeding avoids wasting budget on low-value sub-topologies
        // (documented deviation, README.md §Design notes).
        loop {
            let remaining = budget.saturating_sub(plan.len());
            if remaining == 0 {
                break;
            }
            let before_global = scorer.score_plan(&plan);
            let mut best: Option<(TaskSet, f64)> = None;
            for state in &states {
                let budget_cap = plan.len() + remaining;
                let mut trial = plan.clone();
                let expanded = self.plan_sub(&mut scorer, state, &mut trial, budget_cap, 1);
                if !expanded {
                    continue;
                }
                // Cross-sub completion: an increment alone may not reach a
                // sink yet (its tree's remaining segments live in other
                // sub-topologies). Complete it *minimally*: every added task
                // gets its support group — the smallest upstream/downstream
                // complement that lets it contribute — so proposals are
                // priced by their real worst-case value without dragging in
                // unrelated budget-polluting increments.
                let mut trial_score = scorer.score_plan(&trial);
                let completing = trial_score <= before_global + 1e-12;
                if completing {
                    let addition = trial.difference(&plan);
                    for t in addition.iter() {
                        let group = support_group(cx, graph, &trial, t);
                        trial.union_with(&group);
                        if trial.len() > budget_cap {
                            break;
                        }
                    }
                }
                let cost = trial.len() - plan.len();
                if cost == 0 || cost > remaining {
                    continue;
                }
                if completing {
                    trial_score = scorer.score_plan(&trial);
                }
                let density = (trial_score - before_global) / cost as f64;
                let better = match &best {
                    None => true,
                    Some((cur, d)) => {
                        density > *d + 1e-12 || (density > *d - 1e-12 && trial < *cur)
                    }
                };
                if better {
                    best = Some((trial, density));
                }
            }
            match best {
                Some((trial, density)) if density > 0.0 => plan = trial,
                // Accept zero-density expansions only if nothing better will
                // ever appear — stop instead, matching the paper's
                // termination when no resource can complete an MC-tree.
                _ => break,
            }
        }

        // Remainder fill (see `fill_support_groups`).
        fill_support_groups(&mut scorer, &mut plan, budget);

        // Portfolio safeguard: the density pipeline can commit to a large
        // seeding proposal (e.g. one task per operator of a wide full
        // sub-topology) that a pure support-group construction beats. Build
        // the fill-only plan too and keep the better of the two.
        let mut fill_only = TaskSet::empty(n);
        fill_support_groups(&mut scorer, &mut fill_only, budget);
        let plan_value = scorer.score_plan(&plan);
        let fill_value = scorer.score_plan(&fill_only);
        let (tasks, value) = if fill_value > plan_value + 1e-12
            || (fill_value > plan_value - 1e-12 && fill_only.len() < plan.len())
        {
            (fill_only, fill_value)
        } else {
            (plan, plan_value)
        };
        Ok(Plan { tasks, value })
    }
}

/// Spends remaining budget on the best-density *support group* per
/// still-unplanned task: the task plus the minimal upstream/downstream
/// complement that lets it contribute (documented deviation, README.md §Design notes —
/// the paper's Algorithm 5 strands budget once no complete MC-tree fits).
/// Also covers tasks that segment-cap truncation hid from the candidate
/// enumeration.
fn fill_support_groups(scorer: &mut Scorer<'_>, plan: &mut TaskSet, budget: usize) {
    let cx = scorer.cx();
    let graph = cx.graph();
    let n = graph.n_tasks();
    // `plan`'s score: after the first round, the winning trial's.
    let mut scored = None;
    loop {
        let remaining = budget.saturating_sub(plan.len());
        if remaining == 0 {
            break;
        }
        let base = *scored.get_or_insert_with(|| scorer.score_plan(plan));
        let mut best: Option<(TaskSet, f64, f64)> = None;
        for t in 0..n {
            let t = crate::model::TaskIndex(t);
            if plan.contains(t) {
                continue;
            }
            let group = support_group(cx, graph, plan, t);
            let add = group.difference(plan);
            if add.is_empty() || add.len() > remaining {
                continue;
            }
            let s = scorer.score_plan(&plan.union(&add));
            if s <= base + 1e-12 {
                continue;
            }
            let density = (s - base) / add.len() as f64;
            let better = match &best {
                None => true,
                Some((cur, d, _)) => density > *d + 1e-12 || (density > *d - 1e-12 && add < *cur),
            };
            if better {
                best = Some((add, density, s));
            }
        }
        let Some((add, _, s)) = best else { break };
        plan.union_with(&add);
        scored = Some(s);
    }
}

/// The minimal complement that lets task `t` contribute to a sink given the
/// current plan: a downstream chain to a sink (preferring already-planned
/// hops) plus, for every member, upstream substream coverage per input
/// stream (every stream for joins, at least one stream otherwise),
/// preferring planned tasks and breaking ties toward the heaviest rate.
fn support_group(
    cx: &PlanContext,
    graph: &TaskGraph,
    plan: &TaskSet,
    t: crate::model::TaskIndex,
) -> TaskSet {
    use crate::model::InputSemantics;
    let n = graph.n_tasks();
    let mut group = TaskSet::empty(n);
    group.insert(t);

    // Downstream chain to a sink.
    let mut cur = t;
    while !graph.is_sink_task(cur) {
        let downs = graph.downstream_tasks(cur);
        let Some(&first) = downs.first() else { break };
        let next = downs
            .iter()
            .copied()
            .find(|d| plan.contains(*d) || group.contains(*d))
            .unwrap_or(first);
        if group.contains(next) {
            break;
        }
        group.insert(next);
        cur = next;
    }

    // Upstream support for every member.
    let mut stack: Vec<crate::model::TaskIndex> = group.iter().collect();
    while let Some(x) = stack.pop() {
        let inputs = graph.inputs(x);
        if inputs.is_empty() {
            continue;
        }
        let op = graph.topology().operator(graph.operator_of(x));
        let correlated = op.semantics == InputSemantics::Correlated && inputs.len() > 1;
        let covered = |istream: &crate::model::InputStream, group: &TaskSet| {
            istream
                .substreams
                .iter()
                .any(|s| plan.contains(*s) || group.contains(*s))
        };
        // Heaviest rate first; the lower task index wins a tie.
        let by_rate = |a: &crate::model::TaskIndex, b: &crate::model::TaskIndex| {
            cx.rates()
                .output_rate(*a)
                .total_cmp(&cx.rates().output_rate(*b))
                .then(b.0.cmp(&a.0))
        };
        let heaviest = |istream: &crate::model::InputStream| {
            istream.substreams.iter().copied().max_by(by_rate)
        };
        if correlated {
            for istream in inputs {
                if covered(istream, &group) {
                    continue;
                }
                if let Some(pick) = heaviest(istream) {
                    group.insert(pick);
                    stack.push(pick);
                }
            }
        } else if !inputs.iter().any(|is| covered(is, &group)) {
            // Union semantics: one covered stream suffices; take the
            // heaviest substream overall.
            if let Some(pick) = inputs.iter().filter_map(heaviest).max_by(by_rate) {
                group.insert(pick);
                stack.push(pick);
            }
        }
    }
    group
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{OperatorSpec, Partitioning, TaskWeights, Topology, TopologyBuilder};
    use crate::planner::{DpPlanner, GreedyPlanner};

    fn merge_chain(weights: Vec<f64>) -> Topology {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(
            OperatorSpec::source("s", 4, 100.0).with_weights(TaskWeights::Explicit(weights)),
        );
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 1, 1.0));
        b.connect(s, m, Partitioning::Merge).unwrap();
        b.connect(m, k, Partitioning::Merge).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn sa_completes_trees_on_structured_chain() {
        let cx = PlanContext::new(&merge_chain(vec![8.0, 4.0, 2.0, 1.0])).unwrap();
        let plan = StructureAwarePlanner::default().plan(&cx, 3).unwrap();
        assert!(plan.value > 0.0, "3 tasks complete the heaviest MC-tree");
        assert!(plan.tasks.contains(crate::model::TaskIndex(0)));
    }

    #[test]
    fn sa_matches_dp_on_small_chain() {
        let cx = PlanContext::new(&merge_chain(vec![8.0, 4.0, 2.0, 1.0])).unwrap();
        for budget in [3, 4, 7] {
            let sa = StructureAwarePlanner::default().plan(&cx, budget).unwrap();
            let dp = DpPlanner::default().plan(&cx, budget).unwrap();
            assert!(
                sa.value <= dp.value + 1e-9,
                "budget {budget}: SA {} must not beat DP {}",
                sa.value,
                dp.value
            );
            // On this simple chain SA should actually achieve the optimum.
            assert!(
                (sa.value - dp.value).abs() < 1e-9,
                "budget {budget}: SA {} != DP {}",
                sa.value,
                dp.value
            );
        }
    }

    #[test]
    fn sa_beats_greedy_at_small_budgets() {
        // Uniform 4-wide one-to-one chain into a single sink. All sources
        // and mids tie on single-failure OF, so greedy's top-4 picks the
        // sink plus three sources — no complete MC-tree — while SA
        // completes a source→mid→sink tree.
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 4, 100.0));
        let m = b.add_operator(OperatorSpec::map("m", 4, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 1, 1.0));
        b.connect(s, m, Partitioning::OneToOne).unwrap();
        b.connect(m, k, Partitioning::Merge).unwrap();
        let cx = PlanContext::new(&b.build().unwrap()).unwrap();
        let sa = StructureAwarePlanner::default().plan(&cx, 4).unwrap();
        let greedy = GreedyPlanner.plan(&cx, 4).unwrap();
        assert_eq!(greedy.value, 0.0, "greedy assembles no complete MC-tree");
        assert!(sa.value > 0.0, "SA completes a tree: {:?}", sa.tasks);
    }

    #[test]
    fn sa_handles_full_topologies() {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(
            OperatorSpec::source("s", 3, 10.0)
                .with_weights(TaskWeights::Explicit(vec![5.0, 3.0, 1.0])),
        );
        let m = b.add_operator(OperatorSpec::map("m", 3, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 2, 1.0));
        b.connect(s, m, Partitioning::Full).unwrap();
        b.connect(m, k, Partitioning::Full).unwrap();
        let cx = PlanContext::new(&b.build().unwrap()).unwrap();
        let plan = StructureAwarePlanner::default().plan(&cx, 3).unwrap();
        assert_eq!(plan.resources(), 3, "one task per operator");
        assert!(plan.value > 0.0);
        let plan_all = StructureAwarePlanner::default().plan(&cx, 8).unwrap();
        assert!((plan_all.value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sa_handles_mixed_topologies() {
        // structured head -> full tail.
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 4, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        let f = b.add_operator(OperatorSpec::map("f", 2, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 1, 1.0));
        b.connect(s, m, Partitioning::Merge).unwrap();
        b.connect(m, f, Partitioning::Full).unwrap();
        b.connect(f, k, Partitioning::Full).unwrap();
        let cx = PlanContext::new(&b.build().unwrap()).unwrap();
        let plan = StructureAwarePlanner::default().plan(&cx, 4).unwrap();
        assert!(
            plan.value > 0.0,
            "stitched tree across sub-topologies: {:?}",
            plan.tasks
        );
        assert!(plan.resources() <= 4);
    }

    #[test]
    fn sa_returns_empty_below_min_tree_size() {
        let cx = PlanContext::new(&merge_chain(vec![1.0; 4])).unwrap();
        let plan = StructureAwarePlanner::default().plan(&cx, 2).unwrap();
        assert!(plan.tasks.is_empty());
        assert_eq!(plan.value, 0.0);
    }

    #[test]
    fn sa_value_is_monotone_in_budget() {
        let cx = PlanContext::new(&merge_chain(vec![8.0, 4.0, 2.0, 1.0])).unwrap();
        let mut prev = 0.0;
        for budget in 0..=7 {
            let plan = StructureAwarePlanner::default().plan(&cx, budget).unwrap();
            assert!(
                plan.value >= prev - 1e-9,
                "budget {budget}: {} < {prev}",
                plan.value
            );
            prev = plan.value;
        }
    }
}
