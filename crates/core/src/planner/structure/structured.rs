//! Algorithm 3: one increment for a *structured* sub-topology.
//!
//! A candidate group is either a single segment (if replicating it alone
//! already raises the objective — i.e. it completes an MC-tree with
//! already-replicated segments), or a chain of connected segments gathered
//! by a BFS across neighbouring units (so that the group forms a complete
//! MC-tree by itself). [`propose_structured`] returns the candidate with
//! the highest *profit density* `(score(P ∪ CG) − score(P)) / |CG \ P|`;
//! Algorithm 5 ([`super::StructureAwarePlanner`]) asks for one such
//! increment per sub-topology and round.

use super::units::{sets_connected, UnitGraph};
use crate::model::{TaskGraph, TaskSet};

const EPS: f64 = 1e-9;

/// How many segments per unit, heaviest first, are tried as group seeds
/// and as attachments (heuristic truncation).
const EVAL_CAP: usize = 48;

/// The next increment of the sub-topology described by `units`: tasks to
/// add to `plan`, none already in it, at most `remaining` of them.
///
/// `score` evaluates a candidate plan (Algorithm 5 passes a
/// sub-topology-local objective, see [`super::StructureAwarePlanner`]).
///
/// When no candidate raises the score, the heaviest affordable unplanned
/// segment is proposed anyway (a *blind* proposal): completing a join
/// whose input streams live in *different* sub-topologies gains nothing
/// in either sub alone, so Algorithm 5's cross-sub completion must be
/// handed a zero-gain seed to build on (it discards the proposal if the
/// combined global gain stays zero).
///
/// Returns `None` when no unplanned segment fits in `remaining`.
pub(crate) fn propose_structured(
    graph: &TaskGraph,
    units: &UnitGraph,
    plan: &TaskSet,
    remaining: usize,
    score: &mut dyn FnMut(&TaskSet) -> f64,
) -> Option<TaskSet> {
    let base_score = score(plan);
    let unplanned = || {
        units.units.iter().flat_map(|unit| {
            unit.segments
                .iter()
                .filter(|(seg, _)| !seg.is_subset_of(plan))
                .take(EVAL_CAP)
        })
    };

    let mut best: Option<(TaskSet, f64)> = None; // (addition, density)
    for (seg, _w) in unplanned() {
        let addition = seg.difference(plan);
        if addition.len() > remaining {
            continue;
        }
        let lone_score = score(&plan.union(&addition));
        let (group, gain) = if lone_score - base_score > EPS {
            // The lone segment already completes an MC-tree.
            (addition, lone_score - base_score)
        } else {
            // Pull in connected upstream segments (possibly several from
            // one unit — a join has one branch per cut edge) until the
            // tree completes.
            let plan = Scored {
                tasks: plan,
                score: base_score,
            };
            let seed = Scored {
                tasks: &addition,
                score: lone_score,
            };
            match complete_group(graph, units, plan, seed, remaining, score) {
                Some((group, group_score)) => (group, group_score - base_score),
                None => continue,
            }
        };
        if gain <= EPS || group.is_empty() {
            continue;
        }
        let density = gain / group.len() as f64;
        let better = match &best {
            None => true,
            Some((cur, d)) => density > *d + EPS || (density > *d - EPS && group < *cur),
        };
        if better {
            best = Some((group, density));
        }
    }
    if let Some((group, _)) = best {
        return Some(group);
    }

    // Blind proposal: the heaviest affordable unplanned segment, even at
    // zero local gain.
    let mut blind: Option<(TaskSet, f64)> = None;
    for (seg, w) in unplanned() {
        let addition = seg.difference(plan);
        if addition.len() <= remaining && blind.as_ref().is_none_or(|(_, bw)| *w > *bw) {
            blind = Some((addition, *w));
        }
    }
    blind.map(|(addition, _)| addition)
}

/// A task set and the score that goes with it.
#[derive(Clone, Copy)]
struct Scored<'s> {
    tasks: &'s TaskSet,
    score: f64,
}

/// Grows `seed` into a (hopefully) complete MC-tree by repeatedly attaching
/// the best-scoring connected segment whose tasks lie in the upstream cone
/// of the seed — the generalization of Algorithm 3's unit BFS (lines 10–15)
/// that also handles joins needing several segments from one unit (one per
/// cut input branch). `plan` comes with its score, `seed` with the score
/// of `plan ∪ seed`; the group is returned with the score of `plan ∪
/// group`.
fn complete_group(
    graph: &TaskGraph,
    units: &UnitGraph,
    plan: Scored<'_>,
    seed: Scored<'_>,
    remaining: usize,
    score: &mut dyn FnMut(&TaskSet) -> f64,
) -> Option<(TaskSet, f64)> {
    let mut group = seed.tasks.clone();
    if group.len() > remaining {
        return None;
    }
    let (base, mut current_score) = (plan.score, seed.score);
    let plan = plan.tasks;

    // Completion scope: everything that can feed the outputs this seed
    // contributes to — the upstream closure of the seed's downstream
    // closure. This covers sibling join branches (a join needs *every*
    // input stream, and the missing branches are not upstream of the seed
    // itself) while excluding unrelated sinks.
    let cone = graph.upstream_closure(&graph.downstream_closure(seed.tasks));

    // Each attached segment's trial score is the next round's score of
    // `plan ∪ group`.
    loop {
        let current = plan.union(&group);
        if current_score > base + EPS {
            return Some((group, current_score)); // the tree completed
        }
        // Best attachable segment across every unit.
        let mut best: Option<(TaskSet, f64)> = None;
        for unit in &units.units {
            for (seg, _) in unit
                .segments
                .iter()
                .filter(|(seg, _)| !seg.is_subset_of(&current))
                .take(EVAL_CAP)
            {
                let extra = seg.difference(&current);
                if group.len() + extra.len() > remaining || !extra.is_subset_of(&cone) {
                    continue;
                }
                if !sets_connected(graph, seg, &current) {
                    continue;
                }
                let trial_score = score(&current.union(&extra));
                let better = match &best {
                    None => true,
                    Some((cur, s)) => {
                        trial_score > *s + EPS || (trial_score > *s - EPS && extra < *cur)
                    }
                };
                if better {
                    best = Some((extra, trial_score));
                }
            }
        }
        match best {
            Some((extra, trial_score)) => {
                group.union_with(&extra);
                current_score = trial_score;
            }
            None => return Some((group, current_score)), // may be zero-gain; caller filters
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{
        OperatorId, OperatorSpec, Partitioning, TaskIndex, TaskWeights, TopologyBuilder,
    };
    use crate::planner::{PlanContext, Planner, StructureAwarePlanner};

    /// src(4) -(merge)-> mid(2) -(split)-> out(4): the merge edge is cut, so
    /// there are two units and complete MC-trees need segments from both.
    /// The source tasks carry `weights`.
    fn two_unit_context_with(weights: TaskWeights) -> (PlanContext, UnitGraph) {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 4, 10.0).with_weights(weights));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        let o = b.add_operator(OperatorSpec::map("o", 4, 1.0));
        b.connect(s, m, Partitioning::Merge).unwrap();
        b.connect(m, o, Partitioning::Split).unwrap();
        let cx = PlanContext::new(&b.build().unwrap()).unwrap();
        let ops = vec![OperatorId(0), OperatorId(1), OperatorId(2)];
        let ug = UnitGraph::build_with(cx.graph(), cx.rates(), &ops, 128, false);
        (cx, ug)
    }

    fn two_unit_context() -> (PlanContext, UnitGraph) {
        two_unit_context_with(TaskWeights::Uniform)
    }

    /// One proposal for `plan` under the global objective.
    fn propose(
        cx: &PlanContext,
        ug: &UnitGraph,
        plan: &TaskSet,
        remaining: usize,
    ) -> Option<TaskSet> {
        let add = propose_structured(cx.graph(), ug, plan, remaining, &mut |p| cx.score_plan(p))?;
        assert!(!add.is_empty() && add.len() <= remaining, "{add:?}");
        assert_eq!(add.difference(plan), add, "proposes only unplanned tasks");
        Some(add)
    }

    /// Applies proposals to `plan` until none fits in `budget`.
    fn fill(cx: &PlanContext, ug: &UnitGraph, plan: &mut TaskSet, budget: usize) {
        while let Some(add) = propose(cx, ug, plan, budget - plan.len()) {
            plan.union_with(&add);
        }
    }

    #[test]
    fn assembles_cross_unit_mc_trees() {
        let (cx, ug) = two_unit_context();
        let mut plan = TaskSet::empty(cx.n_tasks());
        fill(&cx, &ug, &mut plan, 3);
        assert!(
            cx.score_plan(&plan) > 0.0,
            "a complete MC-tree was formed: {plan:?}"
        );
        assert!(plan.len() <= 3);
    }

    #[test]
    fn respects_budget() {
        let (cx, ug) = two_unit_context();
        let mut plan = TaskSet::empty(cx.n_tasks());
        fill(&cx, &ug, &mut plan, 2);
        assert!(plan.len() <= 2);
        // Minimum complete tree is 3 tasks, so nothing useful fits in 2:
        // the proposals are blind, and SA, which applies only proposals
        // that raise the global score, wastes none of the budget.
        assert_eq!(cx.score_plan(&plan), 0.0);
        let sa = StructureAwarePlanner.plan(&cx, 2).unwrap();
        assert!(sa.tasks.is_empty(), "{:?}", sa.tasks);
    }

    #[test]
    fn one_proposal_is_one_increment() {
        let (cx, ug) = two_unit_context();
        let empty = TaskSet::empty(cx.n_tasks());
        let one = propose(&cx, &ug, &empty, usize::MAX).unwrap();
        assert_eq!(one.len(), 3, "one source -> mid -> out tree: {one:?}");
        assert!(cx.score_plan(&one) > 0.0);
        let mut filled = TaskSet::empty(cx.n_tasks());
        fill(&cx, &ug, &mut filled, 10);
        assert!(filled.len() > one.len(), "more proposals cover more");
    }

    #[test]
    fn fills_budget_toward_full_fidelity() {
        let (cx, ug) = two_unit_context();
        let n = cx.n_tasks();
        let mut plan = TaskSet::empty(n);
        fill(&cx, &ug, &mut plan, n);
        assert!(
            (cx.score_plan(&plan) - 1.0).abs() < 1e-9,
            "with budget = all tasks the plan reaches OF 1, got {}",
            cx.score_plan(&plan)
        );
    }

    #[test]
    fn single_segment_completion_is_preferred() {
        let (cx, ug) = two_unit_context();
        let n = cx.n_tasks();
        // Seed the plan with a full tree minus one source; the single
        // missing source segment should be proposed as a lone candidate.
        let mut plan = TaskSet::empty(n);
        fill(&cx, &ug, &mut plan, 3);
        let full_tree_score = cx.score_plan(&plan);
        // Remove one source task from the plan.
        let source = plan.iter().find(|&t| cx.graph().is_source_task(t)).unwrap();
        plan.remove(source);
        assert_eq!(cx.score_plan(&plan), 0.0);
        let add = propose(&cx, &ug, &plan, 1).unwrap();
        assert_eq!(add, TaskSet::from_tasks(n, [source]));
        plan.union_with(&add);
        assert!((cx.score_plan(&plan) - full_tree_score).abs() < 1e-9);
    }

    #[test]
    fn gainless_candidates_propose_the_heaviest_affordable_segment() {
        // Source t2 carries the most rate. One task completes no MC-tree,
        // so no candidate gains, and the only affordable segments are the
        // lone sources: the blind proposal is the heaviest of them.
        let weights = TaskWeights::Explicit(vec![1.0, 2.0, 8.0, 4.0]);
        let (cx, ug) = two_unit_context_with(weights);
        let n = cx.n_tasks();
        let add = propose(&cx, &ug, &TaskSet::empty(n), 1);
        assert_eq!(add, Some(TaskSet::from_tasks(n, [TaskIndex(2)])));
        assert_eq!(cx.score_plan(&add.unwrap()), 0.0);
    }
}
