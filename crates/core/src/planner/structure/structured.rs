//! Algorithm 3: planning one *structured* sub-topology.
//!
//! The plan is grown one candidate group at a time. A candidate is either a
//! single segment (if replicating it alone already raises the objective —
//! i.e. it completes an MC-tree with already-replicated segments), or a
//! chain of connected segments gathered by a BFS across neighbouring units
//! (so that the group forms a complete MC-tree by itself). Among all
//! candidates the one with the highest *profit density*
//! `(score(P ∪ CG) − score(P)) / |CG \ P|` is applied.

use super::units::{sets_connected, UnitGraph};
use crate::model::{TaskGraph, TaskSet};

const EPS: f64 = 1e-9;

/// Expands `plan` with segments of the sub-topology described by `units`.
///
/// * `budget` caps the total number of tasks in `plan` after expansion;
/// * `max_steps` caps how many candidate groups are applied (use 1 for
///   Algorithm 5's incremental proposals, `usize::MAX` to fill the budget);
/// * `score` evaluates a candidate plan (callers pass a sub-topology-local
///   objective, see [`super::StructureAwarePlanner`]);
/// * `eval_cap` bounds how many segments per unit are tried as group seeds;
/// * `allow_blind` permits proposing the heaviest unplanned segment even
///   when no candidate raises the score — needed when completing a join
///   whose input streams live in *different* sub-topologies: neither sub
///   gains alone, so Algorithm 5's cross-sub completion must be handed a
///   zero-gain seed to build on (it discards the proposal if the combined
///   global gain stays zero).
///
/// Returns `true` if at least one group was applied.
#[expect(clippy::too_many_arguments, reason = "Algorithm 5's inputs")]
pub(crate) fn plan_structured(
    graph: &TaskGraph,
    units: &UnitGraph,
    plan: &mut TaskSet,
    budget: usize,
    max_steps: usize,
    eval_cap: usize,
    score: &mut dyn FnMut(&TaskSet) -> f64,
    allow_blind: bool,
) -> bool {
    let mut applied = false;
    let mut steps = 0;
    while steps < max_steps {
        let remaining = budget.saturating_sub(plan.len());
        if remaining == 0 {
            break;
        }
        let base_score = score(plan);

        // Collect candidate groups.
        let mut best: Option<(TaskSet, f64)> = None; // (addition, density)
        for unit in &units.units {
            for (seg, _w) in unit
                .segments
                .iter()
                .filter(|(seg, _)| !seg.is_subset_of(plan))
                .take(eval_cap)
            {
                let addition = seg.difference(plan);
                if addition.len() > remaining {
                    continue;
                }
                let lone_score = score(&plan.union(&addition));
                let (group, gain) = if lone_score - base_score > EPS {
                    // The lone segment already completes an MC-tree.
                    (addition, lone_score - base_score)
                } else {
                    // Pull in connected upstream segments (possibly several
                    // from one unit — a join has one branch per cut edge)
                    // until the tree completes.
                    let plan = Scored {
                        tasks: plan,
                        score: base_score,
                    };
                    let seed = Scored {
                        tasks: &addition,
                        score: lone_score,
                    };
                    match complete_group(graph, units, plan, seed, remaining, eval_cap, score) {
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
        }

        match best {
            Some((group, _)) => {
                plan.union_with(&group);
                applied = true;
                steps += 1;
            }
            None if allow_blind => {
                // Blind proposal: the heaviest affordable unplanned segment
                // (with its BFS completion), even at zero local gain.
                let mut blind: Option<(TaskSet, f64)> = None;
                for unit in &units.units {
                    for (seg, w) in unit
                        .segments
                        .iter()
                        .filter(|(seg, _)| !seg.is_subset_of(plan))
                        .take(eval_cap)
                    {
                        let addition = seg.difference(plan);
                        if addition.len() > remaining {
                            continue;
                        }
                        if blind.as_ref().is_none_or(|(_, bw)| *w > *bw) {
                            blind = Some((addition, *w));
                        }
                    }
                }
                match blind {
                    Some((addition, _)) => {
                        plan.union_with(&addition);
                        return true;
                    }
                    None => break,
                }
            }
            None => break,
        }
    }
    applied
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
    eval_cap: usize,
    score: &mut dyn FnMut(&TaskSet) -> f64,
) -> Option<(TaskSet, f64)> {
    let mut group = seed.tasks.clone();
    if group.len() > remaining {
        return None;
    }
    let (base, mut current_score) = (plan.score, seed.score);
    let (plan, seed) = (plan.tasks, seed.tasks);

    // Completion scope: everything that can feed the outputs this seed
    // contributes to — the upstream closure of the seed's downstream
    // closure. This covers sibling join branches (a join needs *every*
    // input stream, and the missing branches are not upstream of the seed
    // itself) while excluding unrelated sinks.
    let n = graph.n_tasks();
    let mut reach = TaskSet::empty(n);
    let mut stack: Vec<_> = seed.iter().collect();
    for t in seed.iter() {
        reach.insert(t);
    }
    while let Some(t) = stack.pop() {
        for d in graph.downstream_tasks(t) {
            if !reach.contains(d) {
                reach.insert(d);
                stack.push(d);
            }
        }
    }
    let mut cone = reach.clone();
    let mut stack: Vec<_> = cone.iter().collect();
    while let Some(t) = stack.pop() {
        for u in graph.upstream_tasks(t) {
            if !cone.contains(u) {
                cone.insert(u);
                stack.push(u);
            }
        }
    }

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
                .take(eval_cap)
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
    use crate::model::{OperatorId, OperatorSpec, Partitioning, TopologyBuilder};
    use crate::planner::PlanContext;

    /// src(4) -(merge)-> mid(2) -(split)-> out(4): the merge edge is cut, so
    /// there are two units and complete MC-trees need segments from both.
    fn two_unit_context() -> (PlanContext, UnitGraph) {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 4, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        let o = b.add_operator(OperatorSpec::map("o", 4, 1.0));
        b.connect(s, m, Partitioning::Merge).unwrap();
        b.connect(m, o, Partitioning::Split).unwrap();
        let cx = PlanContext::new(&b.build().unwrap()).unwrap();
        let ops = vec![OperatorId(0), OperatorId(1), OperatorId(2)];
        let ug = UnitGraph::build_with(cx.graph(), cx.rates(), &ops, 128, false);
        (cx, ug)
    }

    #[test]
    fn assembles_cross_unit_mc_trees() {
        let (cx, ug) = two_unit_context();
        let mut plan = TaskSet::empty(cx.n_tasks());
        let applied = plan_structured(
            cx.graph(),
            &ug,
            &mut plan,
            3,
            usize::MAX,
            64,
            &mut |p| cx.score_plan(p),
            false,
        );
        assert!(applied);
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
        plan_structured(
            cx.graph(),
            &ug,
            &mut plan,
            2,
            usize::MAX,
            64,
            &mut |p| cx.score_plan(p),
            false,
        );
        assert!(plan.len() <= 2);
        // Minimum complete tree is 3 tasks, so nothing useful fits in 2 and
        // the algorithm must not waste the budget on incomplete segments.
        assert_eq!(cx.score_plan(&plan), 0.0);
    }

    #[test]
    fn max_steps_limits_expansion() {
        let (cx, ug) = two_unit_context();
        let mut plan = TaskSet::empty(cx.n_tasks());
        let applied = plan_structured(
            cx.graph(),
            &ug,
            &mut plan,
            usize::MAX,
            1,
            64,
            &mut |p| cx.score_plan(p),
            false,
        );
        assert!(applied);
        let one_step = plan.len();
        let mut plan2 = TaskSet::empty(cx.n_tasks());
        plan_structured(
            cx.graph(),
            &ug,
            &mut plan2,
            10,
            usize::MAX,
            64,
            &mut |p| cx.score_plan(p),
            false,
        );
        assert!(
            plan2.len() >= one_step,
            "unbounded steps cover at least as much"
        );
    }

    #[test]
    fn fills_budget_toward_full_fidelity() {
        let (cx, ug) = two_unit_context();
        let n = cx.n_tasks();
        let mut plan = TaskSet::empty(n);
        plan_structured(
            cx.graph(),
            &ug,
            &mut plan,
            n,
            usize::MAX,
            64,
            &mut |p| cx.score_plan(p),
            false,
        );
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
        // missing source segment should be added as a lone candidate.
        let mut plan = TaskSet::empty(n);
        plan_structured(
            cx.graph(),
            &ug,
            &mut plan,
            3,
            usize::MAX,
            64,
            &mut |p| cx.score_plan(p),
            false,
        );
        let full_tree_score = cx.score_plan(&plan);
        // Remove one source task from the plan.
        let source = plan.iter().find(|&t| cx.graph().is_source_task(t)).unwrap();
        plan.remove(source);
        assert_eq!(cx.score_plan(&plan), 0.0);
        let applied = plan_structured(
            cx.graph(),
            &ug,
            &mut plan,
            3,
            usize::MAX,
            64,
            &mut |p| cx.score_plan(p),
            false,
        );
        assert!(applied);
        assert!((cx.score_plan(&plan) - full_tree_score).abs() < 1e-9);
    }
}
