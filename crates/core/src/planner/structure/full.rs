//! Algorithm 4: planning one *full* sub-topology.
//!
//! In a full topology every task feeds every downstream task, so any
//! one-task-per-operator selection is a complete MC-tree. Within each
//! operator, tasks are ranked by `δ`: the objective increase from keeping
//! that task alive while all its operator siblings are failed (and all
//! other operators healthy). The plan first takes the best task of every
//! operator (one complete MC-tree), then repeatedly adds the task whose
//! addition maximizes the objective.

use crate::model::{OperatorId, TaskGraph, TaskIndex, TaskSet};

/// Per-operator task rankings by `δ` (descending).
///
/// `δ_ij = score(fail all of O_i except t_ij) − score(fail all of O_i)`,
/// evaluated on the global graph with every other operator healthy, so the
/// rankings depend only on the graph and the objective.
pub(crate) fn operator_deltas(
    graph: &TaskGraph,
    ops: &[OperatorId],
    score_failed: &mut dyn FnMut(&TaskSet) -> f64,
) -> Vec<Vec<(TaskIndex, f64)>> {
    let n = graph.n_tasks();
    ops.iter()
        .map(|&op| {
            let all: TaskSet = TaskSet::from_tasks(n, graph.op_tasks(op));
            let base = score_failed(&all);
            let mut ranked: Vec<(TaskIndex, f64)> = graph
                .op_tasks(op)
                .map(|t| {
                    let mut failed = all.clone();
                    failed.remove(t);
                    (t, score_failed(&failed) - base)
                })
                .collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            ranked
        })
        .collect()
}

/// Expands `plan` within the full sub-topology `ops`.
///
/// * `deltas` are `ops`' [`operator_deltas`];
/// * `budget` caps `plan.len()` after expansion;
/// * `max_steps` caps the number of tasks added in the iterative phase
///   (the initial one-task-per-operator seeding counts as one step);
/// * `score` evaluates candidate plans.
///
/// Returns `true` if anything was added. Mirroring the paper's lines 4–9:
/// if the plan holds nothing of this sub-topology yet and the budget cannot
/// seat one task per operator, nothing is added (no complete MC-tree fits).
pub(crate) fn plan_full(
    graph: &TaskGraph,
    ops: &[OperatorId],
    deltas: &[Vec<(TaskIndex, f64)>],
    plan: &mut TaskSet,
    budget: usize,
    max_steps: usize,
    score: &mut dyn FnMut(&TaskSet) -> f64,
) -> bool {
    if max_steps == 0 {
        return false;
    }
    let n = graph.n_tasks();
    let sub_tasks: TaskSet = TaskSet::from_tasks(n, ops.iter().flat_map(|&op| graph.op_tasks(op)));

    let mut applied = false;
    let mut steps = 0usize;

    // Initial phase: one best task per operator (a complete MC-tree).
    if plan.intersection(&sub_tasks).is_empty() {
        if plan.len() + ops.len() > budget {
            return false; // N > R: no complete tree fits (paper line 9).
        }
        for ranked in deltas {
            let (best, _) = ranked[0];
            plan.insert(best);
        }
        applied = true;
        steps += 1;
    }

    // Iterative phase: add the next-best task of some operator, judged by
    // the resulting plan score (paper lines 10–16).
    while steps < max_steps && plan.len() < budget {
        let mut best: Option<(TaskIndex, f64, f64)> = None; // (task, plan score, delta)
        for ranked in deltas {
            let next = ranked.iter().find(|(t, _)| !plan.contains(*t));
            if let Some(&(t, d)) = next {
                let mut trial = plan.clone();
                trial.insert(t);
                let s = score(&trial);
                let better = match best {
                    None => true,
                    Some((bt, bs, bd)) => {
                        s > bs + 1e-12
                            || (s > bs - 1e-12 && d > bd + 1e-12)
                            || (s > bs - 1e-12 && (d - bd).abs() <= 1e-12 && t < bt)
                    }
                };
                if better {
                    best = Some((t, s, d));
                }
            }
        }
        match best {
            Some((t, _, _)) => {
                plan.insert(t);
                applied = true;
                steps += 1;
            }
            None => break,
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{OperatorSpec, Partitioning, TaskWeights, TopologyBuilder};
    use crate::planner::PlanContext;

    fn full_context(skewed: bool) -> PlanContext {
        let mut b = TopologyBuilder::new();
        let mut src = OperatorSpec::source("s", 3, 10.0);
        if skewed {
            src = src.with_weights(TaskWeights::Explicit(vec![7.0, 2.0, 1.0]));
        }
        let s = b.add_operator(src);
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 2, 1.0));
        b.connect(s, m, Partitioning::Full).unwrap();
        b.connect(m, k, Partitioning::Full).unwrap();
        PlanContext::new(&b.build().unwrap()).unwrap()
    }

    fn ops() -> Vec<OperatorId> {
        vec![OperatorId(0), OperatorId(1), OperatorId(2)]
    }

    /// `plan_full` over every operator of `cx`, scoring plans globally.
    fn expand(cx: &PlanContext, plan: &mut TaskSet, budget: usize, max_steps: usize) -> bool {
        let deltas = operator_deltas(cx.graph(), &ops(), &mut |f| cx.score_failed(f));
        plan_full(
            cx.graph(),
            &ops(),
            &deltas,
            plan,
            budget,
            max_steps,
            &mut |p| cx.score_plan(p),
        )
    }

    #[test]
    fn seeds_one_task_per_operator() {
        let cx = full_context(true);
        let mut plan = TaskSet::empty(cx.n_tasks());
        let applied = expand(&cx, &mut plan, 3, usize::MAX);
        assert!(applied);
        assert_eq!(plan.len(), 3);
        assert!(
            cx.score_plan(&plan) > 0.0,
            "one task per op forms a complete tree"
        );
        // The heaviest source must be part of the seed.
        assert!(plan.contains(TaskIndex(0)));
    }

    #[test]
    fn refuses_budgets_below_one_per_operator() {
        let cx = full_context(false);
        let mut plan = TaskSet::empty(cx.n_tasks());
        let applied = expand(&cx, &mut plan, 2, usize::MAX);
        assert!(!applied);
        assert!(plan.is_empty());
    }

    #[test]
    fn fills_the_budget_monotonically() {
        let cx = full_context(true);
        let mut prev = 0.0;
        for budget in 3..=7 {
            let mut plan = TaskSet::empty(cx.n_tasks());
            expand(&cx, &mut plan, budget, usize::MAX);
            let score = cx.score_plan(&plan);
            assert!(score >= prev - 1e-12, "budget {budget}: {score} < {prev}");
            assert!(plan.len() <= budget);
            prev = score;
        }
    }

    #[test]
    fn full_budget_reaches_of_one() {
        let cx = full_context(true);
        let n = cx.n_tasks();
        let mut plan = TaskSet::empty(n);
        expand(&cx, &mut plan, n, usize::MAX);
        assert!((cx.score_plan(&plan) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deltas_rank_heavier_tasks_first() {
        let cx = full_context(true);
        let deltas = operator_deltas(cx.graph(), &ops(), &mut |f| cx.score_failed(f));
        // Source deltas: task 0 carries 70% of the rate.
        assert_eq!(deltas[0][0].0, TaskIndex(0));
        assert!(deltas[0][0].1 > deltas[0][1].1);
    }

    #[test]
    fn max_steps_one_adds_one_increment() {
        let cx = full_context(false);
        let mut plan = TaskSet::empty(cx.n_tasks());
        // Seed first.
        expand(&cx, &mut plan, 3, usize::MAX);
        let seeded = plan.len();
        // One more step adds exactly one task.
        expand(&cx, &mut plan, 7, 1);
        assert_eq!(plan.len(), seeded + 1);
    }
}
