//! Algorithm 4: one increment for a *full* sub-topology.
//!
//! In a full topology every task feeds every downstream task, so any
//! one-task-per-operator selection is a complete MC-tree. Within each
//! operator, tasks are ranked by `δ`: the objective increase from keeping
//! that task alive while all its operator siblings are failed (and all
//! other operators healthy). [`propose_full`]'s first increment is the best
//! task of every operator (one complete MC-tree); each later one is the
//! single task whose addition maximizes the objective.

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

/// The next increment of the full sub-topology `ops`: tasks to add to
/// `plan`, none already in it, at most `remaining` of them.
///
/// * `deltas` are `ops`' [`operator_deltas`];
/// * `score` evaluates candidate plans.
///
/// Mirroring the paper's lines 4–16: while `plan` holds nothing of this
/// sub-topology the increment is the best task of every operator, and
/// `None` if `remaining` cannot seat one per operator (no complete
/// MC-tree fits, line 9); after that it is the next-ranked task of the
/// operator whose addition scores best.
pub(crate) fn propose_full(
    graph: &TaskGraph,
    ops: &[OperatorId],
    deltas: &[Vec<(TaskIndex, f64)>],
    plan: &TaskSet,
    remaining: usize,
    score: &mut dyn FnMut(&TaskSet) -> f64,
) -> Option<TaskSet> {
    let n = graph.n_tasks();
    let seeded = ops
        .iter()
        .flat_map(|&op| graph.op_tasks(op))
        .any(|t| plan.contains(t));
    if !seeded {
        return (ops.len() <= remaining)
            .then(|| TaskSet::from_tasks(n, deltas.iter().map(|ranked| ranked[0].0)));
    }
    if remaining == 0 {
        return None;
    }
    let mut best: Option<(TaskIndex, f64, f64)> = None; // (task, plan score, delta)
    let mut trial = plan.clone();
    for ranked in deltas {
        let next = ranked.iter().find(|(t, _)| !plan.contains(*t));
        if let Some(&(t, d)) = next {
            trial.insert(t);
            let s = score(&trial);
            trial.remove(t);
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
    best.map(|(t, _, _)| TaskSet::from_tasks(n, [t]))
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

    /// One [`propose_full`] increment over every operator of `cx`,
    /// scoring plans globally.
    fn propose(cx: &PlanContext, plan: &TaskSet, remaining: usize) -> Option<TaskSet> {
        let deltas = operator_deltas(cx.graph(), &ops(), &mut |f| cx.score_failed(f));
        let add = propose_full(cx.graph(), &ops(), &deltas, plan, remaining, &mut |p| {
            cx.score_plan(p)
        })?;
        assert!(!add.is_empty() && add.len() <= remaining, "{add:?}");
        assert_eq!(add.difference(plan), add, "proposes only unplanned tasks");
        Some(add)
    }

    /// Applies proposals to `plan` until none fits in `budget`.
    fn fill(cx: &PlanContext, plan: &mut TaskSet, budget: usize) {
        while let Some(add) = propose(cx, plan, budget - plan.len()) {
            plan.union_with(&add);
        }
    }

    #[test]
    fn seeds_one_task_per_operator() {
        let cx = full_context(true);
        let seed = propose(&cx, &TaskSet::empty(cx.n_tasks()), 3).unwrap();
        assert_eq!(seed.len(), 3);
        assert!(
            cx.score_plan(&seed) > 0.0,
            "one task per op forms a complete tree"
        );
        // The heaviest source must be part of the seed.
        assert!(seed.contains(TaskIndex(0)));
    }

    #[test]
    fn refuses_budgets_below_one_per_operator() {
        let cx = full_context(false);
        assert_eq!(propose(&cx, &TaskSet::empty(cx.n_tasks()), 2), None);
    }

    #[test]
    fn fills_the_budget_monotonically() {
        let cx = full_context(true);
        let mut prev = 0.0;
        for budget in 3..=7 {
            let mut plan = TaskSet::empty(cx.n_tasks());
            fill(&cx, &mut plan, budget);
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
        fill(&cx, &mut plan, n);
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
    fn one_proposal_is_one_increment() {
        let cx = full_context(false);
        let plan = propose(&cx, &TaskSet::empty(cx.n_tasks()), 3).unwrap();
        // After the seed, one proposal is one task.
        let add = propose(&cx, &plan, 4).unwrap();
        assert_eq!(add.len(), 1, "{add:?}");
    }
}
