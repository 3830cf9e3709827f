//! Algorithm 1: the exact bottom-up dynamic program over MC-tree unions.
//!
//! Candidate plans are unions of MC-trees. Resource usage grows one unit at
//! a time; at usage `u`, every candidate plan `CP` is expanded with each
//! MC-tree whose non-replicated task count equals `u − |CP|`, so a plan's
//! size always equals the usage at which it was created. A plan is retired
//! from the working set once no remaining tree can ever match the growing
//! difference (paper lines 7 and 12); retired plans stay eligible for the
//! final arg-max, which (together with the tie-break on fewer resources)
//! realizes Theorem 1.
//!
//! The working set is worst-case exponential in the number of MC-trees
//! (`O(2^T)`, §IV-A), so the planner carries an explicit candidate cap and
//! reports [`CoreError::DpExplosion`] beyond it.

use super::{Plan, PlanContext, Planner};
use crate::error::{CoreError, Result};
use crate::model::TaskSet;
use std::collections::BTreeSet;

/// Exact planner (Algorithm 1). Use only on topologies whose MC-tree count
/// is modest; otherwise it returns an explosion error and the caller should
/// fall back to [`super::StructureAwarePlanner`].
#[derive(Debug, Clone, Copy)]
pub struct DpPlanner {
    /// Maximum number of simultaneously tracked candidate plans.
    pub(crate) max_candidates: usize,
}

impl Default for DpPlanner {
    fn default() -> Self {
        DpPlanner {
            max_candidates: 2_000_000,
        }
    }
}

impl Planner for DpPlanner {
    fn name(&self) -> &'static str {
        "DP"
    }

    fn plan(&self, cx: &PlanContext, budget: usize) -> Result<Plan> {
        let trees = cx.mc_trees()?;
        let n = cx.n_tasks();
        if trees.is_empty() || budget == 0 {
            return Ok(cx.make_plan(TaskSet::empty(n)));
        }

        // SC: live candidate plans; retired: plans with no expansions left.
        // A BTreeSet so candidate iteration order is fixed by construction
        // (the arg-max below is additionally total-order tie-broken, but
        // the planner should not need that second line of defence).
        let mut sc: BTreeSet<TaskSet> = BTreeSet::new();
        sc.insert(TaskSet::empty(n));
        let mut retired: Vec<TaskSet> = Vec::new();
        // Each tree's non-replicated task count against the candidate at
        // hand, reused across candidates.
        let mut nonrep: Vec<usize> = Vec::with_capacity(trees.len());

        for usage in 1..=budget {
            // A set: different candidates expanded by different trees often
            // reach the same union.
            let mut additions: BTreeSet<TaskSet> = BTreeSet::new();
            let mut removals: Vec<TaskSet> = Vec::new();

            for cp in &sc {
                let dif = usage - cp.len();
                nonrep.clear();
                nonrep.extend(trees.iter().map(|tree| tree.count_difference(cp)));
                // `dif` is at least 1 and only grows, so a plan whose `dif`
                // exceeds every tree's count (all 0 once every tree is in
                // the plan) can never be expanded again: it retires.
                let max_nonrep = nonrep.iter().copied().max().unwrap_or(0);
                if dif > max_nonrep {
                    removals.push(cp.clone());
                } else {
                    for (tree, &count) in trees.iter().zip(&nonrep) {
                        if count == dif {
                            additions.insert(cp.union(tree));
                        }
                    }
                }
            }

            for cp in removals {
                sc.remove(&cp);
                retired.push(cp);
            }
            // Every addition has `usage` tasks and every survivor fewer, so
            // none is already in `sc`.
            sc.append(&mut additions);
            if sc.len() > self.max_candidates {
                return Err(CoreError::DpExplosion {
                    limit: self.max_candidates,
                });
            }
        }

        // Arg-max over live and retired candidates; prefer fewer resources on
        // ties (Theorem 1), then the lexicographically smallest set, so the
        // winner never depends on candidate iteration order and identical
        // runs always return the same (equally optimal) plan.
        let mut best = TaskSet::empty(n);
        let mut best_score = cx.score_plan(&best);
        for cp in sc.iter().chain(retired.iter()) {
            let score = cx.score_plan(cp);
            let tied = score > best_score - 1e-12;
            if score > best_score + 1e-12
                || (tied && cp.len() < best.len())
                || (tied && cp.len() == best.len() && *cp < best)
            {
                best = cp.clone();
                // Keep the running *maximum* on tie wins — adopting the
                // tied (possibly epsilon-lower) score would let the tie
                // threshold drift downward and re-introduce iteration-order
                // dependence across near-tie chains.
                best_score = best_score.max(score);
            }
        }
        Ok(Plan {
            tasks: best,
            value: best_score,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{OperatorSpec, Partitioning, TaskWeights, Topology, TopologyBuilder};
    use crate::planner::BruteForcePlanner;

    fn merge_tree(weights: Option<Vec<f64>>) -> Topology {
        let mut b = TopologyBuilder::new();
        let mut src = OperatorSpec::source("s", 4, 100.0);
        if let Some(w) = weights {
            src = src.with_weights(TaskWeights::Explicit(w));
        }
        let s = b.add_operator(src);
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 1, 1.0));
        b.connect(s, m, Partitioning::Merge).unwrap();
        b.connect(m, k, Partitioning::Merge).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dp_replicates_the_heaviest_tree_first() {
        // Sources with very skewed rates: the optimal 3-task plan is the
        // tree through the heaviest source.
        let t = merge_tree(Some(vec![10.0, 1.0, 1.0, 1.0]));
        let cx = PlanContext::new(&t).unwrap();
        let plan = DpPlanner::default().plan(&cx, 3).unwrap();
        assert_eq!(plan.resources(), 3);
        assert!(
            plan.tasks.contains(crate::model::TaskIndex(0)),
            "heaviest source chosen"
        );
        assert!(plan.value > 0.0);
    }

    #[test]
    fn dp_matches_brute_force_across_budgets() {
        let t = merge_tree(Some(vec![5.0, 4.0, 2.0, 1.0]));
        let cx = PlanContext::new(&t).unwrap();
        for budget in 0..=7 {
            let dp = DpPlanner::default().plan(&cx, budget).unwrap();
            let bf = BruteForcePlanner::default().plan(&cx, budget).unwrap();
            assert!(
                (dp.value - bf.value).abs() < 1e-9,
                "budget {budget}: dp {} vs brute force {}",
                dp.value,
                bf.value
            );
            assert!(dp.resources() <= budget);
        }
    }

    #[test]
    fn dp_matches_brute_force_on_a_join_topology() {
        let mut b = TopologyBuilder::new();
        let s1 = b.add_operator(
            OperatorSpec::source("s1", 2, 10.0).with_weights(TaskWeights::Explicit(vec![3.0, 1.0])),
        );
        let s2 = b.add_operator(
            OperatorSpec::source("s2", 2, 10.0).with_weights(TaskWeights::Explicit(vec![1.0, 2.0])),
        );
        let j = b.add_operator(OperatorSpec::join("j", 2, 0.5));
        let k = b.add_operator(OperatorSpec::map("k", 1, 1.0));
        b.connect(s1, j, Partitioning::Full).unwrap();
        b.connect(s2, j, Partitioning::Full).unwrap();
        b.connect(j, k, Partitioning::Merge).unwrap();
        let cx = PlanContext::new(&b.build().unwrap()).unwrap();
        for budget in 0..=7 {
            let dp = DpPlanner::default().plan(&cx, budget).unwrap();
            let bf = BruteForcePlanner::default().plan(&cx, budget).unwrap();
            assert!(
                (dp.value - bf.value).abs() < 1e-9,
                "budget {budget}: dp {} vs bf {}",
                dp.value,
                bf.value
            );
        }
    }

    #[test]
    fn dp_uses_no_more_than_budget() {
        let t = merge_tree(None);
        let cx = PlanContext::new(&t).unwrap();
        for budget in 0..=7 {
            let plan = DpPlanner::default().plan(&cx, budget).unwrap();
            assert!(plan.resources() <= budget);
        }
    }

    #[test]
    fn dp_full_budget_replicates_everything_useful() {
        let t = merge_tree(None);
        let cx = PlanContext::new(&t).unwrap();
        let plan = DpPlanner::default().plan(&cx, 7).unwrap();
        assert!(
            (plan.value - 1.0).abs() < 1e-9,
            "full budget must reach OF = 1"
        );
        assert_eq!(plan.resources(), 7);
    }

    #[test]
    fn dp_explosion_guard() {
        let t = merge_tree(None);
        let cx = PlanContext::new(&t).unwrap();
        let planner = DpPlanner { max_candidates: 1 };
        assert!(matches!(
            planner.plan(&cx, 7),
            Err(CoreError::DpExplosion { limit: 1 })
        ));
    }

    #[test]
    fn theorem1_tie_break_prefers_fewer_resources() {
        // Uniform rates. With budget 4 the optimum is one tree plus the
        // sibling source sharing the same mid (covering two trees, OF 0.5).
        // With budget 5 no fifth task helps (the next tree needs two more
        // tasks), so Theorem 1's tie-break must return the 4-task plan.
        let t = merge_tree(None);
        let cx = PlanContext::new(&t).unwrap();
        let plan4 = DpPlanner::default().plan(&cx, 4).unwrap();
        assert_eq!(plan4.resources(), 4);
        assert!((plan4.value - 0.5).abs() < 1e-9);
        let plan5 = DpPlanner::default().plan(&cx, 5).unwrap();
        assert_eq!(plan5.resources(), 4, "no wasted fifth task");
        assert!((plan5.value - 0.5).abs() < 1e-9);
    }
}
