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
//! A candidate's non-replicated counts never change, so they are counted
//! once, when the DP reaches the candidate's own size: they fix every
//! union it will be expanded into (a tree counting `d` makes one of
//! `|CP| + d` tasks) and the usage at which it retires. The planner thus
//! visits the sizes in order and, per size, sorts and deduplicates the
//! unions written for it (many candidate × tree pairs reach the same
//! union), scans each distinct one once and writes its unions into the
//! buckets of larger sizes. Every task set is a row of `n.div_ceil(64)`
//! bit words in a flat buffer: the MC-trees, each size's unions and each
//! usage's retirements. Slice order on rows is `TaskSet`'s order, so the
//! arg-max ([`Plan::offer`]) visits candidates exactly as a sorted
//! working set would: the ones still live after the last usage in sorted
//! order, then the retired ones by usage of retirement, each usage's in
//! sorted order. It scores them through one reused [`TaskSet`] and one
//! [`Scorer`].
//!
//! The working set is worst-case exponential in the number of MC-trees
//! (`O(2^T)`, §IV-A), so the planner carries an explicit candidate cap and
//! reports [`CoreError::DpExplosion`] when more live candidates than that
//! remain after a usage.

use super::{Plan, PlanContext, Planner, Scorer};
use crate::error::{CoreError, Result};
use crate::model::TaskSet;

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

        let w = n.div_ceil(64);
        let trees: Vec<u64> = trees.iter().flat_map(TaskSet::words).copied().collect();
        // `created[s]`: the unions of `s` tasks, starting from the empty
        // plan; `retiring[u]`: the candidates that retire at usage `u`;
        // `kept`: those still live after usage `budget`.
        let mut created: Vec<Vec<u64>> = vec![Vec::new(); budget + 1];
        created[0] = vec![0; w];
        let mut retiring: Vec<Vec<u64>> = vec![Vec::new(); budget + 1];
        let mut kept: Vec<u64> = Vec::new();
        let mut spare: Vec<u64> = Vec::new();
        let mut live = 0;

        for size in 0..=budget {
            let mut level = std::mem::take(&mut created[size]);
            sort_dedup(&mut level, w, &mut spare);
            // The working set after usage `size`: every candidate created
            // so far, less the retired ones (all of fewer tasks, so all
            // already scanned).
            live = live + level.len() / w - retiring[size].len() / w;
            if live > self.max_candidates {
                return Err(CoreError::DpExplosion {
                    limit: self.max_candidates,
                });
            }
            for cp in level.chunks_exact(w) {
                let mut max_nonrep = 0;
                for tree in trees.chunks_exact(w) {
                    let nonrep = count_difference(tree, cp);
                    max_nonrep = max_nonrep.max(nonrep);
                    if nonrep > 0 && size + nonrep <= budget {
                        created[size + nonrep].extend(tree.iter().zip(cp).map(|(t, c)| t | c));
                    }
                }
                // At usage `u` the candidate is expanded by the trees
                // counting `u − size`; once that exceeds every count (all
                // 0 once every tree is in the plan) it retires.
                let retires = size + max_nonrep + 1;
                if retires <= budget {
                    retiring[retires].extend_from_slice(cp);
                } else {
                    kept.extend_from_slice(cp);
                }
            }
        }
        sort_dedup(&mut kept, w, &mut spare);
        for rows in &mut retiring {
            sort_dedup(rows, w, &mut spare);
        }

        // Consecutive rows in this order share most of their tasks, so
        // each score recomputes only what its row changed.
        let mut scorer = Scorer::new(cx);
        let mut best = scorer.make_plan(TaskSet::empty(n));
        let mut row = TaskSet::empty(n);
        let retired = retiring.iter().flat_map(|rows| rows.chunks_exact(w));
        for cp in kept.chunks_exact(w).chain(retired) {
            row.words_mut().copy_from_slice(cp);
            best.offer(&row, scorer.score_plan(&row));
        }
        Ok(best)
    }
}

/// `|tree \ cp|`: the tree's tasks the candidate does not replicate.
fn count_difference(tree: &[u64], cp: &[u64]) -> usize {
    tree.iter()
        .zip(cp)
        .map(|(t, c)| (t & !c).count_ones() as usize)
        .sum()
}

/// Sorts rows of `w` words into ascending slice order and drops
/// duplicates: a least-significant-digit radix sort, one byte at a time
/// from the last word's low byte to the first word's high byte, skipping
/// a byte every row shares. `spare` is scratch room.
fn sort_dedup(rows: &mut Vec<u64>, w: usize, spare: &mut Vec<u64>) {
    let n = rows.len() / w;
    spare.resize(rows.len(), 0);
    for word in (0..w).rev() {
        let mut counts = [[0usize; 256]; 8];
        for row in rows.chunks_exact(w) {
            for (byte, count) in counts.iter_mut().enumerate() {
                count[(row[word] >> (8 * byte)) as usize & 0xff] += 1;
            }
        }
        for (byte, count) in counts.iter_mut().enumerate() {
            if count.contains(&n) {
                continue;
            }
            // Counts become each byte value's first destination.
            let mut at = 0;
            for c in count.iter_mut() {
                (*c, at) = (at, at + *c * w);
            }
            for row in rows.chunks_exact(w) {
                let to = &mut count[(row[word] >> (8 * byte)) as usize & 0xff];
                spare[*to..*to + w].copy_from_slice(row);
                *to += w;
            }
            std::mem::swap(rows, spare);
        }
    }
    let mut distinct = 0;
    for i in 0..n {
        if distinct == 0 || rows[(distinct - 1) * w..distinct * w] != rows[i * w..(i + 1) * w] {
            rows.copy_within(i * w..(i + 1) * w, distinct * w);
            distinct += 1;
        }
    }
    rows.truncate(distinct * w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{OperatorSpec, Partitioning, TaskWeights, Topology, TopologyBuilder};
    use crate::planner::BruteForcePlanner;
    use crate::random::RandomTopologySpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Algorithm 1 as the planner ran it over `BTreeSet<TaskSet>`
    /// candidates, uncapped: the reference the flat-row planner must match
    /// plan for plan and bit for bit. Also returns the most live
    /// candidates any usage left.
    fn reference_plan(cx: &PlanContext, budget: usize) -> (Plan, usize) {
        let trees = cx.mc_trees().unwrap();
        let n = cx.n_tasks();
        if trees.is_empty() || budget == 0 {
            return (cx.make_plan(TaskSet::empty(n)), 0);
        }
        let mut sc: BTreeSet<TaskSet> = BTreeSet::new();
        sc.insert(TaskSet::empty(n));
        let mut retired: Vec<TaskSet> = Vec::new();
        let mut peak = 0;
        for usage in 1..=budget {
            let mut additions: BTreeSet<TaskSet> = BTreeSet::new();
            let mut removals: Vec<TaskSet> = Vec::new();
            for cp in &sc {
                let dif = usage - cp.len();
                let nonrep: Vec<usize> = trees.iter().map(|t| t.difference(cp).len()).collect();
                if dif > nonrep.iter().copied().max().unwrap_or(0) {
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
            sc.append(&mut additions);
            peak = peak.max(sc.len());
        }
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
                best_score = best_score.max(score);
            }
        }
        let plan = Plan {
            tasks: best,
            value: best_score,
        };
        (plan, peak)
    }

    /// The planner and [`reference_plan`] agree on `cx` at `budget`: the
    /// same tasks, the same value bits, and the same live candidates, so
    /// the planner plans under a cap of the reference's peak and explodes
    /// under one less.
    fn assert_matches_reference(cx: &PlanContext, budget: usize, what: &str) {
        let (want, peak) = reference_plan(cx, budget);
        let capped = |limit| {
            DpPlanner {
                max_candidates: limit,
            }
            .plan(cx, budget)
        };
        let got = capped(peak.max(1)).unwrap();
        assert_eq!(got.tasks, want.tasks, "{what}, budget {budget}: tasks");
        assert_eq!(
            got.value.to_bits(),
            want.value.to_bits(),
            "{what}, budget {budget}: value {} vs {}",
            got.value,
            want.value
        );
        if peak > 0 {
            assert_eq!(
                capped(peak - 1).err(),
                Some(CoreError::DpExplosion { limit: peak - 1 }),
                "{what}, budget {budget}: more than {} live candidates",
                peak - 1
            );
        }
    }

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
            assert_eq!(dp.tasks, bf.tasks, "budget {budget}");
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
            assert_eq!(dp.tasks, bf.tasks, "budget {budget}");
        }
    }

    #[test]
    fn dp_and_brute_force_return_the_same_plan_on_random_topologies() {
        // Equally optimal plans of one size are common here: draws 25, 27
        // and 36 have them, and brute force returned another one than the
        // DP until both took the same arg-max rule.
        let spec = RandomTopologySpec {
            parallelism: (1, 3),
            ..RandomTopologySpec::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        for draw in 0..40 {
            let cx = PlanContext::new(&spec.generate(&mut rng)).unwrap();
            if cx.mc_trees().map_or(true, |trees| trees.len() > 12) {
                continue;
            }
            for budget in 0..=cx.n_tasks() {
                let dp = DpPlanner::default().plan(&cx, budget).unwrap();
                let bf = BruteForcePlanner::default().plan(&cx, budget).unwrap();
                assert_eq!(dp.tasks, bf.tasks, "draw {draw}, budget {budget}");
                assert!(
                    (dp.value - bf.value).abs() < 1e-9,
                    "draw {draw}, budget {budget}"
                );
            }
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

    #[test]
    fn flat_rows_match_the_btreeset_reference_on_random_topologies() {
        let specs = [
            RandomTopologySpec {
                parallelism: (1, 4),
                ..RandomTopologySpec::default()
            },
            RandomTopologySpec {
                parallelism: (1, 4),
                join_fraction: 0.5,
                ..RandomTopologySpec::default()
            },
        ];
        let mut planned = 0;
        for (i, spec) in specs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(40 + i as u64);
            for draw in 0..24 {
                let cx = PlanContext::new(&spec.generate(&mut rng)).unwrap();
                // Keep to topologies the planner enumerates within limits
                // and the reference plans quickly in a debug build.
                if cx.mc_trees().map_or(true, |trees| trees.len() > 14) {
                    continue;
                }
                for ratio in [0.2, 0.4, 0.6, 0.8] {
                    let budget = (cx.n_tasks() as f64 * ratio).round() as usize;
                    assert_matches_reference(&cx, budget, &format!("spec {i}, draw {draw}"));
                    planned += 1;
                }
            }
        }
        assert!(planned >= 40, "only {planned} plans compared");
    }

    #[test]
    fn flat_rows_match_the_btreeset_reference_two_words_wide() {
        // 66 sources → 3 mids → 1 sink: 70 tasks, so every row spans two
        // words. The trees through sources 64 and 65 have an empty first
        // word, so rows that differ only in the second word are sorted and
        // merged too.
        let mut rng = StdRng::seed_from_u64(7);
        let weights: Vec<f64> = (0..66).map(|_| rng.gen_range(0.5..2.0)).collect();
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(
            OperatorSpec::source("s", 66, 100.0).with_weights(TaskWeights::Explicit(weights)),
        );
        let m = b.add_operator(OperatorSpec::map("m", 3, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 1, 1.0));
        b.connect(s, m, Partitioning::Merge).unwrap();
        b.connect(m, k, Partitioning::Merge).unwrap();
        let cx = PlanContext::new(&b.build().unwrap()).unwrap();
        assert_eq!(cx.n_tasks().div_ceil(64), 2);
        for budget in 0..=6 {
            assert_matches_reference(&cx, budget, "70 tasks");
        }
    }
}
