//! Algorithm 1: the exact planner over MC-tree unions, as a depth-first
//! branch-and-bound.
//!
//! Algorithm 1's candidate plans are the distinct unions of MC-trees that
//! fit the budget, the empty plan included: a usage level expands a
//! candidate by every tree that still fits, so every such union is
//! reached. Its arg-max ([`Plan::offer`], ties to fewer resources) is
//! Theorem 1. This planner reaches the same unions without the usage
//! levels, by a depth-first search over the trees in index order that
//! tries "include tree `j`" before "exclude tree `j`":
//!
//! * A tree already inside the union is in it: it is neither included nor
//!   excluded, so it opens no branch.
//! * Including a tree is refused when the union would exceed the budget,
//!   or would cover a tree excluded earlier on the path: the branch that
//!   included that tree makes this union.
//!
//! A path thus includes exactly the trees its union covers, so each union
//! is made, scored and offered once, when it is created.
//!
//! **Bound.** Before it tries to include tree `j`, the search scores the
//! union with trees `j..` all added, and tries no tree from `j` on when
//! that score is below `best.value − 1e-9`. OF and IC are monotone in the
//! plan: replicating more tasks fails fewer, and no task's loss grows when
//! an upstream loss falls. The minimum over failure sets is monotone too.
//! Every union the dropped branches would make, through tree `j` or any
//! later one, is a subset of the scored set, so it scores at most that,
//! up to rounding far below 1e-9. It is then below `best.value` by more
//! than [`Plan::offer`]'s 1e-12 tie margin, as every later `best.value` is
//! at least this one, so it could neither be adopted nor move the
//! threshold: the result is the unpruned search's. The bounds are scored
//! by a second [`Scorer`], so each kind of score keeps its own delta
//! anchors.
//!
//! The search is worst-case exponential in the number of MC-trees
//! (`O(2^T)`, §IV-A), so the planner caps the plans it scores, unions and
//! bounds, and reports [`CoreError::DpExplosion`] when it would score one
//! more. Each nested search adds a tree's tasks to its union, so the
//! recursion is no deeper than the budget.

use super::{Plan, PlanContext, Planner, Scorer};
use crate::error::{CoreError, Result};
use crate::model::TaskSet;

/// Exact planner (Algorithm 1). Use only on topologies whose MC-tree count
/// is modest; otherwise it returns an explosion error and the caller should
/// fall back to [`super::StructureAwarePlanner`].
#[derive(Debug, Clone, Copy)]
pub struct DpPlanner {
    /// Maximum number of plans the search scores.
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
        let mut search = Search::new(cx, cx.mc_trees()?, budget, self.max_candidates);
        search.visit(0)?;
        // `offer` keeps the running maximum, which a near-tied other
        // candidate may have set: report the chosen plan's own score.
        Ok(search.scorers[0].make_plan(search.best.tasks))
    }
}

/// The state of one search. Every task set is a row of `n.div_ceil(64)`
/// bit words.
struct Search<'c> {
    w: usize,
    budget: usize,
    limit: usize,
    /// Plans scored so far.
    nodes: usize,
    trees: Vec<u64>,
    /// Per tree, the OR of it and the trees after it.
    suffix: Vec<u64>,
    /// Each open search's union, the innermost on top.
    unions: Vec<u64>,
    /// The trees excluded on the current path.
    excluded: Vec<usize>,
    row: TaskSet,
    /// The unions' scorer and the bounds'.
    scorers: [Scorer<'c>; 2],
    best: Plan,
}

impl<'c> Search<'c> {
    fn new(cx: &'c PlanContext, trees: &[TaskSet], budget: usize, limit: usize) -> Self {
        let n = cx.n_tasks();
        let w = n.div_ceil(64);
        let trees: Vec<u64> = trees.iter().flat_map(TaskSet::words).copied().collect();
        let mut suffix = trees.clone();
        for i in (w..suffix.len()).rev() {
            suffix[i - w] |= suffix[i];
        }
        let mut unions = Vec::with_capacity((budget.min(n) + 1) * w);
        unions.resize(w, 0);
        Search {
            w,
            budget,
            limit,
            nodes: 0,
            excluded: Vec::with_capacity(trees.len() / w),
            trees,
            suffix,
            unions,
            row: TaskSet::empty(n),
            scorers: [Scorer::new(cx), Scorer::new(cx)],
            best: Plan {
                tasks: TaskSet::empty(n),
                value: f64::NEG_INFINITY,
            },
        }
    }

    /// Offers the union on top of `unions`, then searches the unions that
    /// add trees from `from` on to it.
    fn visit(&mut self, from: usize) -> Result<()> {
        let (w, excluded) = (self.w, self.excluded.len());
        let top = self.unions.len() - w;
        self.row.words_mut().copy_from_slice(&self.unions[top..]);
        let score = self.score(false)?;
        self.best.offer(&self.row, score);
        let len = self.row.len();
        for j in from..self.trees.len() / w {
            let adds = outside(&self.unions[top..], &self.trees[j * w..][..w]);
            if adds == 0 || len + adds > self.budget {
                continue;
            }
            let bound = self.unions[top..].iter().zip(&self.suffix[j * w..]);
            for (r, (u, s)) in self.row.words_mut().iter_mut().zip(bound) {
                *r = u | s;
            }
            // No union through tree `j` or a later one can reach `best`
            // (module doc).
            if self.score(true)? < self.best.value - 1e-9 {
                break;
            }
            self.unions.extend_from_within(top..top + w);
            for (u, t) in self.unions[top + w..].iter_mut().zip(&self.trees[j * w..]) {
                *u |= t;
            }
            let with = &self.unions[top + w..];
            let covered = |&e: &usize| outside(with, &self.trees[e * w..][..w]) == 0;
            if !self.excluded.iter().any(covered) {
                self.visit(j + 1)?;
            }
            self.unions.truncate(top + w);
            self.excluded.push(j);
        }
        self.excluded.truncate(excluded);
        Ok(())
    }

    /// Scores `row`, a union or a bound, as one more node of the search.
    fn score(&mut self, bound: bool) -> Result<f64> {
        if self.nodes == self.limit {
            return Err(CoreError::DpExplosion { limit: self.limit });
        }
        self.nodes += 1;
        Ok(self.scorers[usize::from(bound)].score_plan(&self.row))
    }
}

/// The tasks of the row `tree` outside the row `set`.
fn outside(set: &[u64], tree: &[u64]) -> usize {
    tree.iter()
        .zip(set)
        .map(|(t, s)| (t & !s).count_ones() as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{
        OperatorSpec, Partitioning, TaskIndex, TaskWeights, Topology, TopologyBuilder,
    };
    use crate::planner::{BruteForcePlanner, Objective};
    use crate::random::RandomTopologySpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Algorithm 1 as the planner once ran it, over `BTreeSet<TaskSet>`
    /// candidates by usage level, uncapped: the reference the search must
    /// match plan for plan and bit for bit.
    fn reference_plan(cx: &PlanContext, budget: usize) -> Plan {
        let trees = cx.mc_trees().unwrap();
        let n = cx.n_tasks();
        if trees.is_empty() || budget == 0 {
            return cx.make_plan(TaskSet::empty(n));
        }
        let mut sc: BTreeSet<TaskSet> = BTreeSet::new();
        sc.insert(TaskSet::empty(n));
        let mut retired: Vec<TaskSet> = Vec::new();
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
        cx.make_plan(best)
    }

    /// The plans the search scores on `cx` at `budget`, uncapped.
    fn nodes(cx: &PlanContext, budget: usize) -> usize {
        let mut search = Search::new(cx, cx.mc_trees().unwrap(), budget, usize::MAX);
        search.visit(0).unwrap();
        search.nodes
    }

    /// The planner and [`reference_plan`] agree on `cx` at `budget`: the
    /// same tasks and the same value bits. The planner plans under a cap
    /// of its own node count and explodes under one less.
    fn assert_matches_reference(cx: &PlanContext, budget: usize, what: &str) {
        let want = reference_plan(cx, budget);
        let nodes = nodes(cx, budget);
        let capped = |limit| {
            DpPlanner {
                max_candidates: limit,
            }
            .plan(cx, budget)
        };
        let got = capped(nodes).unwrap();
        assert_eq!(got.tasks, want.tasks, "{what}, budget {budget}: tasks");
        assert_eq!(
            got.value.to_bits(),
            want.value.to_bits(),
            "{what}, budget {budget}: value {} vs {}",
            got.value,
            want.value
        );
        assert_eq!(
            capped(nodes - 1).err(),
            Some(CoreError::DpExplosion { limit: nodes - 1 }),
            "{what}, budget {budget}: more than {} nodes",
            nodes - 1
        );
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
            let bf = BruteForcePlanner.plan(&cx, budget).unwrap();
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
            let bf = BruteForcePlanner.plan(&cx, budget).unwrap();
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
                let bf = BruteForcePlanner.plan(&cx, budget).unwrap();
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
        // At budget 40, 36 of the wide tree's 66 sources fit beside their
        // mids and the sink: far more unions than any of these caps. The
        // search scores as many plans as the cap allows, and no more.
        let cx = wide_merge_tree();
        let trees = cx.mc_trees().unwrap();
        for limit in [0, 1, 1_000] {
            let mut search = Search::new(&cx, trees, 40, limit);
            assert_eq!(search.visit(0), Err(CoreError::DpExplosion { limit }));
            assert_eq!(search.nodes, limit, "scored plans");
            let planner = DpPlanner {
                max_candidates: limit,
            };
            assert_eq!(
                planner.plan(&cx, 40).err(),
                Some(CoreError::DpExplosion { limit })
            );
        }
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
    fn search_matches_the_btreeset_reference_on_random_topologies() {
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
                let topology = spec.generate(&mut rng);
                let n = topology.n_tasks();
                let sets = (0..3)
                    .map(|_| {
                        TaskSet::from_tasks(n, (0..n).filter(|_| rng.gen_bool(0.4)).map(TaskIndex))
                    })
                    .collect();
                let contexts = [
                    ("OF", PlanContext::new(&topology).unwrap()),
                    (
                        "IC",
                        PlanContext::new(&topology)
                            .unwrap()
                            .with_objective(Objective::InternalCompleteness),
                    ),
                    (
                        "failure sets",
                        PlanContext::new(&topology).unwrap().with_failure_sets(sets),
                    ),
                ];
                for (kind, cx) in &contexts {
                    // Keep to topologies the reference plans quickly in a
                    // debug build.
                    if cx.mc_trees().map_or(true, |trees| trees.len() > 14) {
                        continue;
                    }
                    for ratio in [0.2, 0.4, 0.6, 0.8] {
                        let budget = (n as f64 * ratio).round() as usize;
                        let what = format!("spec {i}, draw {draw}, {kind}");
                        assert_matches_reference(cx, budget, &what);
                        planned += 1;
                    }
                }
            }
        }
        assert!(planned >= 120, "only {planned} plans compared");
    }

    /// 66 sources → 3 mids → 1 sink: 70 tasks, so every row spans two
    /// words, and 66 MC-trees.
    fn wide_merge_tree() -> PlanContext {
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
        PlanContext::new(&b.build().unwrap()).unwrap()
    }

    #[test]
    fn search_matches_the_btreeset_reference_two_words_wide() {
        // The trees through sources 64 and 65 have an empty first word.
        let cx = wide_merge_tree();
        assert_eq!(cx.n_tasks().div_ceil(64), 2);
        for budget in 0..=6 {
            assert_matches_reference(&cx, budget, "70 tasks");
        }
    }
}
