//! Property-based tests over random topologies: the OF/IC metrics and the
//! planners must satisfy their structural invariants on every input the
//! generator can produce.
//!
//! The build environment is offline, so instead of `proptest` these
//! properties run over a deterministic 48-case grid of generator
//! specifications × derived seeds — the same knobs the proptest strategy
//! sampled, enumerated exhaustively.

use ppa::core::TaskIndex;
use ppa::core::{
    GreedyPlanner, PlanContext, Planner, RandomTopologySpec, Skew, StructureAwarePlanner, TaskSet,
    TopologyStyle,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The generator grid: 2 (ops) × 2 (parallelism) × 2 (joins) × 2 (skew) ×
/// 3 (style) = 48 cases, each with a seed derived from its position.
fn cases() -> Vec<(RandomTopologySpec, u64)> {
    let mut out = Vec::new();
    let mut case_seed: u64 = 0x9E37_79B9_7F4A_7C15;
    for ops in [4usize, 8] {
        for para in [1usize, 6] {
            for join in [0.0, 0.5] {
                for skew in [Skew::Uniform, Skew::Zipf { s: 0.3 }] {
                    for style in [
                        TopologyStyle::Structured,
                        TopologyStyle::Full,
                        TopologyStyle::Mixed {
                            full_probability: 0.3,
                        },
                    ] {
                        case_seed = case_seed
                            .wrapping_mul(0x5851_F42D_4C95_7F2D)
                            .wrapping_add(0x1405_7B7E_F767_814F);
                        out.push((
                            RandomTopologySpec {
                                n_operators: (ops, ops + 2),
                                parallelism: (1, para + 2),
                                join_fraction: join,
                                skew,
                                style,
                                ..RandomTopologySpec::default()
                            },
                            case_seed,
                        ));
                    }
                }
            }
        }
    }
    assert_eq!(out.len(), 48);
    out
}

#[test]
fn fidelity_is_bounded_and_boundary_exact() {
    for (spec, seed) in cases() {
        let topo = spec.generate(&mut StdRng::seed_from_u64(seed));
        let cx = PlanContext::new(&topo).unwrap();
        let n = cx.n_tasks();
        assert!(
            (cx.of_plan(&TaskSet::full(n)) - 1.0).abs() < 1e-9,
            "seed {seed}"
        );
        assert_eq!(cx.of_plan(&TaskSet::empty(n)), 0.0, "seed {seed}");
        // Any random subset stays within [0, 1].
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let subset = TaskSet::from_tasks(
            n,
            (0..n)
                .filter(|_| rand::Rng::gen_bool(&mut rng, 0.5))
                .map(TaskIndex),
        );
        let of = cx.of_plan(&subset);
        assert!(
            (0.0..=1.0 + 1e-9).contains(&of),
            "seed {seed}: OF out of range: {of}"
        );
        let ic = cx.ic_plan(&subset);
        assert!(
            (0.0..=1.0 + 1e-9).contains(&ic),
            "seed {seed}: IC out of range: {ic}"
        );
    }
}

#[test]
fn fidelity_is_monotone_in_failures() {
    for (spec, seed) in cases() {
        let topo = spec.generate(&mut StdRng::seed_from_u64(seed));
        let cx = PlanContext::new(&topo).unwrap();
        let n = cx.n_tasks();
        let fid = cx.fidelity();
        let mut failed = TaskSet::empty(n);
        let mut prev = fid.output_fidelity(&failed);
        let mut order: Vec<usize> = (0..n).collect();
        // Deterministic shuffle from the seed.
        for i in (1..order.len()).rev() {
            let j = (seed as usize).wrapping_mul(i).wrapping_add(17) % (i + 1);
            order.swap(i, j);
        }
        for t in order {
            failed.insert(TaskIndex(t));
            let next = fid.output_fidelity(&failed);
            assert!(
                next <= prev + 1e-9,
                "seed {seed}: failing more tasks raised OF"
            );
            prev = next;
        }
    }
}

#[test]
fn ic_never_underestimates_of() {
    // Correlation only adds loss: for the same failed set, IC >= OF.
    for (spec, seed) in cases() {
        let topo = spec.generate(&mut StdRng::seed_from_u64(seed));
        let cx = PlanContext::new(&topo).unwrap();
        let n = cx.n_tasks();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let failed = TaskSet::from_tasks(
            n,
            (0..n)
                .filter(|_| rand::Rng::gen_bool(&mut rng, 0.3))
                .map(TaskIndex),
        );
        let fid = cx.fidelity();
        assert!(
            fid.internal_completeness(&failed) >= fid.output_fidelity(&failed) - 1e-9,
            "seed {seed}"
        );
    }
}

#[test]
fn planners_respect_budget_and_bounds() {
    for (spec, seed) in cases() {
        let topo = spec.generate(&mut StdRng::seed_from_u64(seed));
        let cx = PlanContext::new(&topo).unwrap();
        let n = cx.n_tasks();
        for ratio in [0.2, 0.5] {
            let budget = ((n as f64) * ratio) as usize;
            let sa = StructureAwarePlanner::default().plan(&cx, budget).unwrap();
            let gr = GreedyPlanner.plan(&cx, budget).unwrap();
            assert!(sa.resources() <= budget, "seed {seed}");
            assert!(gr.resources() <= budget, "seed {seed}");
            assert!((0.0..=1.0 + 1e-9).contains(&sa.value), "seed {seed}");
            assert!((0.0..=1.0 + 1e-9).contains(&gr.value), "seed {seed}");
            // Plan value must equal re-evaluating the plan's task set.
            assert!(
                (cx.of_plan(&sa.tasks) - sa.value).abs() < 1e-9,
                "seed {seed}"
            );
        }
    }
}

#[test]
fn sa_is_near_monotone_in_budget() {
    // SA is a heuristic (as is the paper's): a larger budget can steer
    // its greedy path to a slightly different plan, so monotonicity is
    // asserted with a small tolerance. The endpoint is exact: the full
    // budget must always reach OF 1.
    for (spec, seed) in cases() {
        let topo = spec.generate(&mut StdRng::seed_from_u64(seed));
        let cx = PlanContext::new(&topo).unwrap();
        let n = cx.n_tasks();
        let mut prev = -1.0;
        for ratio in [0.1, 0.3, 0.6, 1.0] {
            let budget = ((n as f64) * ratio).ceil() as usize;
            let plan = StructureAwarePlanner::default().plan(&cx, budget).unwrap();
            assert!(
                plan.value >= prev - 0.05,
                "seed {seed}: budget {budget} dropped OF from {prev} to {}",
                plan.value
            );
            prev = prev.max(plan.value);
        }
        // Full budget must reach OF 1.
        let full = StructureAwarePlanner::default().plan(&cx, n).unwrap();
        assert!(
            (full.value - 1.0).abs() < 1e-9,
            "seed {seed}: full budget OF {}",
            full.value
        );
    }
}

#[test]
fn mc_trees_are_minimal_and_alive() {
    use ppa::core::{enumerate_mc_trees, McTreeLimits};
    for (spec, seed) in cases() {
        let topo = spec.generate(&mut StdRng::seed_from_u64(seed));
        let cx = PlanContext::new(&topo).unwrap();
        let limits = McTreeLimits { max_trees: 5_000 };
        let Ok(trees) = enumerate_mc_trees(cx.graph(), limits) else {
            continue; // explosion guard fired: acceptable
        };
        for tree in trees.iter().take(64) {
            // A complete tree alone yields positive fidelity...
            assert!(
                cx.of_plan(tree) > 0.0,
                "seed {seed}: tree {tree:?} contributes nothing"
            );
            // ...and removing any single task kills this tree's contribution
            // or at least never increases fidelity (minimality).
            let with = cx.of_plan(tree);
            for t in tree.iter() {
                let mut smaller = tree.clone();
                smaller.remove(t);
                assert!(cx.of_plan(&smaller) <= with + 1e-9, "seed {seed}");
            }
        }
    }
}
