//! Cross-crate integration tests: planners on the actual evaluation
//! topologies (Fig. 6, Q1, Q2).

use ppa::core::Objective;
use ppa::core::{DpPlanner, GreedyPlanner, PlanContext, Planner, StructureAwarePlanner, TaskSet};
use ppa::sim::SimDuration;
use ppa::workloads::{fig6_query, Fig6Config};
use ppa::workloads::{q1_query, Q1Config};
use ppa::workloads::{q2_query, NavigationConfig};

fn fig6_cx() -> PlanContext {
    let q = fig6_query(&Fig6Config {
        rate: 500,
        window: SimDuration::from_secs(10),
        ..Fig6Config::default()
    });
    PlanContext::new(q.topology()).unwrap()
}

#[test]
fn fig6_has_16_mc_trees_of_5_tasks() {
    let cx = fig6_cx();
    let trees = cx.mc_trees().unwrap();
    assert_eq!(
        trees.len(),
        16,
        "one tree per source task through the merge chain"
    );
    for tree in trees {
        assert_eq!(tree.len(), 5, "source + O1 + O2 + O3 + O4");
    }
}

#[test]
fn sa_matches_dp_on_fig6_at_every_budget() {
    let cx = fig6_cx();
    for budget in [0, 3, 5, 10, 16, 24, 31] {
        let dp = DpPlanner::default().plan(&cx, budget).unwrap();
        let sa = StructureAwarePlanner.plan(&cx, budget).unwrap();
        assert!(
            (sa.value - dp.value).abs() < 1e-9,
            "budget {budget}: SA {} vs DP {}",
            sa.value,
            dp.value
        );
    }
}

#[test]
fn greedy_never_beats_dp_on_fig6() {
    let cx = fig6_cx();
    for budget in [5, 10, 16, 24] {
        let dp = DpPlanner::default().plan(&cx, budget).unwrap();
        let gr = GreedyPlanner.plan(&cx, budget).unwrap();
        assert!(gr.value <= dp.value + 1e-9, "budget {budget}");
    }
}

#[test]
fn fig6_planners_respect_budgets() {
    let cx = fig6_cx();
    let planners: Vec<Box<dyn Planner>> = vec![
        Box::new(DpPlanner::default()),
        Box::new(StructureAwarePlanner),
        Box::new(GreedyPlanner),
    ];
    for planner in &planners {
        for budget in [0, 1, 7, 31, 100] {
            let plan = planner.plan(&cx, budget).unwrap();
            assert!(plan.resources() <= budget.min(31), "{}", planner.name());
        }
    }
}

#[test]
fn q1_dp_is_optimal_over_brute_force_range() {
    let q = q1_query(&Q1Config {
        src_tasks: 4,
        o1_tasks: 2,
        o2_tasks: 2,
        rate: 100,
        n_objects: 64,
        k: 10,
        window_batches: 4,
        ..Q1Config::default()
    });
    let cx = PlanContext::new(q.topology()).unwrap();
    let bf = ppa::core::BruteForcePlanner;
    for budget in 0..=cx.n_tasks() {
        let dp = DpPlanner::default().plan(&cx, budget).unwrap();
        let opt = bf.plan(&cx, budget).unwrap();
        assert!(
            (dp.value - opt.value).abs() < 1e-9,
            "budget {budget}: dp {} vs optimal {}",
            dp.value,
            opt.value
        );
    }
}

#[test]
fn q2_join_makes_of_and_ic_diverge() {
    let q = q2_query(&NavigationConfig::default());
    let cx = PlanContext::new(q.topology()).unwrap();
    let n = cx.n_tasks();
    // Replicate only the location-side chain: positive IC, zero OF.
    // Build it from the IC objective's own "trees".
    let cx_ic = PlanContext::new(q.topology())
        .unwrap()
        .with_objective(Objective::InternalCompleteness);
    let mut max_gap = 0.0f64;
    for budget in [n / 3, n / 2, 2 * n / 3] {
        let ic_plan = StructureAwarePlanner.plan(&cx_ic, budget).unwrap();
        let of = cx.of_plan(&ic_plan.tasks);
        // IC never underestimates OF for the same plan...
        assert!(of <= ic_plan.value + 1e-9, "budget {budget}");
        max_gap = max_gap.max(ic_plan.value - of);
    }
    // ...and at some budget the IC-optimized plan strands a join side, so
    // the gap is substantial (the Fig. 12(b) effect).
    assert!(
        max_gap > 0.05,
        "IC and OF never diverged (max gap {max_gap})"
    );
}

#[test]
fn full_replication_is_perfect_on_all_workload_topologies() {
    let queries = [
        fig6_query(&Fig6Config::default()).topology().clone(),
        q1_query(&Q1Config::default()).topology().clone(),
        q2_query(&NavigationConfig::default()).topology().clone(),
    ];
    for topology in &queries {
        let cx = PlanContext::new(topology).unwrap();
        let all = TaskSet::full(cx.n_tasks());
        assert!((cx.of_plan(&all) - 1.0).abs() < 1e-9);
        assert!((cx.ic_plan(&all) - 1.0).abs() < 1e-9);
        let none = TaskSet::empty(cx.n_tasks());
        assert_eq!(cx.of_plan(&none), 0.0);
    }
}

#[test]
fn sa_value_grows_with_budget_on_q2() {
    let q = q2_query(&NavigationConfig::default());
    let cx = PlanContext::new(q.topology()).unwrap();
    let mut prev = -1.0;
    for budget in [0, 4, 8, 12, 16, 19] {
        let plan = StructureAwarePlanner.plan(&cx, budget).unwrap();
        assert!(plan.value >= prev - 1e-9, "budget {budget}");
        prev = plan.value;
    }
}

/// Planners score by delta passes, each from the plan scored before it, so
/// a returned value comes after a long history of other plans. It must
/// equal a from-scratch full pass over the returned tasks, bit for bit,
/// under both objectives, with Definition 2's failure and with rack
/// failure sets.
#[test]
fn planner_values_equal_a_full_pass_bit_for_bit() {
    use ppa::faults::FaultDomainTree;
    let topologies = [
        fig6_query(&Fig6Config::default()).topology().clone(),
        q1_query(&Q1Config::default()).topology().clone(),
        q2_query(&NavigationConfig::default()).topology().clone(),
    ];
    let planners: [(&dyn Planner, &[f64]); 3] = [
        (&StructureAwarePlanner, &[0.2, 0.4, 0.6, 0.8]),
        (&GreedyPlanner, &[0.2, 0.4, 0.6, 0.8]),
        // Higher ratios take seconds each in a debug build.
        (&DpPlanner::default(), &[0.2, 0.4]),
    ];
    for topology in &topologies {
        let n = PlanContext::new(topology).unwrap().n_tasks();
        let nodes: Vec<usize> = (0..n).collect();
        let racks = FaultDomainTree::racks(&nodes, 4);
        let minus =
            |a: &TaskSet, b: &TaskSet| TaskSet::from_tasks(n, a.iter().filter(|&t| !b.contains(t)));
        for objective in [Objective::OutputFidelity, Objective::InternalCompleteness] {
            let contexts = [
                PlanContext::new(topology).unwrap(),
                PlanContext::with_fault_domains(topology, &racks, &nodes).unwrap(),
            ];
            for cx in contexts.map(|cx| cx.with_objective(objective)) {
                let full = |failed: &TaskSet| match objective {
                    Objective::OutputFidelity => cx.fidelity().output_fidelity(failed),
                    Objective::InternalCompleteness => cx.fidelity().internal_completeness(failed),
                };
                let want = |plan: &TaskSet| match cx.failure_sets() {
                    None => full(&minus(&TaskSet::full(n), plan)),
                    Some(sets) => sets
                        .iter()
                        .map(|d| full(&minus(d, plan)))
                        .fold(full(&TaskSet::empty(n)), f64::min),
                };
                for (planner, ratios) in planners {
                    for &ratio in ratios {
                        let budget = (n as f64 * ratio).round() as usize;
                        let plan = planner.plan(&cx, budget).unwrap();
                        assert_eq!(
                            plan.value.to_bits(),
                            want(&plan.tasks).to_bits(),
                            "{} on {n} tasks, IC {}, sets {}, budget {budget}",
                            planner.name(),
                            objective == Objective::InternalCompleteness,
                            cx.failure_sets().is_some()
                        );
                    }
                }
            }
        }
    }
}
