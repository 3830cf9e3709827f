//! The accuracy pipeline end-to-end: plans of increasing budget must yield
//! increasing measured tentative accuracy on Q1 and Q2, and the OF metric
//! must predict it better than IC does on the join query.

use ppa::core::Objective;
use ppa::core::{Planner, StructureAwarePlanner, TaskSet};
use ppa_bench::RunCtx;
use ppa_bench::{AccuracyHarness, QueryKind};

#[test]
fn q1_accuracy_tracks_of_and_grows_with_budget() {
    let harness = AccuracyHarness::new(&RunCtx::serial(true), QueryKind::Q1, true);
    let cx = harness.context(Objective::OutputFidelity);
    let mut prev_acc = -1.0;
    for ratio in [0.3, 0.6, 0.9] {
        let plan = StructureAwarePlanner::default()
            .plan(&cx, harness.budget(ratio))
            .unwrap();
        let acc = harness.measure(&plan.tasks);
        assert!(
            acc >= prev_acc - 0.08,
            "accuracy should not collapse as budget grows: {acc} after {prev_acc}"
        );
        assert!(
            (acc - cx.of_plan(&plan.tasks)).abs() < 0.25,
            "ratio {ratio}: OF {} vs measured {acc}",
            cx.of_plan(&plan.tasks)
        );
        prev_acc = acc;
    }
}

#[test]
fn q1_empty_plan_loses_everything() {
    let harness = AccuracyHarness::new(&RunCtx::serial(true), QueryKind::Q1, true);
    let n = harness.scenario.graph().n_tasks();
    let acc = harness.measure(&TaskSet::empty(n));
    assert_eq!(acc, 0.0, "no replicas, no tentative output");
}

#[test]
fn q1_full_plan_is_nearly_perfect() {
    let harness = AccuracyHarness::new(&RunCtx::serial(true), QueryKind::Q1, true);
    let n = harness.scenario.graph().n_tasks();
    let acc = harness.measure(&TaskSet::full(n));
    assert!(
        acc > 0.9,
        "full replication keeps the top-k intact, got {acc}"
    );
}

#[test]
fn q2_of_plan_beats_ic_plan_in_reality() {
    let harness = AccuracyHarness::new(&RunCtx::serial(true), QueryKind::Q2, true);
    let cx_of = harness.context(Objective::OutputFidelity);
    let cx_ic = harness.context(Objective::InternalCompleteness);
    let budget = harness.budget(0.6);
    let plan_of = StructureAwarePlanner::default()
        .plan(&cx_of, budget)
        .unwrap();
    let plan_ic = StructureAwarePlanner::default()
        .plan(&cx_ic, budget)
        .unwrap();
    let acc_of = harness.measure(&plan_of.tasks);
    let acc_ic = harness.measure(&plan_ic.tasks);
    assert!(
        acc_of >= acc_ic,
        "the OF-optimized plan ({acc_of}) must not lose to the IC one ({acc_ic})"
    );
    // And IC's self-assessment overshoots its delivered accuracy.
    assert!(
        plan_ic.value > acc_ic + 0.2,
        "IC promised {} but delivered {acc_ic}",
        plan_ic.value
    );
}

#[test]
fn q2_full_plan_detects_all_jams() {
    let harness = AccuracyHarness::new(&RunCtx::serial(true), QueryKind::Q2, true);
    let n = harness.scenario.graph().n_tasks();
    let acc = harness.measure(&TaskSet::full(n));
    assert!(
        acc > 0.95,
        "full replication must keep detecting jams, got {acc}"
    );
}

#[test]
fn experiments_registry_is_complete() {
    let ids: Vec<&str> = ppa_bench::registry().iter().map(|e| e.id).collect();
    assert_eq!(
        ids,
        vec![
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "fig12",
            "fig13",
            "fig14",
            "tentative",
            "corr_sweep",
            "placement_sweep",
            "adaptive_sweep",
            "refail_sweep",
            "approx_sweep",
            "chaos_swarm"
        ]
    );
}

/// The registered `fig09` experiment's figures at quick scale.
fn fig09_quick() -> Vec<ppa_bench::Figure> {
    let fig09 = ppa_bench::registry()
        .into_iter()
        .find(|e| e.id == "fig09")
        .unwrap();
    (fig09.run)(&RunCtx::serial(true))
}

#[test]
fn fig9_experiment_shape_holds_at_quick_scale() {
    let figs = fig09_quick();
    let fig = &figs[0];
    for series in &fig.series {
        // Ratio falls monotonically with the checkpoint interval.
        let ys: Vec<f64> = series.points.iter().map(|(_, y)| *y).collect();
        for pair in ys.windows(2) {
            assert!(pair[0] > pair[1], "{}: {ys:?}", series.label);
        }
    }
    // Higher rate, higher ratio at every interval.
    let low = &fig.series[0];
    let high = &fig.series[1];
    for (l, h) in low.points.iter().zip(&high.points) {
        assert!(h.1 > l.1, "rate ordering at interval {}", l.0);
    }
}

#[test]
fn figure_markdown_is_renderable() {
    for fig in fig09_quick() {
        let md = fig.to_markdown();
        assert!(md.contains("### fig09"));
        assert!(md.lines().count() > 5);
    }
}
