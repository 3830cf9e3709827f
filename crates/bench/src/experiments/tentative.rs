//! The conclusion's headline claim: "upon a correlated failure, PPA can
//! start producing tentative outputs up to 10 times faster than the
//! completion of recovering all the failed tasks."
//!
//! One PPA-0.5 run per checkpoint interval: compare the time from failure
//! detection to (a) the first tentative sink output and (b) the completion
//! of the last passive recovery.

use super::grid::Table;
use super::{drive, fig6_cfg, grid_label, half_plan, kill_set_trace, schedule, Strategy};
use crate::runner::RunCtx;
use crate::Figure;
use ppa_core::PlanContext;

pub(crate) fn run(ctx: &RunCtx) -> Vec<Figure> {
    let quick = ctx.quick;
    let intervals: &[u64] = if quick { &[15] } else { &[5, 15, 30] };
    let rate = if quick { 300 } else { 1000 };
    let (fail_at, duration) = schedule(quick);
    let cfg = fig6_cfg(rate, 30);

    // Leaf phase 1 — the PPA-0.5 plan.
    let plan = ctx
        .map(vec![()], |()| {
            let scenario = ppa_workloads::fig6_scenario(&cfg);
            half_plan(&PlanContext::new(scenario.query.topology()).expect("fig6 plans"))
        })
        .pop()
        .expect("one plan");

    // Leaf phase 2 — one run per checkpoint interval, yielding (first
    // tentative output, full recovery), both in seconds after detection.
    let table = Table::run(ctx, intervals, &[()], |&interval_secs, ()| {
        let scenario = ppa_workloads::fig6_scenario(&cfg);
        let strategy = Strategy::Ppa {
            plan: plan.clone(),
            interval_secs,
        };
        let report = drive(
            ctx,
            &grid_label(&cfg),
            &scenario,
            &strategy,
            strategy.config(scenario.graph().n_tasks(), cfg.window, cfg.seed),
            &kill_set_trace(fail_at, scenario.worker_kill_set.clone()),
            duration,
        )
        .report;
        let detected = report
            .recoveries()
            .iter()
            .map(|r| r.detected_at)
            .min()
            .expect("failures were injected");
        let since_detection =
            |t: Option<ppa_sim::SimTime>| t.map_or(f64::NAN, |t| t.since(detected).as_secs_f64());
        (
            since_detection(report.first_tentative_after(detected)),
            since_detection(report.full_recovery_at()),
        )
    });

    let mut fig = Figure::new(
        "tentative",
        format!("Tentative output vs full recovery (PPA-0.5, rate {rate} tp/s)"),
        "checkpoint interval (s)",
        "seconds after detection / speedup",
    );
    let x = u64::to_string;
    fig.series = vec![
        table.column(0, "first tentative output (s)", x, |o| o.0),
        table.column(0, "full recovery (s)", x, |o| o.1),
        table.column(0, "speedup (x)", x, |o| o.1 / o.0.max(1e-9)),
    ];
    fig.note(
        "Expected shape (paper's conclusion): tentative outputs begin roughly one \
         batch after detection, an order of magnitude before the last passive \
         recovery completes — the gap widens with the checkpoint interval.",
    );
    vec![fig]
}
