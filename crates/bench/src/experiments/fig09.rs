//! Fig. 9: CPU cost of maintaining checkpoints — the ratio of checkpoint
//! CPU to normal processing CPU per task, as a function of the checkpoint
//! interval (1/5/15/30 s) and the input rate, window fixed at 30 s.

use super::grid::Table;
use super::{drive, fig6_cfg, grid_label, Strategy};
use crate::runner::RunCtx;
use crate::Figure;
use ppa_engine::FailureTrace;

pub(crate) fn run(ctx: &RunCtx) -> Vec<Figure> {
    let quick = ctx.quick;
    let intervals: [u64; 4] = [1, 5, 15, 30];
    let rates: &[usize] = if quick { &[300, 600] } else { &[1000, 2000] };
    let duration = if quick { 60 } else { 120 };

    // One failure-free run per (interval, rate).
    let table = Table::run(ctx, &intervals, rates, |&interval_secs, &rate| {
        let cfg = fig6_cfg(rate, 30);
        let scenario = ppa_workloads::fig6_scenario(&cfg);
        let graph = scenario.graph();
        let strategy = Strategy::Checkpoint { interval_secs };
        let report = drive(
            ctx,
            &grid_label(&cfg),
            &scenario,
            &strategy,
            strategy.config(graph.n_tasks(), cfg.window, cfg.seed),
            &FailureTrace::new(),
            duration,
        )
        .report;
        // The paper's metric is per *processing* task; source tasks have
        // no window state and would dilute the mean.
        let ratios: Vec<f64> = (0..graph.n_tasks())
            .filter(|&t| !graph.is_source_task(ppa_core::TaskIndex(t)))
            .map(|t| report.cpu[t].checkpoint_ratio())
            .filter(|r| *r > 0.0)
            .collect();
        if ratios.is_empty() {
            f64::NAN
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    });

    let mut fig = Figure::new(
        "fig09",
        "CPU usage of maintaining checkpoints (window 30s)",
        "checkpoint interval (s)",
        "checkpoint CPU / processing CPU",
    );
    fig.series = table.by_entry(
        |rate| format!("{rate}_tuples/s"),
        u64::to_string,
        |&ratio| ratio,
    );
    fig.note(
        "Expected shape (paper): the ratio falls sharply with longer intervals \
         (1s checkpoints are prohibitively expensive) and rises with the input \
         rate, since the state is window × rate tuples.",
    );
    vec![fig]
}
