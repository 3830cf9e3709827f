//! Fig. 7: recovery latency of a *single node* failure on the Fig. 6
//! topology, across fault-tolerance strategies, window intervals and input
//! rates. The failed task's location in the topology matters (especially
//! for Storm), so — like the paper — we average over failures injected at
//! different operators.

use super::grid::Table;
use super::{drive, fig6_grid, grid_label, kill_set_trace, schedule, Strategy};
use crate::runner::RunCtx;
use crate::{latency_secs, Figure};

/// Synthetic tasks whose hosting node is killed, one run each: the first
/// task of O1, O2, O3 and the O4 sink (global task ids on the Fig. 6
/// topology: sources are 0..16, O1 16..24, O2 24..28, O3 28..30, O4 30).
fn locations(quick: bool) -> &'static [usize] {
    if quick {
        &[16, 30]
    } else {
        &[16, 24, 28, 30]
    }
}

pub(crate) fn run(ctx: &RunCtx) -> Vec<Figure> {
    let quick = ctx.quick;
    let strategies = [
        Strategy::Active { sync_secs: 5 },
        Strategy::Active { sync_secs: 30 },
        Strategy::Checkpoint { interval_secs: 5 },
        Strategy::Checkpoint { interval_secs: 15 },
        Strategy::Checkpoint { interval_secs: 30 },
        Strategy::Storm,
    ];
    let (fail_at, duration) = schedule(quick);
    let grid = fig6_grid(quick);

    // One cell per grid point: the mean over one run per failure location.
    // A location that never recovers poisons its cell (NaN, rendered `—`)
    // rather than silently dropping out of the mean.
    let table = Table::run(ctx, &grid, &strategies, |cfg, strategy| {
        let scenario = ppa_workloads::fig6_scenario(cfg);
        let n = scenario.graph().n_tasks();
        let locs = locations(quick);
        let total: f64 = locs
            .iter()
            .map(|&task| {
                let node = scenario.placement.primary[task];
                let driven = drive(
                    ctx,
                    &grid_label(cfg),
                    &scenario,
                    strategy,
                    strategy.config(n, cfg.window, cfg.seed),
                    &kill_set_trace(fail_at, vec![node]),
                    duration,
                );
                latency_secs(driven.report.mean_recovery_latency())
            })
            .sum();
        total / locs.len() as f64
    });

    let mut fig = Figure::new(
        "fig07",
        "Recovery latency of single node failure",
        "configuration",
        "recovery latency (s)",
    );
    fig.series = table.by_entry(Strategy::label, grid_label, |&mean| mean);
    fig.note(
        "Expected shape (paper): Active ≪ Checkpoint, insensitive to window/rate; \
         Checkpoint grows with rate and checkpoint interval; Storm grows with window \
         and usually exceeds Checkpoint.",
    );
    vec![fig]
}
