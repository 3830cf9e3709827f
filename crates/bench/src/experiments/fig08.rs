//! Fig. 8: recovery latency of a *correlated* failure — all 15 nodes
//! hosting the synthetic tasks die simultaneously; the source nodes
//! survive (§VI-A). Reported latency: detection until the *last* failed
//! task restored its pre-failure progress (synchronization-gated).

use super::grid::Table;
use super::{completion_latency, drive, fig6_grid, grid_label, kill_set_trace, schedule, Strategy};
use crate::runner::RunCtx;
use crate::Figure;

pub(crate) fn run(ctx: &RunCtx) -> Vec<Figure> {
    let strategies = [
        Strategy::Active { sync_secs: 5 },
        Strategy::Active { sync_secs: 30 },
        Strategy::Checkpoint { interval_secs: 5 },
        Strategy::Checkpoint { interval_secs: 15 },
        Strategy::Checkpoint { interval_secs: 30 },
        Strategy::Storm,
    ];
    let (fail_at, duration) = schedule(ctx.quick);
    let grid = fig6_grid(ctx.quick);

    let table = Table::run(ctx, &grid, &strategies, |cfg, strategy| {
        let scenario = ppa_workloads::fig6_scenario(cfg);
        let graph = scenario.graph();
        let driven = drive(
            ctx,
            &grid_label(cfg),
            &scenario,
            strategy,
            strategy.config(graph.n_tasks(), cfg.window, cfg.seed),
            &kill_set_trace(fail_at, scenario.worker_kill_set.clone()),
            duration,
        );
        completion_latency(&driven.report, |t| !graph.is_source_task(t))
    });

    let mut fig = Figure::new(
        "fig08",
        "Recovery latency of correlated failure",
        "configuration",
        "recovery latency (s)",
    );
    fig.series = table.by_entry(Strategy::label, grid_label, |&latency| latency);
    fig.note(
        "Expected shape (paper): same ordering as Fig. 7 but with larger gaps — \
         passive recovery pays neighbour synchronization, so checkpoint latencies \
         grow faster with rate/interval; Storm beats Checkpoint-30s for short windows.",
    );
    vec![fig]
}
