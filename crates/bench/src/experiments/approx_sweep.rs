//! `approx_sweep`: what does divergence-bounded *approximate* fault
//! tolerance buy over exact checkpointing? The third recovery family
//! (`FtMode::Approximate`) ships a state backup only when a task's
//! accumulated divergence exceeds its error bound, and on failure
//! restores from the last shipped snapshot *without* replaying the
//! forfeited batches — recovery latency drops to restore cost alone,
//! paid for in output fidelity the engine itself quantifies as a
//! per-outage `fidelity_floor`.
//!
//! Every cell builds the `adaptive_sweep` cluster (12 workers + 12
//! standbys, racks of 4), places the Fig. 6 query round-robin, and
//! replays one seeded cascade pinned to the first worker rack. Cells
//! sweep the cascade's correlation (spread) and burst size (fraction of
//! the origin rack killed); the strategy roster sweeps the error bound —
//! exact `Checkpoint-5s` against `Approx-5s-e{bound}` for each bound —
//! over identical node deaths. Per cell and strategy: recovery
//! completion latency, output fidelity inside the outage window against
//! that strategy's own failure-free golden run, the engine-recorded
//! fidelity floor, and the approximate backup cadence (shipped vs
//! skipped), showing the divergence-driven backup rate the planner cost
//! model (`ppa_core::BackupCadence`) prices.

use super::{completion_latency, drive_scenario_config, schedule, Strategy};
use crate::runner::RunCtx;
use crate::{Figure, Series};
use ppa_engine::{Cluster, FailureTrace, RoundRobin, Simulation};
use ppa_faults::{CascadeProcess, FailureProcess};
use ppa_sim::{SimDuration, SimTime};
use ppa_workloads::{floored_outage_windows, outage_fidelity, Fig6Config, Scenario};

/// Cluster shape shared by every cell (the `adaptive_sweep` cluster).
const N_WORKERS: usize = 12;
const N_STANDBY: usize = 12;
const RACK_SIZE: usize = 4;
/// Fidelity is attributed to this window after the failure onset — long
/// enough to contain detection, recovery and the catch-up tail of every
/// strategy in the roster.
const OUTAGE_WINDOW_SECS: u64 = 45;

/// One cell: (cascade spread, burst fraction of the origin rack).
fn cells(quick: bool) -> Vec<(f64, f64)> {
    if quick {
        vec![(0.0, 1.0), (0.9, 1.0)]
    } else {
        let mut out = Vec::new();
        for corr in [0.0, 0.5, 0.9] {
            for burst in [0.5, 1.0] {
                out.push((corr, burst));
            }
        }
        out
    }
}

/// The strategy roster: exact checkpointing against the approximate
/// family across error bounds. All share the 5 s interval, so the only
/// degree of freedom is how much divergence a task may accumulate before
/// its next backup ships.
fn roster(quick: bool) -> Vec<Strategy> {
    let bounds: &[u64] = if quick {
        &[2_000, 8_000]
    } else {
        &[1_000, 4_000, 16_000]
    };
    let mut out = vec![Strategy::Checkpoint { interval_secs: 5 }];
    out.extend(bounds.iter().map(|&error_bound| Strategy::Approximate {
        interval_secs: 5,
        error_bound,
    }));
    out
}

/// The cascade of a cell: one seeded wave pinned to the first worker
/// rack. Strategy-independent, so every roster entry replays identical
/// node deaths.
fn cascade_trace(
    cluster: &Cluster,
    corr: f64,
    burst: f64,
    fail_at: u64,
    base_seed: u64,
) -> FailureTrace {
    let tree = cluster.domains.as_ref().expect("racked cluster has a tree");
    let process = CascadeProcess {
        level: 1,
        spread: corr,
        decay: 0.5,
        hop_delay: SimDuration::from_secs(2),
        fraction: burst,
        origin: Some(0),
    };
    let seed =
        base_seed ^ 0xa99c ^ (((corr * 100.0) as u64) << 20) ^ (((burst * 100.0) as u64) << 8);
    process.generate_seeded(
        tree,
        SimTime::from_secs(fail_at),
        SimDuration::from_secs(20),
        seed,
    )
}

/// One strategy's outcome within a cell.
struct StrategyOutcome {
    /// Recovery completion latency over the non-source tasks (seconds).
    latency: f64,
    /// Fidelity inside the outage window vs this strategy's own golden run.
    fidelity: f64,
    /// Worst engine-recorded fidelity floor across the run's outage
    /// windows (`None` when no lossy recovery happened — exact modes, or
    /// an approximate recovery that forfeited nothing).
    floor: Option<u16>,
    /// Approximate backups shipped / suppressed by the divergence model.
    shipped: u64,
    skipped: u64,
}

/// One cell's outcome: every roster entry over the identical kill set.
struct Outcome {
    by_strategy: Vec<StrategyOutcome>,
    killed: usize,
}

pub fn run(ctx: &RunCtx) -> Vec<Figure> {
    let quick = ctx.quick;
    let (fail_at, duration) = schedule(quick);
    let cfg = Fig6Config {
        rate: if quick { 300 } else { 1000 },
        window: SimDuration::from_secs(if quick { 10 } else { 30 }),
        ..Fig6Config::default()
    };
    let cells = cells(quick);
    let roster = roster(quick);

    // One leaf job per cell: the whole roster shares the cluster, trace
    // and scenario, and each strategy is scored against its own golden
    // run (backup cadence charges CPU, so sink timing is per-strategy).
    let outcomes: Vec<Outcome> = ctx.map(cells.clone(), |(corr, burst)| {
        let cluster = Cluster::racked(N_WORKERS, N_STANDBY, RACK_SIZE).expect("positive rack size");
        let trace = cascade_trace(&cluster, corr, burst, fail_at, cfg.seed);
        let scenario: Scenario = ppa_workloads::fig6_scenario(&cfg)
            .placed_with(&RoundRobin, &cluster)
            .expect("fig6 fits the sweep cluster");
        let graph = scenario.graph();
        let n = graph.n_tasks();
        let by_strategy = roster
            .iter()
            .map(|strategy| {
                let config = strategy.config(n, cfg.window, cfg.seed);
                let batch = config.batch_interval;
                let golden = Simulation::run(
                    &scenario.query,
                    scenario.placement.clone(),
                    strategy.config(n, cfg.window, cfg.seed),
                    &FailureTrace::new(),
                    SimDuration::from_secs(duration),
                );
                let driven = drive_scenario_config(
                    ctx,
                    &format!("corr:{corr} burst:{burst}"),
                    &scenario,
                    strategy,
                    config,
                    &trace,
                    duration,
                );
                let fidelity = outage_fidelity(
                    &golden,
                    &driven.report,
                    &[(fail_at, fail_at + OUTAGE_WINDOW_SECS)],
                    SimDuration::from_secs(5), // one heartbeat of slack
                )[0];
                StrategyOutcome {
                    latency: completion_latency(&driven.report, |t| !graph.is_source_task(t)),
                    fidelity,
                    floor: floored_outage_windows(&driven.report, batch, duration)
                        .iter()
                        .filter_map(|w| w.fidelity_floor)
                        .min(),
                    shipped: driven.metrics.counter("engine.approx.backups_shipped"),
                    skipped: driven.metrics.counter("engine.approx.backups_skipped"),
                }
            })
            .collect();
        Outcome {
            by_strategy,
            killed: trace.killed_nodes().len(),
        }
    });

    let cell_label = |&(corr, burst): &(f64, f64)| format!("corr:{corr} burst:{burst}");

    let mut latency = Figure::new(
        "approx_sweep",
        "Recovery completion latency: divergence-bounded approximate vs exact checkpointing",
        "cascade spread x burst fraction",
        "completion latency (s)",
    );
    for (si, strategy) in roster.iter().enumerate() {
        let mut series = Series::new(strategy.label());
        for (ci, cell) in cells.iter().enumerate() {
            series.push(cell_label(cell), outcomes[ci].by_strategy[si].latency);
        }
        latency.series.push(series);
    }
    let mut killed = Series::new("nodes killed");
    for (ci, cell) in cells.iter().enumerate() {
        killed.push(cell_label(cell), outcomes[ci].killed as f64);
    }
    latency.series.push(killed);
    latency.note(
        "One seeded cascade per cell, pinned to the first worker rack; every \
         strategy replays identical node deaths. Completion latency is detection \
         to the LAST non-source task restoring its pre-failure progress. Exact \
         checkpointing must replay every batch since its last snapshot before a \
         task counts as recovered; the approximate family restores the last \
         shipped snapshot and jumps to the failure-time frontier without replay, \
         so its completion latency collapses to restore cost — the forfeited \
         batches are charged to fidelity instead (see approx_sweep_fidelity).",
    );

    let mut fidelity = Figure::new(
        "approx_sweep_fidelity",
        "Fidelity cost of lossy recovery (measured, and the engine's recorded floor)",
        "cascade spread x burst fraction",
        "output fidelity vs golden run",
    );
    for (si, strategy) in roster.iter().enumerate() {
        let mut series = Series::new(strategy.label());
        for (ci, cell) in cells.iter().enumerate() {
            series.push(cell_label(cell), outcomes[ci].by_strategy[si].fidelity);
        }
        fidelity.series.push(series);
    }
    for (si, strategy) in roster.iter().enumerate() {
        if !matches!(strategy, Strategy::Approximate { .. }) {
            continue;
        }
        let mut series = Series::new(format!("floor ({})", strategy.label()));
        for (ci, cell) in cells.iter().enumerate() {
            let floor = outcomes[ci].by_strategy[si]
                .floor
                .map_or(1.0, |f| f64::from(f) / 1000.0);
            series.push(cell_label(cell), floor);
        }
        fidelity.series.push(series);
    }
    fidelity.note(
        "Measured fidelity is on-time per-batch sink volume inside the outage \
         window [fail, fail+45s) against the strategy's own failure-free golden \
         run (5 s lateness budget). The floor series is the engine's own \
         per-outage fidelity_floor — the worst-case share of the outage's \
         batches an approximate recovery retained after forfeiting the \
         divergence-skipped replay (permille, worst outage of the run; 1.0 when \
         nothing was forfeited). Measured fidelity sits at or above the floor: \
         the floor is what recovery gave up, the measurement adds what \
         downstream tentative output preserved anyway.",
    );

    let mut backups = Figure::new(
        "approx_sweep_backups",
        "Divergence-driven backup cadence (the planner's BackupCadence in vivo)",
        "cascade spread x burst fraction",
        "count over the run",
    );
    for (si, strategy) in roster.iter().enumerate() {
        if !matches!(strategy, Strategy::Approximate { .. }) {
            continue;
        }
        let mut shipped = Series::new(format!("shipped ({})", strategy.label()));
        let mut skipped = Series::new(format!("skipped ({})", strategy.label()));
        for (ci, cell) in cells.iter().enumerate() {
            let o = &outcomes[ci].by_strategy[si];
            shipped.push(cell_label(cell), o.shipped as f64);
            skipped.push(cell_label(cell), o.skipped as f64);
        }
        backups.series.push(shipped);
        backups.series.push(skipped);
    }
    backups.note(
        "A backup ships only when a task's accumulated divergence (tuples \
         absorbed since the last ship) exceeds the error bound; in-bound \
         intervals are skipped. Widening the bound trades backups for drift — \
         the rate the planner cost model prices as \
         BackupCadence::Divergence { error_bound, drift_rate } — so larger \
         bounds ship fewer backups and record lower fidelity floors at \
         recovery.",
    );

    vec![latency, fidelity, backups]
}
