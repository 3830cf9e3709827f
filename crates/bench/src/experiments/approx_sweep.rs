//! `approx_sweep`: what does divergence-bounded *approximate* fault
//! tolerance buy over exact checkpointing? The third recovery family
//! (`FtMode::Approximate`) ships a state backup only when a task's
//! accumulated divergence exceeds its error bound, and on failure
//! restores from the last shipped snapshot *without* replaying the
//! skipped batches — recovery latency drops to restore cost alone,
//! paid for in output fidelity.
//!
//! Every cell builds the `adaptive_sweep` cluster (12 workers + 12
//! standbys, racks of 4), places the Fig. 6 query round-robin, and
//! replays one seeded cascade pinned to the first worker rack. Cells
//! sweep the cascade's correlation (spread) and burst size (fraction of
//! the origin rack killed); the strategy roster sweeps the error bound —
//! exact `Checkpoint-5s` against `Approx-5s-e{bound}` for each bound —
//! over identical node deaths. Per cell and strategy: recovery
//! completion latency, output fidelity inside the outage window against
//! that strategy's own failure-free golden run, and the approximate
//! backup cadence (shipped vs skipped), i.e. the backup rate each error
//! bound actually buys.

use super::bed::{cascade, Bed};
use super::grid::{cross, Table};
use super::{completion_latency, drive, Strategy};
use crate::runner::RunCtx;
use crate::Figure;
use ppa_engine::RoundRobin;
use ppa_faults::FailureProcess;
use ppa_sim::{SimDuration, SimTime};
use ppa_workloads::outage_fidelity;

const RACK_SIZE: usize = 4;
/// Fidelity is attributed to this window after the failure onset — long
/// enough to contain detection, recovery and the catch-up tail of every
/// strategy in the roster.
const OUTAGE_WINDOW_SECS: u64 = 45;

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

/// One cell × strategy outcome.
struct Outcome {
    /// Recovery completion latency over the non-source tasks (seconds).
    latency: f64,
    /// Fidelity inside the outage window vs this strategy's own golden run.
    fidelity: f64,
    /// Approximate backups shipped / suppressed by the divergence model.
    shipped: u64,
    skipped: u64,
    killed: usize,
}

pub(crate) fn run(ctx: &RunCtx) -> Vec<Figure> {
    let quick = ctx.quick;
    // Cascade spread × burst (fraction of the origin rack killed).
    let (corrs, bursts): (&[f64], &[f64]) = if quick {
        (&[0.0, 0.9], &[1.0])
    } else {
        (&[0.0, 0.5, 0.9], &[0.5, 1.0])
    };
    let cells = cross(corrs, bursts);
    let roster = roster(quick);

    // Each strategy is scored against its own golden run (backup cadence
    // charges CPU, so sink timing is per-strategy).
    let table = Table::run(ctx, &cells, &roster, |&(&corr, &burst), strategy| {
        let bed = Bed::racked(quick, RACK_SIZE, &RoundRobin);
        // One seeded wave pinned to the first worker rack — strategy-
        // independent, so every roster entry replays identical node deaths.
        let trace = cascade(Some(0), corr, burst).generate_seeded(
            bed.racks(),
            SimTime::from_secs(bed.fail_at),
            SimDuration::from_secs(20),
            bed.trace_seed(0xa99c ^ (((burst * 100.0) as u64) << 8), corr),
        );
        let config = bed.config(strategy);
        let golden = bed.golden(config.clone());
        let driven = drive(
            ctx,
            &format!("corr:{corr} burst:{burst}"),
            &bed.scenario,
            strategy,
            config,
            &trace,
            bed.duration,
        );
        let graph = bed.scenario.graph();
        Outcome {
            latency: completion_latency(&driven.report, |t| !graph.is_source_task(t)),
            fidelity: outage_fidelity(
                &golden,
                &driven.report,
                &[(bed.fail_at, bed.fail_at + OUTAGE_WINDOW_SECS)],
                SimDuration::from_secs(5), // one heartbeat of slack
            )[0],
            shipped: driven.metrics.counter("engine.approx.backups_shipped"),
            skipped: driven.metrics.counter("engine.approx.backups_skipped"),
            killed: trace.killed_nodes().len(),
        }
    });

    let x = |&(corr, burst): &(&f64, &f64)| format!("corr:{corr} burst:{burst}");
    // The roster's approximate entries — the backup series exist only
    // for them.
    let approximate = roster
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, Strategy::Approximate { .. }));

    let mut latency = Figure::new(
        "approx_sweep",
        "Recovery completion latency: divergence-bounded approximate vs exact checkpointing",
        "cascade spread x burst fraction",
        "completion latency (s)",
    );
    latency.series = table.by_entry(Strategy::label, x, |o| o.latency);
    let killed = table.column(0, "nodes killed", x, |o| o.killed as f64);
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
        "Fidelity cost of lossy recovery (measured against each strategy's golden run)",
        "cascade spread x burst fraction",
        "output fidelity vs golden run",
    );
    fidelity.series = table.by_entry(Strategy::label, x, |o| o.fidelity);
    fidelity.note(
        "Measured fidelity is on-time per-batch sink volume inside the outage \
         window [fail, fail+45s) against the strategy's own failure-free golden \
         run (5 s lateness budget).",
    );

    let mut backups = Figure::new(
        "approx_sweep_backups",
        "Divergence-driven backup cadence (backups shipped and skipped per error bound)",
        "cascade spread x burst fraction",
        "count over the run",
    );
    for (si, strategy) in approximate {
        let label = strategy.label();
        backups.series.extend([
            table.column(si, format!("shipped ({label})"), x, |o| o.shipped as f64),
            table.column(si, format!("skipped ({label})"), x, |o| o.skipped as f64),
        ]);
    }
    backups.note(
        "A backup ships only when a task's accumulated divergence (tuples \
         absorbed since the last ship) exceeds the error bound; in-bound \
         intervals are skipped. Widening the bound trades backups for drift: \
         larger bounds ship fewer backups and skip more.",
    );

    vec![latency, fidelity, backups]
}
