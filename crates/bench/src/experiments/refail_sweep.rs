//! `refail_sweep`: what does *honest* re-failure accounting change? The
//! paper's recovery guarantees (§VI) assume a task can fail again after
//! its replica takes over; this experiment replays exactly that scenario
//! — two cascade waves, the second aimed at the standby racks hosting
//! the replicas the first wave activated — and measures the fidelity gap
//! between the static baseline and the domain-health control policy.
//!
//! Every cell builds the `adaptive_sweep` cluster (12 workers + 12
//! standbys, racks of 4 spanning the worker/standby boundary), places
//! the Fig. 6 query round-robin with a PPA-`n/2` plan built against the
//! placement's own rack mapping, and replays one seeded two-wave failure
//! scenario:
//!
//! * **wave 1** — a cascade pinned to the first worker rack: primaries
//!   die, their replicas on the aligned standby rack take over;
//! * **wave 2** — 30 s later, a cascade pinned to the first *standby*
//!   rack: the activated replicas die. Under the one-shot bookkeeping
//!   this PR replaced, these tasks kept their first `recovered_at` and
//!   were silently treated as healthy — no re-detection, no proxying, no
//!   second recovery. With the lifecycle state machine each one opens a
//!   second `OutageRecord` and re-enters the outage path.
//!
//! Both policies replay identical node deaths; passive recovery is held
//! down (steady-state tentative sampling), so a re-failed task comes
//! back only if the control plane re-homes its dead standby and
//! re-establishes its replica. Reported per cell: output fidelity inside
//! the second outage's own window — the window boundaries come from
//! `ppa_workloads::outage_windows` over the static run's outage
//! histories (both policies replay the same node deaths, so the static
//! run's onsets are the scenario's outage boundaries), so the first
//! wave's recovered output cannot dilute the second wave's loss — plus
//! the re-failure histories (second outages opened, second recoveries
//! completed) behind the gap.

use super::bed::{cascade, Bed, N_WORKERS};
use super::grid::Table;
use super::{drive, Strategy};
use crate::runner::RunCtx;
use crate::Figure;
use ppa_engine::{DriveReport, FailureTrace, RoundRobin};
use ppa_faults::FailureProcess;
use ppa_sim::{SimDuration, SimTime};
use ppa_workloads::{outage_fidelity, outage_windows};

const RACK_SIZE: usize = 4;
/// Wave 2 lands this long after wave 1 — past detection and takeover, so
/// the second wave kills *activated* replicas, not muted ones.
const WAVE_GAP_SECS: u64 = 30;
/// The control policies compared inside every cell, static first.
const POLICIES: [&str; 2] = ["static", "domain-health"];

/// The two-wave trace of a cell: wave 1 from the first worker rack, wave
/// 2 from the first standby rack (the rack `RoundRobin` aligns with the
/// first worker rack's standbys). Policy-independent, so both series
/// replay identical node deaths.
fn two_wave_trace(bed: &Bed, corr: f64) -> FailureTrace {
    let wave = |origin: usize, start_secs: u64, salt: u64| {
        cascade(Some(origin), corr, 1.0).generate_seeded(
            bed.racks(),
            SimTime::from_secs(start_secs),
            SimDuration::from_secs(20),
            bed.trace_seed(salt, corr),
        )
    };
    let mut trace = wave(0, bed.fail_at, 0x2ef1);
    let standby_origin = N_WORKERS / RACK_SIZE; // first standby rack
    for e in wave(standby_origin, bed.fail_at + WAVE_GAP_SECS, 0x2ef2).events() {
        trace.push(e.at, e.nodes.clone());
    }
    trace
}

/// One policy's outcome within a cell.
struct PolicyOutcome {
    /// Fidelity inside the first outage window `[wave1, wave2)`.
    fidelity_w1: f64,
    /// Fidelity inside the second outage window `[wave2, wave2 + 45 s)`.
    fidelity_w2: f64,
    /// Second outages opened (tasks whose activated replica died).
    refails: usize,
    /// Second outages that recovered within the run.
    second_recoveries: usize,
}

/// One cell's outcome: both policies over the identical kill set.
struct Outcome {
    by_policy: [PolicyOutcome; 2],
    killed: usize,
}

pub(crate) fn run(ctx: &RunCtx) -> Vec<Figure> {
    let quick = ctx.quick;
    // One cell per spread probability, shared by both cascade waves.
    let cells: &[f64] = if quick { &[0.0, 0.9] } else { &[0.0, 0.5, 0.9] };

    // One leaf job per cell: both policies share the trace, plan and
    // golden run, and the outage windows are derived once from the static
    // run's own histories.
    let table = Table::run(ctx, cells, &[()], |&corr, ()| {
        let base = Bed::racked(quick, RACK_SIZE, &RoundRobin);
        let trace = two_wave_trace(&base, corr);
        let strategy = Strategy::Ppa {
            plan: base.half_plan(),
            interval_secs: 5,
        };
        // Steady-state tentative sampling: a re-failed task comes back
        // only through the control plane.
        let config = || base.held_down(&strategy);
        let golden = base.golden(config());
        let run_on = |bed: &Bed, policy: &str| -> DriveReport {
            drive(
                ctx,
                &format!("corr:{corr} policy:{policy}"),
                &bed.scenario,
                &strategy,
                config(),
                &trace,
                bed.duration,
            )
        };
        let static_run = run_on(&base, POLICIES[0]);
        let adaptive = Bed::racked(quick, RACK_SIZE, &RoundRobin).with_domain_health();
        let adaptive_run = run_on(&adaptive, POLICIES[1]);

        // Attribute fidelity to each wave's own outage window: the
        // boundaries come from the static run's outage histories (both
        // runs replay identical node deaths), split at the first onset
        // of the second wave.
        let wave2 = base.fail_at + WAVE_GAP_SECS;
        let batch = config().batch_interval;
        let w2_start = outage_windows(&static_run.report, batch, base.duration)
            .iter()
            .map(|&(from, _)| from)
            .find(|&b| b >= wave2)
            .unwrap_or(wave2);
        let windows = [(base.fail_at, w2_start), (w2_start, w2_start + 45)];
        let outcome = |driven: &DriveReport| -> PolicyOutcome {
            let scores = outage_fidelity(
                &golden,
                &driven.report,
                &windows,
                SimDuration::from_secs(5), // one heartbeat of slack
            );
            // Both series count TASKS (a re-established replica dying in
            // a later hop appends a third record; it must not inflate one
            // series but not the other): a task re-failed if it has ≥ 2
            // records, and its re-failure is closed if its LAST outage
            // recovered.
            let refailed: Vec<_> = driven
                .report
                .outages
                .iter()
                .filter(|o| o.records.len() >= 2)
                .collect();
            PolicyOutcome {
                fidelity_w1: scores[0],
                fidelity_w2: scores[1],
                refails: refailed.len(),
                second_recoveries: refailed
                    .iter()
                    .filter(|o| o.records.last().is_some_and(|r| r.recovered_at.is_some()))
                    .count(),
            }
        };
        Outcome {
            by_policy: [outcome(&static_run), outcome(&adaptive_run)],
            killed: trace.killed_nodes().len(),
        }
    });

    let x = |corr: &f64| format!("corr:{corr}");

    let mut fidelity = Figure::new(
        "refail_sweep",
        "Output fidelity inside the second outage window (activated replicas killed)",
        "cascade spread",
        "output fidelity vs golden run",
    );
    for (pi, policy) in POLICIES.iter().enumerate() {
        let w2 = table.column(0, *policy, x, |o| o.by_policy[pi].fidelity_w2);
        fidelity.series.push(w2);
    }
    let w1 = table.column(0, "static (first window)", x, |o| {
        o.by_policy[0].fidelity_w1
    });
    fidelity.series.push(w1);
    fidelity.note(
        "Two seeded cascade waves 30 s apart: wave 1 hits the first worker rack \
         (replicas take over), wave 2 hits the standby rack hosting those activated \
         replicas. Fidelity is measured inside each wave's own outage window \
         (boundaries from outage_windows over the static run's outage histories; \
         on-time per-batch sink volume vs a failure-free run, 5 s lateness budget), \
         so wave 1's recovered output cannot dilute wave 2's loss. Passive recovery \
         is held down: under the static policy a re-failed task only re-enters the \
         tentative-output path (honest re-detection and re-proxying — before the \
         lifecycle refactor it was silently counted as recovered and the sink \
         stalled); the domain-health policy additionally re-homes the dead standbys \
         and re-establishes replicas, closing the second outage.",
    );

    let mut histories = Figure::new(
        "refail_sweep_outages",
        "Re-failure histories behind the fidelity gap",
        "cascade spread",
        "count",
    );
    for (pi, policy) in POLICIES.iter().enumerate() {
        let refails = format!("second outages ({policy})");
        let recovered = format!("second recoveries ({policy})");
        histories.series.extend([
            table.column(0, refails, x, |o| o.by_policy[pi].refails as f64),
            table.column(0, recovered, x, |o| {
                o.by_policy[pi].second_recoveries as f64
            }),
        ]);
    }
    let killed = table.column(0, "nodes killed", x, |o| o.killed as f64);
    histories.series.push(killed);
    histories.note(
        "Second outages = tasks that re-failed at least once — an activated replica \
         died after takeover (an honest re-failure record; the pre-refactor runtime \
         recorded none). Second recoveries = re-failed tasks whose LAST outage \
         recovered within the run — only the domain-health policy can close them \
         here, by re-homing dead standbys and re-establishing replicas through \
         AdaptivePlanner::step. The kill set is identical for both policies in a \
         cell.",
    );

    vec![fidelity, histories]
}
