//! `adaptive_sweep`: does *reacting* to correlated failures buy output
//! fidelity? The paper plans replication ahead of time (§IV) and sketches
//! §V-C's plan adaptation as future work; this experiment closes the loop
//! through the engine's control plane and measures what the loop is
//! worth.
//!
//! Every cell builds the `placement_sweep` cluster (12 workers + 12
//! standbys, racks of `burst` consecutive nodes spanning the
//! worker/standby boundary), places the Fig. 6 query round-robin (the
//! engine's historical domain-blind default — exactly the layout a
//! control plane has to rescue) with a PPA-`n/2` plan built against the
//! placement's own rack mapping, and replays one seeded failure scenario
//! under two control policies:
//!
//! * **static** — the no-op policy: nobody at the controls, so this
//!   series is the pre-control-plane baseline;
//! * **domain-health** — on every failure hook, evacuate the degraded
//!   rack's neighbours (one ring — cascades spread outward, so the
//!   adjacent racks are the likeliest next victims) and re-plan active
//!   replication via `AdaptivePlanner::step` against the migrated
//!   placement, re-establishing replicas the burst destroyed.
//!
//! Scenario axes: cascade cells sweep burst size × spread probability
//! (the `corr_sweep` grid); a `weibull` cell replaces the burst with the
//! non-memoryless per-node hazard (`WeibullProcess`, infant-mortality
//! shape), where failures drip one by one and the health signal decays
//! between them. As in the other accuracy experiments, passive recovery
//! is held down so each cell samples steady-state tentative quality —
//! any task the control plane does not rescue stays down.
//!
//! Reported: post-burst output fidelity per policy (vs a golden run of
//! the same placement) and the control actions each cell took.

use super::bed::{cascade, cell_label, Bed};
use super::grid::{cross, Table};
use super::{drive, Strategy};
use crate::runner::RunCtx;
use crate::Figure;
use ppa_engine::{FailureTrace, RoundRobin};
use ppa_faults::{FailureProcess, WeibullProcess};
use ppa_sim::{SimDuration, SimTime};
use ppa_workloads::batch_fidelity;

/// One failure-scenario cell of the sweep.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// A seeded cascade: racks of `burst` nodes, spread probability
    /// `corr`, origin pinned to the first (always-worker) rack.
    Cascade { burst: usize, corr: f64 },
    /// The non-memoryless per-node hazard: Weibull inter-failure gaps
    /// with the given shape over racks of 4.
    Weibull { shape: f64 },
}

impl Cell {
    fn label(&self) -> String {
        match self {
            Cell::Cascade { burst, corr } => cell_label(&(burst, corr)),
            Cell::Weibull { shape } => format!("weibull k:{shape}"),
        }
    }

    fn rack_size(&self) -> usize {
        match self {
            Cell::Cascade { burst, .. } => *burst,
            Cell::Weibull { .. } => 4,
        }
    }

    /// The cell's failure trace, drawn from the bed's rack tree — policy-
    /// independent, so both policies replay identical node deaths.
    fn trace(&self, bed: &Bed) -> FailureTrace {
        let start = SimTime::from_secs(bed.fail_at);
        let horizon = SimDuration::from_secs(60);
        match *self {
            Cell::Cascade { corr, .. } => cascade(Some(0), corr, 1.0).generate_seeded(
                bed.racks(),
                start,
                horizon,
                bed.trace_seed(0xada9, corr),
            ),
            Cell::Weibull { shape } => WeibullProcess {
                shape,
                // ~64 node-minutes per failure over 24 nodes: a
                // steady drip of several deaths in the window.
                scale: SimDuration::from_secs(3840),
            }
            .generate_seeded(
                bed.racks(),
                start,
                horizon,
                bed.trace_seed(0xeb11, shape),
            ),
        }
    }
}

fn cells(quick: bool) -> Vec<Cell> {
    let (bursts, corrs, shapes): (&[usize], &[f64], &[f64]) = if quick {
        (&[4], &[0.0, 0.9], &[0.7])
    } else {
        (&[2, 4, 8], &[0.0, 0.5, 0.9], &[0.7, 1.5])
    };
    let cascades = cross(bursts, corrs)
        .into_iter()
        .map(|(&burst, &corr)| Cell::Cascade { burst, corr });
    cascades
        .chain(shapes.iter().map(|&shape| Cell::Weibull { shape }))
        .collect()
}

/// One cell × policy outcome.
struct Outcome {
    fidelity: f64,
    migrated: usize,
    activated: usize,
    killed: usize,
}

pub(crate) fn run(ctx: &RunCtx) -> Vec<Figure> {
    let quick = ctx.quick;
    let cells = cells(quick);
    // The policy roster: (series label, domain-health attached?).
    let roster = [("static", false), ("domain-health", true)];

    let table = Table::run(ctx, &cells, &roster, |cell, &(policy, adaptive)| {
        // Round-robin: the engine's historical domain-blind default —
        // exactly the layout a control plane has to rescue.
        let bed = Bed::racked(quick, cell.rack_size(), &RoundRobin);
        let trace = cell.trace(&bed);
        // The initial plan hedges the placement's own rack mapping —
        // identical under both policies; only the control loop differs.
        let strategy = Strategy::Ppa {
            plan: bed.half_plan(),
            interval_secs: 5,
        };
        let bed = if adaptive {
            bed.with_domain_health()
        } else {
            bed
        };
        // Steady-state tentative sampling: whatever the control plane
        // does not rescue stays down for the window.
        let config = bed.held_down(&strategy);
        let golden = bed.golden(config.clone());
        let driven = drive(
            ctx,
            &format!("{} policy:{policy}", cell.label()),
            &bed.scenario,
            &strategy,
            config,
            &trace,
            bed.duration,
        );
        Outcome {
            fidelity: batch_fidelity(
                &golden,
                &driven.report,
                bed.fail_at,
                bed.fail_at + 60,
                // One heartbeat of slack, as in placement_sweep.
                SimDuration::from_secs(5),
            ),
            migrated: driven.tasks_migrated(),
            activated: driven.replicas_activated(),
            killed: trace.killed_nodes().len(),
        }
    });

    let mut fidelity = Figure::new(
        "adaptive_sweep",
        "Post-failure output fidelity per control policy",
        "failure scenario",
        "output fidelity vs golden run",
    );
    fidelity.series = table.by_entry(
        |(policy, _)| policy.to_string(),
        Cell::label,
        |o| o.fidelity,
    );
    fidelity.note(
        "Fidelity = on-time per-batch sink volume over the 60 s after the first \
         failure, relative to a failure-free run of the same placement (5 s lateness \
         budget). Every cell replays one seeded scenario under both policies with \
         passive recovery held down: the static series is the legacy no-control-plane \
         baseline, the domain-health \
         series evacuates degraded racks' neighbours and re-plans replication \
         through AdaptivePlanner::step against the migrated placement.",
    );

    let mut actions = Figure::new(
        "adaptive_sweep_actions",
        "Control actions taken by the domain-health policy",
        "failure scenario",
        "count",
    );
    actions.series = vec![
        table.column(1, "tasks migrated", Cell::label, |o| o.migrated as f64),
        table.column(1, "replicas established", Cell::label, |o| {
            o.activated as f64
        }),
        table.column(1, "nodes killed", Cell::label, |o| o.killed as f64),
    ];
    actions.note(
        "Interventions behind the fidelity differences: primaries/standbys evacuated \
         off degraded racks and their neighbours, and replicas (re-)established by \
         the post-failure replans. The kill set is identical for both policies in a \
         cell.",
    );

    vec![fidelity, actions]
}
