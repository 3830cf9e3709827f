//! `corr_sweep`: beyond the paper's fixed §VI-A kill set — a systematic
//! sweep over a *generated* correlated-failure scenario space (the
//! `ppa-faults` cascade process) on the Fig. 6 topology.
//!
//! The sweep has three axes:
//!
//! * **burst size** — the 15 worker nodes are grouped into racks of `b`
//!   consecutive nodes; the origin rack dies as one unit;
//! * **correlation strength** — the burst cascades to sibling racks with
//!   probability `p` (decaying by 0.5 per ring, 2 s per hop), so `p = 0`
//!   is an isolated rack failure and large `p` approaches the paper's
//!   everything-dies-at-once scenario;
//! * **strategy** — checkpoint-only, fully active, and a PPA plan whose
//!   budget is spent against the *rack* failure model: the planner's
//!   correlated-failure sets are derived from the same fault-domain
//!   hierarchy the generator bursts (`PlanContext::with_fault_domains`),
//!   not from an ad-hoc kill list. The derived sets are the *single-rack*
//!   bursts; cells with `p > 0` replay multi-rack cascades, deliberately
//!   stressing the plan beyond the failure space it hedged against.
//!
//! Every `(b, p)` cell generates one trace (seeded; identical across
//! worker counts) and replays it under each strategy, so strategies are
//! compared on identical failures. Reported latency: detection → last
//! failed task restored (the Fig. 8 completion metric).

use super::bed::{cascade, cell_label, Bed};
use super::grid::{cross, Table};
use super::{completion_latency, drive, half_plan, Strategy};
use crate::runner::RunCtx;
use crate::Figure;
use ppa_core::PlanContext;
use ppa_faults::FailureProcess;
use ppa_sim::{SimDuration, SimTime};

pub(crate) fn run(ctx: &RunCtx) -> Vec<Figure> {
    let quick = ctx.quick;
    // Rack sizes (the burst unit) × cascade spread probabilities (the
    // correlation strength).
    let bursts: &[usize] = if quick { &[1, 5] } else { &[1, 5, 15] };
    let spreads: &[f64] = if quick { &[0.0, 0.9] } else { &[0.0, 0.5, 0.9] };
    let cells = cross(bursts, spreads);
    // The roster; `None` is PPA-half, whose plan depends on the cell's
    // rack size and so is built per cell.
    let mut roster = vec![
        Some(Strategy::Checkpoint { interval_secs: 5 }),
        None,
        Some(Strategy::Active { sync_secs: 5 }),
    ];
    if !quick {
        roster.push(Some(Strategy::Storm));
    }

    // Each job yields (completion latency, nodes the trace killed).
    let table = Table::run(ctx, &cells, &roster, |cell, fixed| {
        let (&rack_size, &spread) = *cell;
        let bed = Bed::dedicated(quick);
        let tree = bed.scenario.worker_fault_domains(rack_size);
        let trace = cascade(None, spread, 1.0).generate_seeded(
            &tree,
            SimTime::from_secs(bed.fail_at),
            SimDuration::from_secs(60),
            bed.trace_seed((rack_size as u64) << 8, spread),
        );
        let strategy = fixed.clone().unwrap_or_else(|| {
            // Plan against the cell's own rack failure model: the planner
            // hedges against any single rack of this burst size failing.
            // Cascades (p > 0) kill several racks, so high-correlation
            // cells test the plan outside its planned-for failure space.
            let cx = PlanContext::with_fault_domains(
                bed.scenario.query.topology(),
                &tree,
                &bed.scenario.placement.primary,
            )
            .expect("fig6 plans");
            Strategy::Ppa {
                plan: half_plan(&cx),
                interval_secs: 5,
            }
        });
        let report = drive(
            ctx,
            &cell_label(cell),
            &bed.scenario,
            &strategy,
            bed.config(&strategy),
            &trace,
            bed.duration,
        )
        .report;
        let graph = bed.scenario.graph();
        let latency = completion_latency(&report, |t| !graph.is_source_task(t));
        (latency, trace.killed_nodes().len())
    });

    let mut fig = Figure::new(
        "corr_sweep",
        "Recovery completion across generated correlated-failure scenarios",
        "burst size × correlation",
        "recovery latency (s)",
    );
    fig.series = table.by_entry(
        |fixed| fixed.as_ref().map_or("PPA-half-5s".into(), Strategy::label),
        cell_label,
        |o| o.0,
    );
    fig.note(
        "Beyond the paper: scenarios generated by the ppa-faults cascade process \
         (racks of `burst` nodes; spread probability `corr`, decay 0.5/ring, 2s/hop) \
         instead of a hand-picked kill set. Every cell replays one seeded trace under \
         each strategy; PPA-half plans against the cell's fault-domain hierarchy.",
    );

    let mut scale = Figure::new(
        "corr_sweep_scale",
        "Blast radius of the generated scenarios",
        "burst size × correlation",
        "worker nodes killed (of 15)",
    );
    scale.series = vec![table.column(0, "nodes killed", cell_label, |o| o.1 as f64)];
    scale.note(
        "The kill set is identical for every strategy in a cell; correlation strength \
         multiplies the blast radius of a fixed-size burst.",
    );

    vec![fig, scale]
}
