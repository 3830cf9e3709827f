//! `placement_sweep`: does *where* tasks land matter as much as *what* is
//! replicated? The paper plans replication against correlated failures
//! (§IV) but places tasks by hand; this experiment sweeps the placement
//! strategy itself under the `corr_sweep` burst/cascade grid.
//!
//! Every cell `(burst, corr)` builds one cluster (12 workers + 12
//! standbys, racks of `burst` consecutive nodes spanning the
//! worker/standby boundary) and generates one seeded cascade trace from
//! that cluster's fault-domain tree — identical for every placement
//! strategy, so strategies are compared on identical failures. The origin
//! rack is pinned to the first (always-worker) rack so every cell strikes
//! comparable infrastructure. Each strategy then places the Fig. 6 query
//! onto the cluster:
//!
//! * **RoundRobin** — the engine's historical topology-blind default;
//! * **Packed** — fill nodes sequentially (the adversarial baseline:
//!   whole operator layers share racks);
//! * **DomainSpread** — anti-affinity against the cell's racks: MC-trees
//!   spread across domains, every primary/standby pair split across
//!   domains.
//!
//! All runs use the same fault-tolerance strategy — a PPA plan with an
//! `n/2` budget planned via `Placement::plan_context`, i.e. against the
//! correlated-failure sets of that placement's *actual* node → domain
//! mapping. As in the Fig. 12/13 accuracy experiments (README.md §Design
//! notes), passive recovery is held down so the run samples the plan's
//! *steady-state* tentative quality under that placement: replicas take
//! over, everything else stays dead, and the sink keeps producing
//! degraded output through proxy punctuations. Reported: post-burst
//! output fidelity (on-time sink volume vs a golden run of the same
//! placement, so placement-induced CPU contention cancels out) and the
//! structural surviving-MC-tree fraction that explains it.

use super::bed::{cascade, cell_label, Bed, N_STANDBY, N_WORKERS};
use super::grid::{cross, Table};
use super::{drive, Strategy};
use crate::runner::RunCtx;
use crate::Figure;
use ppa_core::{enumerate_mc_trees, McTreeLimits, TaskSet};
use ppa_engine::{DomainSpread, Packed, Placement, PlacementStrategy, RoundRobin};
use ppa_faults::FailureProcess;
use ppa_sim::{SimDuration, SimTime};
use ppa_workloads::batch_fidelity;

/// Fraction of the graph's MC-trees that remain fully serviceable after
/// the trace's kill set: every task of the tree either kept its primary
/// node or is in the plan with a surviving standby (replica takeover).
/// The structural quantity DomainSpread optimizes, reported next to the
/// measured fidelity it is supposed to explain.
fn surviving_tree_fraction(
    placement: &Placement,
    plan: &TaskSet,
    graph: &ppa_core::TaskGraph,
    killed: &[usize],
) -> f64 {
    let trees = enumerate_mc_trees(graph, McTreeLimits::default()).expect("fig6 enumerates");
    let dead = |node: usize| killed.binary_search(&node).is_ok();
    let alive = trees
        .iter()
        .filter(|tree| {
            tree.iter().all(|t| {
                !dead(placement.primary[t.0]) || (plan.contains(t) && !dead(placement.standby[t.0]))
            })
        })
        .count();
    alive as f64 / trees.len().max(1) as f64
}

/// One cell × placement outcome.
struct Outcome {
    fidelity: f64,
    surviving: f64,
    killed: usize,
}

pub(crate) fn run(ctx: &RunCtx) -> Vec<Figure> {
    let quick = ctx.quick;
    // Rack sizes (the burst unit) × cascade spread probabilities.
    let bursts: &[usize] = if quick { &[4] } else { &[2, 4, 8] };
    let spreads: &[f64] = if quick { &[0.0, 0.9] } else { &[0.0, 0.5, 0.9] };
    let cells = cross(bursts, spreads);
    let spread_racks = DomainSpread::racks();
    let roster: [&(dyn PlacementStrategy + Sync); 3] = [&RoundRobin, &Packed, &spread_racks];

    let table = Table::run(ctx, &cells, &roster, |cell, &placement| {
        let (&rack_size, &spread) = *cell;
        let bed = Bed::racked(quick, rack_size, placement);
        // Drawn from the cluster tree — placement-independent. The origin
        // is pinned to the first rack — always worker infrastructure,
        // under every burst size — so cells compare placements against a
        // strike on comparable hardware instead of a randomly chosen (and
        // possibly consequence-free, all-standby) rack.
        let trace = cascade(Some(0), spread, 1.0).generate_seeded(
            bed.racks(),
            SimTime::from_secs(bed.fail_at),
            SimDuration::from_secs(60),
            bed.trace_seed(0x9e37, spread),
        );
        let plan = bed.half_plan();
        let strategy = Strategy::Ppa {
            plan: plan.clone(),
            interval_secs: 5,
        };
        let config = bed.held_down(&strategy);
        let golden = bed.golden(config.clone());
        let report = drive(
            ctx,
            &format!("{} place:{}", cell_label(cell), placement.name()),
            &bed.scenario,
            &strategy,
            config,
            &trace,
            bed.duration,
        )
        .report;
        Outcome {
            fidelity: batch_fidelity(
                &golden,
                &report,
                bed.fail_at,
                bed.fail_at + 60,
                // One heartbeat of slack: the shared detection gap is
                // forgiven, recovery replay arriving later is not.
                SimDuration::from_secs(5),
            ),
            surviving: surviving_tree_fraction(
                &bed.scenario.placement,
                &plan,
                &bed.scenario.graph(),
                &trace.killed_nodes(),
            ),
            killed: trace.killed_nodes().len(),
        }
    });

    let name = |p: &&(dyn PlacementStrategy + Sync)| p.name().to_string();

    let mut fidelity = Figure::new(
        "placement_sweep",
        "Post-burst output fidelity per placement strategy",
        "burst size × correlation",
        "output fidelity vs golden run",
    );
    fidelity.series = table.by_entry(name, cell_label, |o| o.fidelity);
    fidelity.note(
        "Fidelity = on-time per-batch sink volume over the 60 s after the burst, \
         relative to a failure-free run of the same placement (1.0 = nothing lost; \
         5 s lateness budget). Every cell replays one seeded cascade trace under all \
         three placements with passive recovery held down, so the number is the \
         steady-state tentative quality of the placement + its PPA-n/2 plan (planned \
         against the placement's actual node-to-rack mapping via Placement::plan_context). \
         DomainSpread's anti-affinity keeps tentative output flowing where Packed \
         loses whole operator layers.",
    );

    let mut surviving = Figure::new(
        "placement_sweep_trees",
        "Serviceable MC-trees after the burst per placement strategy",
        "burst size × correlation",
        "fraction of MC-trees serviceable",
    );
    surviving.series = table.by_entry(name, cell_label, |o| o.surviving);
    surviving.note(
        "Structural view of the same cells: an MC-tree is serviceable when each of \
         its tasks kept its primary node or has a planned replica on a surviving \
         standby. Racks span the worker/standby boundary, so packed placements can \
         lose a primary together with its replica.",
    );

    let mut scale = Figure::new(
        "placement_sweep_scale",
        "Blast radius of the placement-sweep scenarios",
        "burst size × correlation",
        format!("nodes killed (of {})", N_WORKERS + N_STANDBY),
    );
    scale.series = vec![table.column(0, "nodes killed", cell_label, |o| o.killed as f64)];
    scale.note("The kill set is identical for every placement strategy in a cell.");

    vec![fidelity, surviving, scale]
}
