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

use super::{run_scenario_config, schedule, Strategy};
use crate::runner::RunCtx;
use crate::{Figure, Series};
use ppa_core::{enumerate_mc_trees, McTreeLimits, Planner, StructureAwarePlanner, TaskSet};
use ppa_engine::{
    Cluster, DomainSpread, FailureTrace, Packed, Placement, PlacementStrategy, RoundRobin,
    Simulation,
};
use ppa_faults::{CascadeProcess, FailureProcess};
use ppa_sim::{SimDuration, SimTime};
use ppa_workloads::{batch_fidelity, Fig6Config, Scenario};

/// Cluster shape shared by every cell: the Fig. 6 query's 31 tasks on 12
/// workers, with 12 standby nodes for checkpoints and replicas.
const N_WORKERS: usize = 12;
const N_STANDBY: usize = 12;

/// Rack sizes (the burst unit) of the sweep. Racks are consecutive node
/// ranges over workers *and* standbys, so cascades can take replicas down
/// with their primaries — unless the placement separated them.
fn burst_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![4]
    } else {
        vec![2, 4, 8]
    }
}

/// Cascade spread probabilities (the correlation strength) of the sweep.
fn spreads(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 0.9]
    } else {
        vec![0.0, 0.5, 0.9]
    }
}

/// The placement roster; [`build_placement`] maps a label to the strategy.
fn roster() -> Vec<&'static str> {
    vec!["RoundRobin", "Packed", "DomainSpread"]
}

fn build_placement(name: &str) -> Box<dyn PlacementStrategy> {
    match name {
        "RoundRobin" => Box::new(RoundRobin),
        "Packed" => Box::new(Packed),
        "DomainSpread" => Box::new(DomainSpread::racks()),
        other => unreachable!("unknown placement strategy {other}"),
    }
}

/// The generated trace of one `(burst, corr)` cell, drawn from the cell's
/// cluster tree — placement-independent, so every strategy replays the
/// same node deaths.
fn cell_trace(cluster: &Cluster, spread: f64, fail_at: u64, base_seed: u64) -> FailureTrace {
    let tree = cluster.domains.as_ref().expect("racked cluster has a tree");
    let process = CascadeProcess {
        level: 1,
        spread,
        decay: 0.5,
        hop_delay: SimDuration::from_secs(2),
        fraction: 1.0,
        // Pin the origin to the first rack — always worker infrastructure,
        // under every burst size — so cells compare placements against a
        // strike on comparable hardware instead of a randomly chosen (and
        // possibly consequence-free, all-standby) rack.
        origin: Some(0),
    };
    let seed = base_seed ^ 0x9e37 ^ (((spread * 100.0) as u64) << 20);
    process.generate_seeded(
        tree,
        SimTime::from_secs(fail_at),
        SimDuration::from_secs(60),
        seed,
    )
}

/// Fraction of the graph's MC-trees that remain fully serviceable after
/// the trace's kill set: every task of the tree either kept its primary
/// node or is in the plan with a surviving standby (replica takeover).
/// The structural quantity DomainSpread optimizes, reported next to the
/// measured fidelity it is supposed to explain.
fn surviving_tree_fraction(
    placement: &Placement,
    plan: &TaskSet,
    graph: &ppa_core::model::TaskGraph,
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

/// One cell × strategy outcome.
struct Outcome {
    fidelity: f64,
    surviving: f64,
    killed: usize,
}

pub fn run(ctx: &RunCtx) -> Vec<Figure> {
    let quick = ctx.quick;
    let (fail_at, duration) = schedule(quick);
    let fidelity_window = 60u64;
    let cfg = Fig6Config {
        rate: if quick { 300 } else { 1000 },
        window: SimDuration::from_secs(if quick { 10 } else { 30 }),
        ..Fig6Config::default()
    };
    let bursts = burst_sizes(quick);
    let spreads = spreads(quick);
    let roster = roster();

    // One leaf job per (burst, spread, placement strategy) cell.
    let mut jobs: Vec<(usize, f64, &'static str)> = Vec::new();
    for &b in &bursts {
        for &p in &spreads {
            for &s in &roster {
                jobs.push((b, p, s));
            }
        }
    }
    let outcomes: Vec<Outcome> = ctx.map(jobs, |(rack_size, spread, name)| {
        let cluster = Cluster::racked(N_WORKERS, N_STANDBY, rack_size).expect("positive rack size");
        let trace = cell_trace(&cluster, spread, fail_at, cfg.seed);
        let placement = build_placement(name);
        let scenario: Scenario = ppa_workloads::fig6_scenario(&cfg)
            .placed_with(placement.as_ref(), &cluster)
            .expect("fig6 fits the sweep cluster");
        let n = scenario.graph().n_tasks();
        // Plan against this placement's own node → fault-domain mapping:
        // the planner hedges exactly the rack failures this placement can
        // actually suffer.
        let cx = scenario
            .placement
            .plan_context(scenario.query.topology())
            .expect("fig6 plans against its racked cluster");
        let plan: TaskSet = StructureAwarePlanner::default()
            .plan(&cx, n / 2)
            .expect("SA plan")
            .tasks;
        let strategy = Strategy::Ppa {
            plan: plan.clone(),
            interval_secs: 5,
        };

        // Steady-state tentative sampling (README.md §Design notes 5):
        // replicas take over, everything else stays down for the window.
        let mut config = strategy.config(n, cfg.window, cfg.seed);
        config.passive_recovery = false;

        // Golden run: same placement, no failures — the fidelity baseline
        // (placement-induced CPU contention cancels out).
        let golden = Simulation::run(
            &scenario.query,
            scenario.placement.clone(),
            config.clone(),
            &FailureTrace::new(),
            SimDuration::from_secs(duration),
        );
        let report = run_scenario_config(
            ctx,
            &format!("burst:{rack_size} corr:{spread} place:{name}"),
            &scenario,
            &strategy,
            config,
            &trace,
            duration,
        );
        Outcome {
            fidelity: batch_fidelity(
                &golden,
                &report,
                fail_at,
                fail_at + fidelity_window,
                // One heartbeat of slack: the shared detection gap is
                // forgiven, recovery replay arriving later is not.
                SimDuration::from_secs(5),
            ),
            surviving: surviving_tree_fraction(
                &scenario.placement,
                &plan,
                &scenario.graph(),
                &trace.killed_nodes(),
            ),
            killed: trace.killed_nodes().len(),
        }
    });

    let cell_label = |b: usize, p: f64| format!("burst:{b} corr:{p}");
    let idx = |bi: usize, pi: usize, si: usize| (bi * spreads.len() + pi) * roster.len() + si;

    let mut fidelity = Figure::new(
        "placement_sweep",
        "Post-burst output fidelity per placement strategy",
        "burst size × correlation",
        "output fidelity vs golden run",
    );
    let mut surviving = Figure::new(
        "placement_sweep_trees",
        "Serviceable MC-trees after the burst per placement strategy",
        "burst size × correlation",
        "fraction of MC-trees serviceable",
    );
    for (si, name) in roster.iter().enumerate() {
        let mut f_series = Series::new(*name);
        let mut s_series = Series::new(*name);
        for (bi, &b) in bursts.iter().enumerate() {
            for (pi, &p) in spreads.iter().enumerate() {
                let o = &outcomes[idx(bi, pi, si)];
                f_series.push(cell_label(b, p), o.fidelity);
                s_series.push(cell_label(b, p), o.surviving);
            }
        }
        fidelity.series.push(f_series);
        surviving.series.push(s_series);
    }
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
    let mut killed = Series::new("nodes killed");
    for (bi, &b) in bursts.iter().enumerate() {
        for (pi, &p) in spreads.iter().enumerate() {
            killed.push(cell_label(b, p), outcomes[idx(bi, pi, 0)].killed as f64);
        }
    }
    scale.series.push(killed);
    scale.note("The kill set is identical for every placement strategy in a cell.");

    vec![fidelity, surviving, scale]
}
