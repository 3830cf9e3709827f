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

use super::{drive_scenario_config, schedule, Strategy};
use crate::runner::RunCtx;
use crate::{Figure, Series};
use ppa_core::{Planner, StructureAwarePlanner, TaskSet};
use ppa_engine::{Cluster, DomainHealthPolicy, DriveReport, FailureTrace, RoundRobin, Simulation};
use ppa_faults::{CascadeProcess, FailureProcess, WeibullProcess};
use ppa_sim::{SimDuration, SimTime};
use ppa_workloads::{batch_fidelity, Fig6Config, Scenario};

/// Cluster shape shared by every cell (the `placement_sweep` cluster).
const N_WORKERS: usize = 12;
const N_STANDBY: usize = 12;

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
            Cell::Cascade { burst, corr } => format!("burst:{burst} corr:{corr}"),
            Cell::Weibull { shape } => format!("weibull k:{shape}"),
        }
    }

    fn rack_size(&self) -> usize {
        match self {
            Cell::Cascade { burst, .. } => *burst,
            Cell::Weibull { .. } => 4,
        }
    }

    /// The cell's failure trace, drawn from the cluster's tree — policy-
    /// independent, so both policies replay identical node deaths.
    fn trace(&self, cluster: &Cluster, fail_at: u64, base_seed: u64) -> FailureTrace {
        let tree = cluster.domains.as_ref().expect("racked cluster has a tree");
        let start = SimTime::from_secs(fail_at);
        let horizon = SimDuration::from_secs(60);
        match self {
            Cell::Cascade { corr, .. } => {
                let process = CascadeProcess {
                    level: 1,
                    spread: *corr,
                    decay: 0.5,
                    hop_delay: SimDuration::from_secs(2),
                    fraction: 1.0,
                    // Pinned to the first rack — always worker
                    // infrastructure under every burst size.
                    origin: Some(0),
                };
                let seed = base_seed ^ 0xada9 ^ (((corr * 100.0) as u64) << 20);
                process.generate_seeded(tree, start, horizon, seed)
            }
            Cell::Weibull { shape } => {
                let process = WeibullProcess {
                    shape: *shape,
                    // ~64 node-minutes per failure over 24 nodes: a
                    // steady drip of several deaths in the window.
                    scale: SimDuration::from_secs(3840),
                };
                let seed = base_seed ^ 0xeb11 ^ (((shape * 100.0) as u64) << 20);
                process.generate_seeded(tree, start, horizon, seed)
            }
        }
    }
}

fn cells(quick: bool) -> Vec<Cell> {
    if quick {
        vec![
            Cell::Cascade {
                burst: 4,
                corr: 0.0,
            },
            Cell::Cascade {
                burst: 4,
                corr: 0.9,
            },
            Cell::Weibull { shape: 0.7 },
        ]
    } else {
        let mut out = Vec::new();
        for burst in [2usize, 4, 8] {
            for corr in [0.0, 0.5, 0.9] {
                out.push(Cell::Cascade { burst, corr });
            }
        }
        out.push(Cell::Weibull { shape: 0.7 });
        out.push(Cell::Weibull { shape: 1.5 });
        out
    }
}

/// The policy roster as series labels.
fn roster() -> Vec<&'static str> {
    vec!["static", "domain-health"]
}

/// One cell × policy outcome.
struct Outcome {
    fidelity: f64,
    migrated: usize,
    activated: usize,
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
    let cells = cells(quick);
    let roster = roster();

    // One leaf job per (cell, policy).
    let mut jobs: Vec<(Cell, &'static str)> = Vec::new();
    for &c in &cells {
        for &p in &roster {
            jobs.push((c, p));
        }
    }
    let outcomes: Vec<Outcome> = ctx.map(jobs, |(cell, policy_name)| {
        let cluster =
            Cluster::racked(N_WORKERS, N_STANDBY, cell.rack_size()).expect("positive rack size");
        let trace = cell.trace(&cluster, fail_at, cfg.seed);
        let scenario: Scenario = ppa_workloads::fig6_scenario(&cfg)
            .placed_with(&RoundRobin, &cluster)
            .expect("fig6 fits the sweep cluster");
        let n = scenario.graph().n_tasks();
        // The initial plan hedges the placement's own rack mapping —
        // identical under both policies; only the control loop differs.
        let cx = scenario
            .placement
            .plan_context(scenario.query.topology())
            .expect("fig6 plans against its racked cluster");
        let plan: TaskSet = StructureAwarePlanner::default()
            .plan(&cx, n / 2)
            .expect("SA plan")
            .tasks;
        let strategy = Strategy::Ppa {
            plan,
            interval_secs: 5,
        };
        let scenario = if policy_name == "domain-health" {
            let budget = n / 2;
            scenario.with_policy(move || Box::new(DomainHealthPolicy::new(Some(budget))))
        } else {
            scenario
        };

        // Steady-state tentative sampling: whatever the control plane
        // does not rescue stays down for the window.
        let mut config = strategy.config(n, cfg.window, cfg.seed);
        config.passive_recovery = false;

        // Golden run: same placement, no failures, static policy.
        let golden = Simulation::run(
            &scenario.query,
            scenario.placement.clone(),
            config.clone(),
            &FailureTrace::new(),
            SimDuration::from_secs(duration),
        );
        let driven: DriveReport = drive_scenario_config(
            ctx,
            &format!("{} policy:{policy_name}", cell.label()),
            &scenario,
            &strategy,
            config,
            &trace,
            duration,
        );
        Outcome {
            fidelity: batch_fidelity(
                &golden,
                &driven.report,
                fail_at,
                fail_at + fidelity_window,
                // One heartbeat of slack, as in placement_sweep.
                SimDuration::from_secs(5),
            ),
            migrated: driven.tasks_migrated(),
            activated: driven.replicas_activated(),
            killed: trace.killed_nodes().len(),
        }
    });

    let idx = |ci: usize, pi: usize| ci * roster.len() + pi;

    let mut fidelity = Figure::new(
        "adaptive_sweep",
        "Post-failure output fidelity per control policy",
        "failure scenario",
        "output fidelity vs golden run",
    );
    for (pi, name) in roster.iter().enumerate() {
        let mut series = Series::new(*name);
        for (ci, cell) in cells.iter().enumerate() {
            series.push(cell.label(), outcomes[idx(ci, pi)].fidelity);
        }
        fidelity.series.push(series);
    }
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
    let mut migrated = Series::new("tasks migrated");
    let mut activated = Series::new("replicas established");
    let mut killed = Series::new("nodes killed");
    for (ci, cell) in cells.iter().enumerate() {
        let o = &outcomes[idx(ci, 1)];
        migrated.push(cell.label(), o.migrated as f64);
        activated.push(cell.label(), o.activated as f64);
        killed.push(cell.label(), o.killed as f64);
    }
    actions.series.push(migrated);
    actions.series.push(activated);
    actions.series.push(killed);
    actions.note(
        "Interventions behind the fidelity differences: primaries/standbys evacuated \
         off degraded racks and their neighbours, and replicas (re-)established by \
         the post-failure replans. The kill set is identical for both policies in a \
         cell.",
    );

    vec![fidelity, actions]
}
