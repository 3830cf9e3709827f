//! One module per reproduced figure, all of one shape: **axes → cell
//! closure → columns → notes**.
//!
//! * **Axes.** An experiment names its *cells* (the configurations on the
//!   x-axis; `grid::cross` spells a two-axis product) and its *roster*
//!   (the strategies, placements or policies compared — one series each).
//! * **Cell closure.** `grid::Table::run` calls it once per (cell, roster
//!   entry) as a leaf job on [`RunCtx::map`]. A closure builds its
//!   scenario, pushes one simulated run through `drive` — the only
//!   driver, which also logs the run for the JSON reporter and
//!   `--trace-dir` — and returns the numbers it measured. Each job derives
//!   its randomness from its own seed, so results are identical for any
//!   worker count.
//! * **Columns.** The table comes back addressed by cell and roster entry;
//!   `grid::Table::by_entry` projects it to one series per roster entry,
//!   `grid::Table::column` to one series per measured column.
//! * **Notes.** What the paper's figure looks like, or what the sweep
//!   shows beyond it.
//!
//! The five failure sweeps share one test bed (`bed::Bed`: the
//! sweep-scale Fig. 6 scenario, optionally placed on the racked 12 + 12
//! cluster, and the cascade they draw failures from); the steps any
//! experiment may need (`half_plan`, `held_down`, `completion_latency`)
//! live here. `fig14` and `chaos_swarm` are not grids of failure runs and
//! submit their own jobs.

pub(crate) mod adaptive_sweep;
pub(crate) mod approx_sweep;
mod bed;
pub mod chaos_swarm;
pub(crate) mod corr_sweep;
pub(crate) mod fig07;
pub(crate) mod fig08;
pub(crate) mod fig09;
pub(crate) mod fig10;
pub(crate) mod fig12;
pub(crate) mod fig13;
pub(crate) mod fig14;
mod grid;
pub(crate) mod placement_sweep;
pub(crate) mod refail_sweep;
pub(crate) mod tentative;

use crate::runner::{RunCtx, RunLog, TraceLog};
use crate::stopwatch::Stopwatch;
use ppa_core::{PlanContext, Planner, StructureAwarePlanner, TaskSet};
use ppa_engine::{DriveReport, EngineConfig, FailureTrace, FtMode, RunReport, Simulation, VecSink};
use ppa_sim::{SimDuration, SimTime};
use ppa_workloads::{Fig6Config, Scenario};

/// A fault-tolerance strategy of the §VI-A experiments.
#[derive(Debug, Clone)]
pub(crate) enum Strategy {
    /// Pure active replication with the given output-sync period.
    Active { sync_secs: u64 },
    /// Pure passive checkpointing at the given interval.
    Checkpoint { interval_secs: u64 },
    /// Storm's source replay.
    Storm,
    /// A partially active plan over passive checkpoints.
    Ppa { plan: TaskSet, interval_secs: u64 },
    /// Divergence-bounded approximate backups with lossy recovery.
    /// `interval_secs` only matters at `error_bound = 0`, where the mode
    /// normalizes to exact checkpointing at that interval (the parity
    /// anchor of the family).
    Approximate {
        interval_secs: u64,
        error_bound: u64,
    },
}

impl Strategy {
    /// Series/run label. Every parameter that distinguishes two variants of
    /// the same strategy appears in the label — PPA includes the active-task
    /// count and checkpoint interval so multi-interval series stay
    /// distinguishable in tables.
    pub(crate) fn label(&self) -> String {
        match self {
            Strategy::Active { sync_secs } => format!("Active-{sync_secs}s"),
            Strategy::Checkpoint { interval_secs } => format!("Checkpoint-{interval_secs}s"),
            Strategy::Storm => "Storm".to_string(),
            Strategy::Ppa {
                plan,
                interval_secs,
            } => {
                format!("PPA-{}t-{}s", plan.len(), interval_secs)
            }
            Strategy::Approximate {
                interval_secs,
                error_bound,
            } => format!("Approx-{interval_secs}s-e{error_bound}"),
        }
    }

    /// The engine configuration this strategy runs under.
    pub(crate) fn config(&self, n_tasks: usize, window: SimDuration, seed: u64) -> EngineConfig {
        let mut cfg = EngineConfig {
            seed,
            ..EngineConfig::default()
        };
        match self {
            Strategy::Active { sync_secs } => {
                cfg.mode = FtMode::active(n_tasks);
                cfg.replica_sync_interval = SimDuration::from_secs(*sync_secs);
            }
            Strategy::Checkpoint { interval_secs } => {
                cfg.mode = FtMode::checkpoint(n_tasks, SimDuration::from_secs(*interval_secs));
            }
            Strategy::Storm => {
                // Sources must retain at least the window for state rebuild.
                cfg.mode = FtMode::SourceReplay {
                    buffer: window + SimDuration::from_secs(5),
                };
            }
            Strategy::Ppa {
                plan,
                interval_secs,
            } => {
                cfg.mode = FtMode::ppa(plan.clone(), SimDuration::from_secs(*interval_secs));
            }
            Strategy::Approximate {
                interval_secs,
                error_bound,
            } => {
                cfg.mode = FtMode::approximate(
                    n_tasks,
                    SimDuration::from_secs(*interval_secs),
                    *error_bound,
                );
            }
        }
        cfg
    }
}

/// The degenerate trace of the §VI-A experiments: every hand-picked kill
/// set is one simultaneous failure event at `fail_at_secs` (an empty kill
/// set is the empty trace — a failure-free run).
pub(crate) fn kill_set_trace(fail_at_secs: u64, kill_nodes: Vec<usize>) -> FailureTrace {
    FailureTrace::once(SimTime::from_secs(fail_at_secs), kill_nodes)
}

/// The one driver: runs `scenario` under `strategy` with the engine
/// configuration `config` (usually `Strategy::config`, possibly with
/// knobs turned — see [`held_down`]), replaying `trace` through the
/// control-plane loop (`Simulation::drive`) with the scenario's policy —
/// the static no-op unless one is attached. The run is logged (labelled
/// `label`) for the JSON reporter, and its event stream for `--trace-dir`;
/// the logged failure instant is the trace's first event, the logged kill
/// set the union of all its events' nodes.
pub(crate) fn drive(
    ctx: &RunCtx,
    label: &str,
    scenario: &Scenario,
    strategy: &Strategy,
    config: EngineConfig,
    trace: &FailureTrace,
    duration_secs: u64,
) -> DriveReport {
    let mut sim = Simulation::new(&scenario.query, scenario.placement.clone(), config);
    if ctx.tracing() {
        sim.set_trace_sink(Box::new(VecSink::new()));
    }
    let mut policy = scenario.make_policy();
    let watch = Stopwatch::start();
    let driven = sim
        .drive(
            &ppa_engine::FaultFeed::from_trace(trace.clone()),
            policy.as_mut(),
            SimTime::ZERO + SimDuration::from_secs(duration_secs),
        )
        .expect("scenario traces name nodes of their own cluster");
    let wall = watch.elapsed();
    let fail_at_secs = trace.first_at().map_or(0, |t| t.as_micros() / 1_000_000);
    let mut log = RunLog::from_report(
        label,
        strategy.label(),
        fail_at_secs,
        trace.killed_nodes(),
        &driven.report,
    );
    log.wall_s = wall.as_secs_f64();
    ctx.log_run(log);
    if let Some(mut sink) = sim.take_trace_sink() {
        ctx.log_trace(TraceLog {
            scenario: label.to_string(),
            strategy: strategy.label(),
            fail_at_s: fail_at_secs,
            kill_nodes: trace.killed_nodes(),
            events: sink.take_events(),
        });
    }
    driven
}

/// `config` with passive recovery held down: replicas take over, everything
/// else stays dead, so the run samples a plan's *steady-state* tentative
/// quality — exactly the quantity Definition 2's OF models. (In the paper
/// the same steadiness comes for free: EC2-scale recoveries lasted tens of
/// seconds, longer than any query window. See README.md §Design notes.)
pub(crate) fn held_down(config: EngineConfig) -> EngineConfig {
    EngineConfig {
        passive_recovery: false,
        ..config
    }
}

/// The evaluation's PPA-0.5 plan: half the tasks, chosen by the
/// structure-aware planner against the failure sets `cx` hedges.
pub(crate) fn half_plan(cx: &PlanContext) -> TaskSet {
    StructureAwarePlanner
        .plan(cx, cx.n_tasks() / 2)
        .expect("SA plan")
        .tasks
}

/// Completion latency of a correlated failure: detection → the *last*
/// matching task restored its pre-failure progress. This is the quantity
/// the paper's Fig. 8/10 bars measure — the whole failed set is only
/// "recovered" when its slowest, synchronization-gated member is. Agrees
/// with [`RunReport::full_recovery_at`]: NaN when any matching task never
/// recovered, or when none matched.
pub(crate) fn completion_latency(
    report: &RunReport,
    mut include: impl FnMut(ppa_core::TaskIndex) -> bool,
) -> f64 {
    let worst = report
        .recoveries()
        .iter()
        .filter(|r| include(r.task))
        .map(|r| r.latency())
        .collect::<Option<Vec<_>>>() // one open member poisons the set
        .and_then(|all| all.into_iter().max());
    crate::latency_secs(worst)
}

/// The Fig. 6 workload at one (rate, window) point, everything else default.
pub(crate) fn fig6_cfg(rate: usize, window_secs: u64) -> Fig6Config {
    Fig6Config {
        rate,
        window: SimDuration::from_secs(window_secs),
        ..Fig6Config::default()
    }
}

/// The (window, rate) grid of Fig. 7/8, scaled down in quick mode.
pub(crate) fn fig6_grid(quick: bool) -> Vec<Fig6Config> {
    let (windows, rates): (&[u64], &[usize]) = if quick {
        (&[10], &[300, 600])
    } else {
        (&[10, 30], &[1000, 2000])
    };
    grid::cross(windows, rates)
        .into_iter()
        .map(|(&w, &r)| fig6_cfg(r, w))
        .collect()
}

/// Grid point label matching the paper's x-axis ("win:10s, rate:1000tp/s").
pub(crate) fn grid_label(cfg: &Fig6Config) -> String {
    format!(
        "win:{}s rate:{}tp/s",
        cfg.window.as_micros() / 1_000_000,
        cfg.rate
    )
}

/// Failure/measurement schedule: the failure fires only after the window is
/// full and every checkpoint interval has produced at least one checkpoint.
pub(crate) fn schedule(quick: bool) -> (u64, u64) {
    if quick {
        (40, 130) // fail at 40s, run 130s
    } else {
        (70, 260)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_core::TaskIndex;
    use ppa_engine::{OutageRecord, TaskOutages};

    #[test]
    fn ppa_label_distinguishes_intervals_and_shares() {
        let a = Strategy::Ppa {
            plan: TaskSet::full(8),
            interval_secs: 5,
        };
        let b = Strategy::Ppa {
            plan: TaskSet::full(8),
            interval_secs: 30,
        };
        let c = Strategy::Ppa {
            plan: TaskSet::empty(8),
            interval_secs: 5,
        };
        assert_eq!(a.label(), "PPA-8t-5s");
        assert_ne!(a.label(), b.label(), "intervals must be distinguishable");
        assert_ne!(
            a.label(),
            c.label(),
            "active shares must be distinguishable"
        );
    }

    /// A report whose task `i` was detected at 45 s and recovered after
    /// `latencies[i]` seconds (`None` = still open at run end).
    fn report_with(latencies: &[Option<u64>]) -> RunReport {
        let detected_at = SimTime::from_secs(45);
        let outages = latencies
            .iter()
            .enumerate()
            .map(|(task, latency)| TaskOutages {
                task: TaskIndex(task),
                records: vec![OutageRecord {
                    via_replica: false,
                    failed_at: SimTime::from_secs(40),
                    detected_at,
                    recovered_at: latency.map(|l| detected_at + SimDuration::from_secs(l)),
                }],
            });
        RunReport {
            outages: outages.collect(),
            ..RunReport::default()
        }
    }

    #[test]
    fn completion_latency_agrees_with_full_recovery_at() {
        let all = report_with(&[Some(2), Some(9), Some(4)]);
        assert_eq!(completion_latency(&all, |_| true), 9.0);
        assert_eq!(completion_latency(&all, |t| t.0 != 1), 4.0);
        assert!(all.full_recovery_at().is_some());

        // One open member: the set is not recovered, whatever the others did
        // and wherever the open one sits in the fold.
        for open in 0..3 {
            let mut latencies = [Some(2), Some(9), Some(4)];
            latencies[open] = None;
            let report = report_with(&latencies);
            assert!(
                completion_latency(&report, |_| true).is_nan(),
                "task {open} never recovered, yet the set reads as recovered"
            );
            assert!(report.full_recovery_at().is_none());
            // ...unless the open member is not part of the set asked about.
            assert!(completion_latency(&report, |t| t.0 != open).is_finite());
        }

        assert!(
            completion_latency(&all, |_| false).is_nan(),
            "none matching"
        );
        assert!(completion_latency(&RunReport::default(), |_| true).is_nan());
    }

    #[test]
    fn other_labels_are_stable() {
        assert_eq!(Strategy::Active { sync_secs: 5 }.label(), "Active-5s");
        assert_eq!(
            Strategy::Checkpoint { interval_secs: 15 }.label(),
            "Checkpoint-15s"
        );
        assert_eq!(Strategy::Storm.label(), "Storm");
        assert_eq!(
            Strategy::Approximate {
                interval_secs: 5,
                error_bound: 2000
            }
            .label(),
            "Approx-5s-e2000"
        );
    }
}
