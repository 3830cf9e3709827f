//! One module per reproduced figure, plus shared scenario-driving helpers.
//!
//! Experiments receive a [`RunCtx`] and submit their independent scenario
//! points — one simulated run, one topology's plans — as leaf jobs via
//! [`RunCtx::map`]. Each point derives its randomness from its own seed,
//! so results are identical for any worker count.

pub mod adaptive_sweep;
pub mod approx_sweep;
pub mod chaos_swarm;
pub mod corr_sweep;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod placement_sweep;
pub mod refail_sweep;
pub mod scale_sweep;
pub mod tentative;

use crate::runner::{RunCtx, RunLog, TraceLog};
use crate::stopwatch::Stopwatch;
use ppa_core::TaskSet;
use ppa_engine::{
    EngineConfig, EngineEvent, FailureTrace, FtMode, RunReport, Simulation, TraceSink,
};
use ppa_sim::{SimDuration, SimTime};
use ppa_workloads::{Fig6Config, Scenario};
use std::sync::{Arc, Mutex};

/// A fault-tolerance strategy of the §VI-A experiments.
#[derive(Debug, Clone)]
pub enum Strategy {
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
    pub fn label(&self) -> String {
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

    /// The engine configuration this strategy runs under (crate-wide so
    /// experiments can drive golden runs outside [`run_scenario`]).
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
pub fn kill_set_trace(fail_at_secs: u64, kill_nodes: Vec<usize>) -> FailureTrace {
    FailureTrace::once(SimTime::from_secs(fail_at_secs), kill_nodes)
}

/// Runs the Fig. 6 scenario under a strategy, replaying `trace`, logging
/// the run for the JSON reporter.
pub fn run_fig6(
    ctx: &RunCtx,
    cfg: &Fig6Config,
    strategy: &Strategy,
    trace: &FailureTrace,
    duration_secs: u64,
) -> RunReport {
    let scenario = ppa_workloads::fig6_scenario(cfg);
    run_scenario(
        ctx,
        &grid_label(cfg),
        &scenario,
        strategy,
        cfg.window,
        trace,
        duration_secs,
        cfg.seed,
    )
}

/// Runs any scenario under a strategy, replaying a failure trace, logging
/// the run (labelled `label`) for the JSON reporter. The logged failure
/// instant is the trace's first event; the logged kill set is the union of
/// all its events' nodes.
#[allow(clippy::too_many_arguments)]
pub fn run_scenario(
    ctx: &RunCtx,
    label: &str,
    scenario: &Scenario,
    strategy: &Strategy,
    window: SimDuration,
    trace: &FailureTrace,
    duration_secs: u64,
    seed: u64,
) -> RunReport {
    let n_tasks = scenario.graph().n_tasks();
    let config = strategy.config(n_tasks, window, seed);
    run_scenario_config(ctx, label, scenario, strategy, config, trace, duration_secs)
}

/// [`run_scenario`] with an explicit engine configuration, for experiments
/// that tweak knobs beyond what the strategy's derived configuration sets
/// (e.g. the placement sweep holding passive recovery down for
/// steady-state tentative sampling).
///
/// Runs go through the control-plane loop (`Simulation::drive`) with the
/// scenario's policy — the static no-op unless one is attached.
pub fn run_scenario_config(
    ctx: &RunCtx,
    label: &str,
    scenario: &Scenario,
    strategy: &Strategy,
    config: EngineConfig,
    trace: &FailureTrace,
    duration_secs: u64,
) -> RunReport {
    drive_scenario_config(ctx, label, scenario, strategy, config, trace, duration_secs).report
}

/// [`run_scenario_config`] returning the full [`ppa_engine::DriveReport`]
/// — control actions and control-plane CPU included — for experiments
/// that measure the control plane itself.
#[allow(clippy::too_many_arguments)]
pub fn drive_scenario_config(
    ctx: &RunCtx,
    label: &str,
    scenario: &Scenario,
    strategy: &Strategy,
    config: EngineConfig,
    trace: &FailureTrace,
    duration_secs: u64,
) -> ppa_engine::DriveReport {
    let mut sim = Simulation::new(&scenario.query, scenario.placement.clone(), config);
    let buffer = ctx.tracing().then(|| {
        let buffer = Arc::new(Mutex::new(Vec::new()));
        sim.set_trace_sink(Box::new(SharedSink(Arc::clone(&buffer))));
        buffer
    });
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
    if let Some(buffer) = buffer {
        let events = std::mem::take(&mut *buffer.lock().expect("trace buffer poisoned"));
        ctx.log_trace(TraceLog {
            scenario: label.to_string(),
            strategy: strategy.label(),
            fail_at_s: fail_at_secs,
            kill_nodes: trace.killed_nodes(),
            events,
        });
    }
    driven
}

/// A [`TraceSink`] buffering into shared storage, so the harness can keep
/// reading the stream after the simulation consumed the boxed sink.
struct SharedSink(Arc<Mutex<Vec<(SimTime, EngineEvent)>>>);

impl TraceSink for SharedSink {
    fn record(&mut self, at: SimTime, event: &EngineEvent) {
        self.0
            .lock()
            .expect("trace buffer poisoned")
            .push((at, event.clone()));
    }
}

/// Mean recovery latency in seconds over the non-source tasks (the 15
/// synthetic tasks whose nodes the §VI-A experiments kill).
pub fn mean_synthetic_latency(report: &RunReport, scenario: &Scenario) -> f64 {
    let graph = scenario.graph();
    crate::latency_secs(report.mean_latency_of(|t| !graph.is_source_task(t)))
}

/// Completion latency of a correlated failure: detection → the *last*
/// matching task restored its pre-failure progress. This is the quantity
/// the paper's Fig. 8/10 bars measure — the whole failed set is only
/// "recovered" when its slowest, synchronization-gated member is.
pub fn completion_latency(
    report: &RunReport,
    mut include: impl FnMut(ppa_core::model::TaskIndex) -> bool,
) -> f64 {
    report
        .recoveries()
        .iter()
        .filter(|r| include(r.task))
        .map(|r| r.latency().map_or(f64::NAN, |d| d.as_secs_f64()))
        .fold(f64::NAN, f64::max)
}

/// The (window, rate) grid of Fig. 7/8, scaled down in quick mode.
pub fn fig6_grid(quick: bool) -> Vec<Fig6Config> {
    let (windows, rates): (Vec<u64>, Vec<usize>) = if quick {
        (vec![10], vec![300, 600])
    } else {
        (vec![10, 30], vec![1000, 2000])
    };
    let mut out = Vec::new();
    for &w in &windows {
        for &r in &rates {
            out.push(Fig6Config {
                rate: r,
                window: SimDuration::from_secs(w),
                ..Fig6Config::default()
            });
        }
    }
    out
}

/// Grid point label matching the paper's x-axis ("win:10s, rate:1000tp/s").
pub fn grid_label(cfg: &Fig6Config) -> String {
    format!(
        "win:{}s rate:{}tp/s",
        cfg.window.as_micros() / 1_000_000,
        cfg.rate
    )
}

/// Failure/measurement schedule: the failure fires only after the window is
/// full and every checkpoint interval has produced at least one checkpoint.
pub fn schedule(quick: bool) -> (u64, u64) {
    if quick {
        (40, 130) // fail at 40s, run 130s
    } else {
        (70, 260)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
