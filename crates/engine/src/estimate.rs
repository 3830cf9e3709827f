//! Analytical recovery-latency estimates — the capacity-planning companion
//! to the simulator. Given the cost model and a task's steady rates, predict
//! what Fig. 7/8 measure, without running anything.
//!
//! The replay model: recovery latency is measured until the task restores
//! its **pre-failure** progress (§VI) — a fixed target, so there is no race
//! against live arrivals. A restored task must reprocess
//! `checkpoint_age` seconds of data; replaying one second of data costs
//! `k = input_rate × replay_per_tuple + batch_overhead` seconds of CPU:
//!
//! ```text
//! T = state_load + checkpoint_age · k          (feasible while k < 1)
//! ```
//!
//! `k ≥ 1` still means the task can never rejoin the live frontier after
//! recovering, which [`max_recoverable_rate`] exposes as an admission bound.
//! Estimates ignore second-order effects the simulator does model (network
//! latency, batch quantization, neighbour synchronization); tests assert
//! agreement with the simulator within a factor of two.

use crate::config::CostModel;
use ppa_sim::SimDuration;

/// Steady-state description of one task for estimation purposes.
#[derive(Debug, Clone, Copy)]
pub struct TaskProfile {
    /// Input rate in tuples/s.
    pub input_rate: f64,
    /// Output rate in tuples/s (for replica resend volume).
    pub output_rate: f64,
    /// Window state size in tuples (≈ window_secs × input_rate).
    pub state_tuples: f64,
}

impl TaskProfile {
    /// Profile of a windowed operator from its rates and window length.
    pub fn windowed(input_rate: f64, selectivity: f64, window_secs: f64) -> Self {
        TaskProfile {
            input_rate,
            output_rate: input_rate * selectivity,
            state_tuples: input_rate * window_secs,
        }
    }
}

/// Fraction of a second of CPU needed per second of replayed data.
fn replay_load(costs: &CostModel, input_rate: f64) -> f64 {
    input_rate * costs.replay_per_tuple.as_micros() as f64 / 1e6
        + costs.batch_overhead.as_micros() as f64 / 1e6
}

/// Expected checkpoint-restore recovery latency (detection → progress
/// restored) for a task with mean checkpoint age `checkpoint_interval / 2`.
///
/// Returns `None` when the replay load `k ≥ 1`: the task can never catch up
/// under this cost model — exactly the capacity check an operator wants
/// before picking a checkpoint interval.
pub fn checkpoint_recovery(
    costs: &CostModel,
    profile: &TaskProfile,
    checkpoint_interval: SimDuration,
) -> Option<SimDuration> {
    checkpoint_recovery_with_age(
        costs,
        profile,
        SimDuration::from_secs_f64(checkpoint_interval.as_secs_f64() / 2.0),
    )
}

/// Like [`checkpoint_recovery`], but with the exact checkpoint age at the
/// failure instant instead of the expected `interval / 2`.
pub(crate) fn checkpoint_recovery_with_age(
    costs: &CostModel,
    profile: &TaskProfile,
    checkpoint_age: SimDuration,
) -> Option<SimDuration> {
    let k = replay_load(costs, profile.input_rate);
    if k >= 1.0 {
        return None;
    }
    let load_secs = profile.state_tuples * costs.state_load_per_tuple.as_micros() as f64 / 1e6;
    let t = load_secs + checkpoint_age.as_secs_f64() * k;
    Some(SimDuration::from_secs_f64(t.max(0.0)))
}

/// Expected active-replica takeover latency: re-send the output buffered
/// since the last sync, plus a batch of slack.
pub fn active_takeover(
    costs: &CostModel,
    profile: &TaskProfile,
    sync_interval: SimDuration,
) -> SimDuration {
    let buffered = profile.output_rate * sync_interval.as_secs_f64();
    let resend = buffered * costs.resend_per_tuple.as_micros() as f64 / 1e6;
    SimDuration::from_secs_f64(resend) + costs.batch_overhead + costs.network_latency
}

/// Expected Storm source-replay latency for a task `depth` hops from the
/// sources: every hop reprocesses the window's worth of its input.
pub fn storm_replay(
    costs: &CostModel,
    profile: &TaskProfile,
    window: SimDuration,
    depth: usize,
) -> Option<SimDuration> {
    let k = replay_load(costs, profile.input_rate);
    if k >= 1.0 {
        return None;
    }
    let per_hop = window.as_secs_f64() * k;
    // Hops replay in a pipeline; the end-to-end rebuild is dominated by the
    // sum of per-stage reprocessing for the window prefix.
    let t = per_hop * depth as f64;
    Some(SimDuration::from_secs_f64(t))
}

/// Expected approximate (lossy) recovery latency: load the last shipped
/// snapshot, jump to the frontier — **no replay term at all**, which is
/// the family's whole advantage. The divergence cadence
/// ([`ppa_core::BackupCadence::Divergence`]) governs how *stale* that
/// snapshot is, not how long the restore takes; the staleness resurfaces
/// as forfeited fidelity, not latency. Always feasible: with no replay
/// there is no `k < 1` admission bound.
pub fn approximate_recovery(costs: &CostModel, profile: &TaskProfile) -> SimDuration {
    let load_secs = profile.state_tuples * costs.state_load_per_tuple.as_micros() as f64 / 1e6;
    SimDuration::from_secs_f64(load_secs.max(0.0)) + costs.batch_overhead
}

/// The largest input rate a task can catch up from at all (k < 1) under
/// this cost model — the admission bound for passive recovery.
pub fn max_recoverable_rate(costs: &CostModel) -> f64 {
    let oh = costs.batch_overhead.as_micros() as f64 / 1e6;
    let per_tuple = costs.replay_per_tuple.as_micros() as f64 / 1e6;
    if per_tuple <= 0.0 {
        return f64::INFINITY;
    }
    ((1.0 - oh) / per_tuple).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, FtMode};
    use crate::placement::Placement;
    use crate::runtime::{FailureSpec, Simulation};
    use crate::udf::{BatchCtx, CountingSource, InputBatch, Output, Udf, WindowBuffer};
    use ppa_core::model::{OperatorSpec, Partitioning};
    use ppa_sim::SimTime;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    #[derive(Clone)]
    struct Windowed {
        w: u64,
        buf: WindowBuffer,
    }

    impl Udf for Windowed {
        fn on_batch(&mut self, ctx: &BatchCtx, inputs: &[InputBatch<'_>], out: &mut Output) {
            for i in inputs {
                out.extend(i.iter().cloned());
            }
            let chunks = inputs.iter().flat_map(|i| i.chunks()).cloned();
            self.buf.push(ctx.batch, chunks, self.w);
        }
        fn snapshot(&self) -> Box<dyn Udf> {
            Box::new(self.clone())
        }
        fn state_tuples(&self) -> usize {
            self.buf.len_tuples()
        }
    }

    /// Measure an actual checkpoint recovery and compare to the estimate.
    #[test]
    fn estimate_matches_simulation_within_2x() -> TestResult {
        let per_batch = 600usize;
        let window = 10u64;
        let interval = SimDuration::from_secs(20);

        let mut q = crate::query::QueryBuilder::new();
        let s = q.add_source(
            OperatorSpec::source("s", 2, per_batch as f64),
            move |task| {
                Box::new(CountingSource {
                    per_batch,
                    seed: task as u64,
                    key_space: 64,
                })
            },
        );
        let m = q.add_operator(OperatorSpec::map("m", 1, 1.0), move |_| {
            Box::new(Windowed {
                w: window,
                buf: WindowBuffer::new(),
            })
        });
        q.connect(s, m, Partitioning::Merge)?;
        let q = q.build()?;
        let placement = Placement::explicit(vec![0, 1, 2], vec![3, 4, 5], 3, 3)?;

        let report = Simulation::run(
            &q,
            placement,
            EngineConfig {
                mode: FtMode::checkpoint(3, interval),
                ..EngineConfig::default()
            },
            vec![FailureSpec {
                at: SimTime::from_secs(51),
                nodes: vec![2],
            }],
            SimDuration::from_secs(160),
        );
        let measured = report.recoveries()[0]
            .latency()
            .ok_or("never recovered")?
            .as_secs_f64();

        let costs = crate::config::CostModel::default();
        let profile = TaskProfile::windowed(2.0 * per_batch as f64, 1.0, window as f64);
        // Reconstruct the actual checkpoint age of task 2 at the failure
        // instant (checkpoints are staggered exactly as the engine does it).
        let offset_us = 2u64.wrapping_mul(2_654_435_761) % interval.as_micros();
        let first_cp = interval.as_secs_f64() + offset_us as f64 / 1e6;
        let fail = 51.0;
        let mut last_cp = first_cp;
        while last_cp + interval.as_secs_f64() < fail {
            last_cp += interval.as_secs_f64();
        }
        let age = SimDuration::from_secs_f64(fail - last_cp);
        let estimate = checkpoint_recovery_with_age(&costs, &profile, age)
            .ok_or("infeasible")?
            .as_secs_f64();
        assert!(
            estimate / measured < 2.0 && measured / estimate < 2.0,
            "estimate {estimate:.2}s vs measured {measured:.2}s"
        );
        Ok(())
    }

    #[test]
    fn active_estimate_is_small_and_grows_with_sync() {
        let costs = crate::config::CostModel::default();
        let profile = TaskProfile::windowed(2_000.0, 0.5, 30.0);
        let fast = active_takeover(&costs, &profile, SimDuration::from_secs(5));
        let slow = active_takeover(&costs, &profile, SimDuration::from_secs(30));
        assert!(fast < slow);
        assert!(
            slow < SimDuration::from_secs(2),
            "takeover stays sub-second-ish: {slow}"
        );
    }

    #[test]
    fn infeasible_rates_are_rejected() {
        let costs = crate::config::CostModel::default();
        let bound = max_recoverable_rate(&costs);
        let over = TaskProfile::windowed(bound * 1.2, 1.0, 10.0);
        assert!(checkpoint_recovery(&costs, &over, SimDuration::from_secs(5)).is_none());
        assert!(storm_replay(&costs, &over, SimDuration::from_secs(10), 2).is_none());
        let under = TaskProfile::windowed(bound * 0.5, 1.0, 10.0);
        assert!(checkpoint_recovery(&costs, &under, SimDuration::from_secs(5)).is_some());
    }

    #[test]
    fn estimates_reproduce_figure_orderings() -> TestResult {
        let costs = crate::config::CostModel::default();
        let profile = TaskProfile::windowed(4_000.0, 0.5, 30.0);
        // Fig. 7/8: active < checkpoint, and checkpoint grows with interval.
        let active = active_takeover(&costs, &profile, SimDuration::from_secs(5));
        let cp5 =
            checkpoint_recovery(&costs, &profile, SimDuration::from_secs(5)).ok_or("infeasible")?;
        let cp30 = checkpoint_recovery(&costs, &profile, SimDuration::from_secs(30))
            .ok_or("infeasible")?;
        assert!(active < cp5 && cp5 < cp30);
        // Approximate sits between: the same restore load, none of the
        // replay — and unlike the exact estimate it never goes infeasible.
        let approx = approximate_recovery(&costs, &profile);
        assert!(active < approx && approx < cp5);
        let over = TaskProfile::windowed(max_recoverable_rate(&costs) * 1.2, 1.0, 10.0);
        assert!(checkpoint_recovery(&costs, &over, SimDuration::from_secs(5)).is_none());
        assert!(approximate_recovery(&costs, &over) > SimDuration::ZERO);
        // The planner-side cadence model agrees on the CPU side: matched
        // drift makes the families equally expensive, lower drift makes
        // approximate strictly cheaper.
        let matched = ppa_core::BackupCadence::Divergence {
            error_bound: 20_000,
            drift_rate_per_sec: profile.input_rate,
        };
        let timer = ppa_core::BackupCadence::Interval { interval_secs: 5.0 };
        assert!((matched.backups_per_sec() - timer.backups_per_sec()).abs() < 1e-9);
        let cold = ppa_core::BackupCadence::Divergence {
            error_bound: 20_000,
            drift_rate_per_sec: profile.input_rate / 10.0,
        };
        assert!(cold.backups_per_sec() < timer.backups_per_sec());
        // Storm grows with window and depth.
        let s10 =
            storm_replay(&costs, &profile, SimDuration::from_secs(10), 2).ok_or("infeasible")?;
        let s30 =
            storm_replay(&costs, &profile, SimDuration::from_secs(30), 2).ok_or("infeasible")?;
        let deep =
            storm_replay(&costs, &profile, SimDuration::from_secs(30), 4).ok_or("infeasible")?;
        assert!(s10 < s30 && s30 < deep);
        Ok(())
    }
}
