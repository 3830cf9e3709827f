//! Engine configuration: fault-tolerance mode, protocol intervals and the
//! calibrated cost model of the simulated cluster.

use ppa_core::TaskSet;
use ppa_sim::SimDuration;

/// Fault-tolerance mode of a run (§V-B and the §VI-A baselines).
#[derive(Debug, Clone)]
pub enum FtMode {
    /// No fault tolerance: failed tasks stay dead (used for golden runs and
    /// accuracy baselines where no failure is injected).
    None,
    /// Storm's default: no checkpoints; sources buffer `buffer` worth of
    /// batches and replay them through the topology on failure.
    SourceReplay {
        /// How much source output is retained for replay. Must cover the
        /// longest window interval of the query.
        buffer: SimDuration,
    },
    /// The PPA scheme: checkpoint everything passively, actively replicate
    /// the tasks in `plan`.
    ///
    /// * `plan` = all tasks → the pure *active replication* baseline;
    /// * `plan` = ∅ → the pure *checkpoint* baseline (PPA-0);
    /// * anything between → a partially active plan (e.g. PPA-0.5).
    Ppa {
        /// The actively replicated tasks.
        plan: TaskSet,
        /// Checkpoint interval; `None` disables checkpointing (used for the
        /// pure-active baseline so checkpoint CPU does not pollute it).
        checkpoint_interval: Option<SimDuration>,
    },
    /// Divergence-bounded approximate fault tolerance (AF-Stream): backups
    /// ship when accumulated state drift reaches `error_bound` instead of
    /// on a fixed interval, and recovery restores the last shipped
    /// snapshot *without* replaying the gap — faster, at a quantified
    /// fidelity cost recorded per outage (see [`crate::DivergenceModel`]).
    Approximate {
        /// Tolerated state drift, in input tuples absorbed since the last
        /// shipped backup. Must be ≥ 1: a bound of 0 *is* the exact
        /// checkpoint protocol, which [`FtMode::approximate`] normalizes
        /// to `FtMode::Ppa` so the two are byte-identical by construction.
        error_bound: u64,
    },
}

impl FtMode {
    /// Checkpoint-only PPA (the paper's `Checkpoint-*` and `PPA-0` runs).
    pub fn checkpoint(n_tasks: usize, interval: SimDuration) -> Self {
        FtMode::Ppa {
            plan: TaskSet::empty(n_tasks),
            checkpoint_interval: Some(interval),
        }
    }

    /// Fully active replication (the paper's `Active-*` and `PPA-1.0` runs).
    pub fn active(n_tasks: usize) -> Self {
        FtMode::Ppa {
            plan: TaskSet::full(n_tasks),
            checkpoint_interval: None,
        }
    }

    /// Partially active replication with passive checkpoints underneath.
    pub fn ppa(plan: TaskSet, checkpoint_interval: SimDuration) -> Self {
        FtMode::Ppa {
            plan,
            checkpoint_interval: Some(checkpoint_interval),
        }
    }

    /// Divergence-bounded approximate backup. `error_bound = 0` means
    /// zero tolerated divergence — by definition the exact checkpoint
    /// protocol — so it normalizes to [`FtMode::checkpoint`] with
    /// `interval` and the two modes are byte-identical by construction.
    /// Any positive bound switches to divergence-driven shipping, where
    /// `interval` plays no role.
    pub fn approximate(n_tasks: usize, interval: SimDuration, error_bound: u64) -> Self {
        if error_bound == 0 {
            FtMode::checkpoint(n_tasks, interval)
        } else {
            FtMode::Approximate { error_bound }
        }
    }
}

/// Calibrated per-operation costs of the simulated cluster.
///
/// Absolute values are *not* meant to match the paper's EC2 numbers — only
/// the relative shapes they induce (see README.md §Design notes).
/// Defaults are chosen so a task processing 4 000 tuples/s sits around 15%
/// CPU, checkpointing a 30 s window at a 1 s interval roughly doubles that,
/// and replaying half a checkpoint interval of backlog takes tens of
/// virtual seconds — mirroring Fig. 7–10.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// CPU per input tuple processed by a UDF.
    pub process_per_tuple: SimDuration,
    /// Fixed CPU per batch processed (punctuation handling, window slide).
    pub batch_overhead: SimDuration,
    /// CPU per tuple generated by a source task.
    pub source_per_tuple: SimDuration,
    /// CPU per state tuple serialized into a checkpoint.
    pub checkpoint_per_state_tuple: SimDuration,
    /// Fixed CPU per checkpoint.
    pub checkpoint_base: SimDuration,
    /// CPU per state tuple loaded when restoring a checkpoint.
    pub state_load_per_tuple: SimDuration,
    /// CPU per buffered tuple re-sent by an activated replica.
    pub resend_per_tuple: SimDuration,
    /// CPU per tuple reprocessed during replay/catch-up.
    pub replay_per_tuple: SimDuration,
    /// One-way network latency of a message between nodes.
    pub network_latency: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            process_per_tuple: SimDuration::from_micros(35),
            batch_overhead: SimDuration::from_millis(30),
            source_per_tuple: SimDuration::from_micros(5),
            checkpoint_per_state_tuple: SimDuration::from_micros(1),
            checkpoint_base: SimDuration::from_millis(2),
            state_load_per_tuple: SimDuration::from_micros(4),
            resend_per_tuple: SimDuration::from_micros(8),
            replay_per_tuple: SimDuration::from_micros(110),
            network_latency: SimDuration::from_millis(2),
        }
    }
}

/// Heartbeat scan interval of the master (the paper uses 5 s).
pub const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// Half-life of the control plane's per-fault-domain failure scores: a
/// domain's decayed failure count halves every such interval (the signal
/// `HealthView` exposes to `ControlPolicy` hooks).
pub(crate) const HEALTH_HALF_LIFE: SimDuration = SimDuration::from_secs(30);

/// Full engine configuration for one simulated run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Batch interval of the batch-processing approach (§V-B).
    pub batch_interval: SimDuration,
    /// Output-buffer sync period between a primary and its active replica.
    pub replica_sync_interval: SimDuration,
    /// Fault-tolerance mode.
    pub mode: FtMode,
    /// Whether failed tasks without a live replica are passively recovered.
    /// Disabling this holds non-replicated tasks down for the rest of the
    /// run — used by the accuracy experiments to sample the *steady-state*
    /// tentative output quality of a plan (the worst-case correlated
    /// failure of Definition 2), independent of how fast the simulated
    /// cluster happens to replay checkpoints.
    pub passive_recovery: bool,
    /// Seed for all workload randomness.
    pub seed: u64,
    /// Cluster cost model.
    pub costs: CostModel,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            batch_interval: SimDuration::from_secs(1),
            replica_sync_interval: SimDuration::from_secs(5),
            mode: FtMode::None,
            passive_recovery: true,
            seed: 42,
            costs: CostModel::default(),
        }
    }
}

impl EngineConfig {
    /// Batches per duration, rounding down (used to convert window lengths
    /// and buffer lengths into batch counts); 0 under a zero batch
    /// interval, which `Simulation::drive` rejects.
    pub(crate) fn batches_in(&self, d: SimDuration) -> u64 {
        d.as_micros()
            .checked_div(self.batch_interval.as_micros())
            .unwrap_or(0)
    }

    /// The first interval of this configuration that is zero, by field
    /// name. Each one paces an event that re-arms itself one interval
    /// later; at zero it re-arms at the same instant and the run never
    /// advances.
    pub(crate) fn zero_interval(&self) -> Option<&'static str> {
        let checkpoint_interval = match &self.mode {
            FtMode::Ppa {
                checkpoint_interval,
                ..
            } => *checkpoint_interval,
            _ => None,
        };
        if self.batch_interval.is_zero() {
            Some("batch_interval")
        } else if self.replica_sync_interval.is_zero() {
            Some("replica_sync_interval")
        } else if checkpoint_interval.is_some_and(SimDuration::is_zero) {
            Some("checkpoint_interval")
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestResult = Result<(), String>;

    #[test]
    fn mode_constructors() -> TestResult {
        let cp = FtMode::checkpoint(5, SimDuration::from_secs(15));
        let FtMode::Ppa {
            plan,
            checkpoint_interval,
        } = cp
        else {
            return Err("checkpoint must build the Ppa mode".into());
        };
        assert!(plan.is_empty());
        assert_eq!(checkpoint_interval, Some(SimDuration::from_secs(15)));
        let act = FtMode::active(5);
        let FtMode::Ppa {
            plan,
            checkpoint_interval,
        } = act
        else {
            return Err("active must build the Ppa mode".into());
        };
        assert_eq!(plan.len(), 5);
        assert!(checkpoint_interval.is_none());
        Ok(())
    }

    #[test]
    fn approximate_with_zero_bound_is_the_checkpoint_protocol() -> TestResult {
        // The exact-mode contract: bound 0 normalizes to the *identical*
        // FtMode value Checkpoint produces, so byte-parity with the
        // checkpoint family holds by construction.
        let interval = SimDuration::from_secs(15);
        let FtMode::Ppa {
            plan,
            checkpoint_interval,
        } = FtMode::approximate(5, interval, 0)
        else {
            return Err("bound 0 must be the checkpoint protocol".into());
        };
        assert!(plan.is_empty());
        assert_eq!(checkpoint_interval, Some(interval));
        let FtMode::Approximate { error_bound } = FtMode::approximate(5, interval, 200) else {
            return Err("a positive bound must select the approximate family".into());
        };
        assert_eq!(error_bound, 200);
        Ok(())
    }

    #[test]
    fn batches_in_converts_durations() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.batches_in(SimDuration::from_secs(30)), 30);
        assert_eq!(cfg.batches_in(SimDuration::from_millis(2500)), 2);
    }

    #[test]
    fn default_costs_leave_headroom() {
        // A task with 4000 tuples/s of input must not saturate its node:
        // work per second = 4000 * process + 1 batch overhead < 1 s.
        let c = CostModel::default();
        let per_sec = c.process_per_tuple.as_micros() * 4000 + c.batch_overhead.as_micros();
        assert!(
            per_sec < 500_000,
            "default cost model overloads nodes: {per_sec}µs/s"
        );
    }
}
