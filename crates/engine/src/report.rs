//! Run reports: everything the experiment harness extracts from a run.

use crate::tuple::Chunk;
use ppa_core::TaskIndex;
pub use ppa_obs::OutageRecord;
use ppa_sim::{SimDuration, SimTime};

/// Full outage history of one task, oldest first.
#[derive(Debug, Clone)]
pub struct TaskOutages {
    pub task: TaskIndex,
    /// Every outage the task went through, in time order.
    pub records: Vec<OutageRecord>,
}

impl TaskOutages {
    /// Outages beyond the first — the re-failures.
    pub fn refail_count(&self) -> usize {
        self.records.len().saturating_sub(1)
    }
}

/// Recovery record of one failed task — the *first-outage* view derived
/// from the task's [`TaskOutages`] history by [`RunReport::recoveries`]
/// (identical to the history for single-failure runs).
#[derive(Debug, Clone)]
pub struct TaskRecovery {
    pub task: TaskIndex,
    /// Whether the task was recovered from an active replica.
    pub via_replica: bool,
    /// When the node failure actually happened.
    pub failed_at: SimTime,
    /// When the master's heartbeat scan detected it.
    pub detected_at: SimTime,
    /// When the task's progress vector dominated its pre-failure progress
    /// (`None` if the run ended first).
    pub recovered_at: Option<SimTime>,
}

impl TaskRecovery {
    /// The paper's recovery latency: detection → progress restored.
    pub fn latency(&self) -> Option<SimDuration> {
        self.recovered_at.map(|r| r.since(self.detected_at))
    }
}

/// One batch of output collected at a sink task.
#[derive(Debug, Clone)]
pub struct SinkBatch {
    pub task: TaskIndex,
    pub batch: u64,
    /// Virtual time the batch's output was emitted.
    pub at: SimTime,
    /// Whether any proxy punctuation (lost input) degraded this batch.
    pub tentative: bool,
    /// The sink task's output for the batch — the chunk the task produced,
    /// shared (not copied) by every report that carries this record.
    pub tuples: Chunk,
}

/// Per-task CPU accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuStats {
    /// CPU spent in normal batch processing (including source generation).
    pub(crate) processing: SimDuration,
    /// CPU spent creating checkpoints.
    pub(crate) checkpoint: SimDuration,
}

impl CpuStats {
    /// Ratio of checkpoint CPU to processing CPU (Fig. 9's metric).
    pub fn checkpoint_ratio(&self) -> f64 {
        let p = self.processing.as_micros();
        if p == 0 {
            return 0.0;
        }
        self.checkpoint.as_micros() as f64 / p as f64
    }
}

/// Everything measured during one simulated run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Full per-task outage histories in first-failure order: every
    /// failure of a task's active incarnation — including an activated
    /// replica dying after takeover — appends a fresh [`OutageRecord`].
    pub outages: Vec<TaskOutages>,
    /// Sink outputs in emission order.
    pub sink: Vec<SinkBatch>,
    /// Per-task CPU statistics (indexed by task).
    pub cpu: Vec<CpuStats>,
    /// Number of events the simulation processed.
    pub events: u64,
    /// Tuples scheduled for delivery (replica copies included) — the
    /// deterministic volume denominator behind the harness's tuples/sec.
    pub tuples_moved: u64,
    /// Virtual time the run ended.
    pub ended_at: SimTime,
}

impl RunReport {
    /// Per-failed-task recovery records in first-failure order: each
    /// task's *first* outage, for every consumer that models one failure
    /// per task (the §VI-A figures). Derived from `outages`, the one
    /// source of truth.
    pub fn recoveries(&self) -> Vec<TaskRecovery> {
        self.outages
            .iter()
            .filter_map(|o| {
                o.records.first().map(|first| TaskRecovery {
                    task: o.task,
                    via_replica: first.via_replica,
                    failed_at: first.failed_at,
                    detected_at: first.detected_at,
                    recovered_at: first.recovered_at,
                })
            })
            .collect()
    }

    /// Mean recovery latency over recovered tasks (`None` if nothing
    /// recovered).
    pub fn mean_recovery_latency(&self) -> Option<SimDuration> {
        self.mean_latency_of(|_| true)
    }

    /// Latest recovery completion (the correlated-failure "recovery done"
    /// instant).
    pub fn full_recovery_at(&self) -> Option<SimTime> {
        let recoveries = self.recoveries();
        if recoveries.is_empty() || recoveries.iter().any(|r| r.recovered_at.is_none()) {
            return None;
        }
        recoveries.iter().filter_map(|r| r.recovered_at).max()
    }

    /// Mean recovery latency over a subset of tasks.
    pub fn mean_latency_of(
        &self,
        mut include: impl FnMut(TaskIndex) -> bool,
    ) -> Option<SimDuration> {
        let lat: Vec<SimDuration> = self
            .recoveries()
            .iter()
            .filter(|r| include(r.task))
            .filter_map(TaskRecovery::latency)
            .collect();
        if lat.is_empty() {
            return None;
        }
        let total: u64 = lat.iter().map(|d| d.as_micros()).sum();
        Some(SimDuration::from_micros(total / lat.len() as u64))
    }

    /// The outage history of one task (empty if it never failed).
    pub fn outages_of(&self, task: TaskIndex) -> &[OutageRecord] {
        self.outages
            .iter()
            .find(|o| o.task == task)
            .map_or(&[], |o| o.records.as_slice())
    }

    /// Total re-failures across all tasks (outages beyond each task's
    /// first).
    pub fn refail_count(&self) -> usize {
        self.outages.iter().map(TaskOutages::refail_count).sum()
    }

    /// First tentative sink batch at or after `t`.
    pub fn first_tentative_after(&self, t: SimTime) -> Option<SimTime> {
        self.sink
            .iter()
            .filter(|s| s.tentative && s.at >= t)
            .map(|s| s.at)
            .min()
    }

    /// Sink batches emitted for batch id `b` across sink tasks.
    pub fn sink_batches(&self, b: u64) -> impl Iterator<Item = &SinkBatch> {
        self.sink.iter().filter(move |s| s.batch == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_math() {
        let r = TaskRecovery {
            task: TaskIndex(0),
            via_replica: false,
            failed_at: SimTime::from_secs(10),
            detected_at: SimTime::from_secs(15),
            recovered_at: Some(SimTime::from_secs(40)),
        };
        assert_eq!(r.latency(), Some(SimDuration::from_secs(25)));
    }

    #[test]
    fn report_aggregates() {
        // One-record histories: failed at 10 s, detected at 15 s.
        let record = |recovered_at| OutageRecord {
            via_replica: false,
            failed_at: SimTime::from_secs(10),
            detected_at: SimTime::from_secs(15),
            recovered_at,
        };
        let mk = |task, rec| TaskOutages {
            task: TaskIndex(task),
            records: vec![record(rec)],
        };
        let mut rep = RunReport::default();
        rep.outages.push(mk(0, Some(SimTime::from_secs(25))));
        rep.outages.push(mk(1, Some(SimTime::from_secs(35))));
        // A re-failure never shows in the first-outage view.
        rep.outages[0]
            .records
            .push(record(Some(SimTime::from_secs(99))));
        assert_eq!(rep.recoveries().len(), 2);
        assert_eq!(
            rep.mean_recovery_latency(),
            Some(SimDuration::from_secs(15))
        );
        assert_eq!(rep.full_recovery_at(), Some(SimTime::from_secs(35)));
        // Unrecovered task blocks full_recovery_at.
        rep.outages.push(mk(2, None));
        assert_eq!(rep.full_recovery_at(), None);
        assert_eq!(
            rep.mean_latency_of(|t| t.0 == 1),
            Some(SimDuration::from_secs(20))
        );
    }

    #[test]
    fn cpu_ratio() {
        let c = CpuStats {
            processing: SimDuration::from_secs(10),
            checkpoint: SimDuration::from_secs(5),
        };
        assert!((c.checkpoint_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CpuStats::default().checkpoint_ratio(), 0.0);
    }

    #[test]
    fn outage_history_helpers() -> Result<(), &'static str> {
        let rec = |failed: u64, det: u64, recv: Option<u64>| OutageRecord {
            via_replica: false,
            failed_at: SimTime::from_secs(failed),
            detected_at: SimTime::from_secs(det),
            recovered_at: recv.map(SimTime::from_secs),
        };
        let mut rep = RunReport::default();
        rep.outages.push(TaskOutages {
            task: TaskIndex(2),
            records: vec![rec(10, 15, Some(25)), rec(40, 45, None)],
        });
        assert_eq!(rep.outages_of(TaskIndex(2)).len(), 2);
        assert!(rep.outages_of(TaskIndex(0)).is_empty());
        assert_eq!(rep.refail_count(), 1);
        let second = &rep.outages_of(TaskIndex(2))[1];
        assert!(second.open() && second.detected());
        assert_eq!(
            rep.outages[0].records[0].latency(),
            Some(SimDuration::from_secs(10))
        );
        assert_eq!(rep.outages[0].refail_count(), 1);
        assert!(rep.outages[0].records.last().ok_or("two records")?.open());
        // The MAX sentinel reads as "not yet detected".
        let undetected = OutageRecord {
            via_replica: false,
            failed_at: SimTime::from_secs(1),
            detected_at: SimTime::MAX,
            recovered_at: None,
        };
        assert!(!undetected.detected());
        Ok(())
    }

    /// `tests/approx_parity.rs` compares `RunReport` debug text, so a sink
    /// record must print exactly as it did when it owned a `Vec<Tuple>`.
    #[test]
    fn sink_batch_debug_text_is_pinned() {
        use crate::tuple::{Tuple, Value};
        let record = SinkBatch {
            task: TaskIndex(5),
            batch: 3,
            at: SimTime::from_secs(4),
            tentative: true,
            tuples: vec![Tuple::new(7, Value::Int(-1)), Tuple::key_only(8)].into(),
        };
        assert_eq!(
            format!("{record:?}"),
            "SinkBatch { task: TaskIndex(5), batch: 3, at: SimTime(4000000), tentative: true, \
             tuples: [Tuple { key: 7, value: Int(-1) }, Tuple { key: 8, value: Empty }] }"
        );
    }

    #[test]
    fn tentative_lookup() {
        let mut rep = RunReport::default();
        rep.sink.push(SinkBatch {
            task: TaskIndex(5),
            batch: 3,
            at: SimTime::from_secs(4),
            tentative: false,
            tuples: Chunk::default(),
        });
        rep.sink.push(SinkBatch {
            task: TaskIndex(5),
            batch: 9,
            at: SimTime::from_secs(10),
            tentative: true,
            tuples: Chunk::default(),
        });
        assert_eq!(
            rep.first_tentative_after(SimTime::ZERO),
            Some(SimTime::from_secs(10))
        );
        assert_eq!(rep.first_tentative_after(SimTime::from_secs(11)), None);
        assert_eq!(rep.sink_batches(9).count(), 1);
    }
}
