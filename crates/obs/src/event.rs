//! Typed engine events and the sink that receives them.
//!
//! Every variant is a lifecycle transition the engine's event loop goes
//! through; the emitting sites live in `ppa-engine` (`runtime/`,
//! `control.rs`). Payloads are plain integers and static strings so a
//! serialized event is a stable, deterministic function of the run.

use ppa_sim::SimTime;

/// One observable engine transition, emitted at a simulated instant.
///
/// The timestamp travels separately (see [`TraceSink::record`]) because
/// some transitions are *scheduled* ahead of the event-loop clock — a
/// recovery completes at the node's CPU horizon, not at the instant the
/// decision was made — and the event carries the semantic instant.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// A failure event fired and actually killed these nodes (nodes an
    /// earlier event already killed are not listed).
    FailureInjected { nodes: Vec<usize> },
    /// A task's active incarnation died: a fresh outage record opened.
    /// `refail` marks outages beyond the task's first.
    OutageOpened { task: usize, refail: bool },
    /// The task's active incarnation, or the muted replica whose takeover
    /// was pending, died mid-recovery: the open outage record is re-armed.
    /// Its detection and pending recovery path are void; the master
    /// re-detects it at a later heartbeat scan.
    RecoverySetback { task: usize },
    /// The master's heartbeat scan detected the task's current outage.
    OutageDetected { task: usize },
    /// A passive recovery started: checkpoint restore or Storm restart on
    /// `node`.
    RestoreStarted { task: usize, node: usize },
    /// A passive recovery restored the task's pre-failure progress.
    RestoreDone { task: usize },
    /// A scheduled restore completion arrived for a task that died again
    /// mid-load — the restore is void, re-detection owns the task.
    RestoreVoided { task: usize },
    /// An active replica took over for the task (outage closed).
    ReplicaActivated { task: usize },
    /// The master began proxying the failed task's punctuations: the
    /// first tentative (degraded) output of this outage is flowing.
    TentativeResumed { task: usize },
    /// Approximate mode: a task's accumulated divergence reached the
    /// error bound and a state backup shipped, covering `divergence`
    /// drift units (input tuples absorbed since the previous backup).
    ApproxBackupShipped { task: usize, divergence: u64 },
    /// Approximate mode: a lossy recovery completed — the task restored
    /// its last shipped snapshot and jumped `skipped_batches` batches to
    /// the frontier without replay, forfeiting `divergence` drift units.
    /// Always followed by the `restore_done` that closes the outage.
    ApproxRecovery {
        task: usize,
        divergence: u64,
        skipped_batches: u64,
    },
    /// The control plane adopted a re-plan: replicas established and torn
    /// down, and the adopted plan's size.
    ReplanAdopted {
        activated: usize,
        deactivated: usize,
        plan_size: usize,
    },
    /// The control plane scheduled a migration: moves planned by
    /// `plan_evacuation` and moves actually applied to live incarnations.
    MigrationScheduled {
        planned_primaries: usize,
        planned_standbys: usize,
        moved_primaries: usize,
        moved_standbys: usize,
    },
    /// A control action had no effect, with the engine's reason.
    ControlNoEffect {
        action: &'static str,
        reason: &'static str,
    },
    /// An epoch boundary's cluster health: per-fault-domain time-decayed
    /// failure scores, `(domain id, score)` in domain order (empty when
    /// the placement carries no fault-domain mapping).
    EpochHealthSnapshot { scores: Vec<(usize, f64)> },
}

impl EngineEvent {
    /// Stable snake_case kind tag used by every exporter.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            EngineEvent::FailureInjected { .. } => "failure_injected",
            EngineEvent::OutageOpened { .. } => "outage_opened",
            EngineEvent::RecoverySetback { .. } => "recovery_setback",
            EngineEvent::OutageDetected { .. } => "outage_detected",
            EngineEvent::RestoreStarted { .. } => "restore_started",
            EngineEvent::RestoreDone { .. } => "restore_done",
            EngineEvent::RestoreVoided { .. } => "restore_voided",
            EngineEvent::ReplicaActivated { .. } => "replica_activated",
            EngineEvent::TentativeResumed { .. } => "tentative_resumed",
            EngineEvent::ApproxBackupShipped { .. } => "approx_backup_shipped",
            EngineEvent::ApproxRecovery { .. } => "approx_recovery",
            EngineEvent::ReplanAdopted { .. } => "replan_adopted",
            EngineEvent::MigrationScheduled { .. } => "migration_scheduled",
            EngineEvent::ControlNoEffect { .. } => "control_no_effect",
            EngineEvent::EpochHealthSnapshot { .. } => "epoch_health_snapshot",
        }
    }

    /// The logical task the event concerns, when it concerns exactly one.
    pub fn task(&self) -> Option<usize> {
        match self {
            EngineEvent::OutageOpened { task, .. }
            | EngineEvent::RecoverySetback { task }
            | EngineEvent::OutageDetected { task }
            | EngineEvent::RestoreStarted { task, .. }
            | EngineEvent::RestoreDone { task }
            | EngineEvent::RestoreVoided { task }
            | EngineEvent::ReplicaActivated { task }
            | EngineEvent::TentativeResumed { task }
            | EngineEvent::ApproxBackupShipped { task, .. }
            | EngineEvent::ApproxRecovery { task, .. } => Some(*task),
            _ => None,
        }
    }

    /// Whether this event closes the task's current outage (the two ways
    /// a task's progress is restored).
    pub fn closes_outage(&self) -> bool {
        matches!(
            self,
            EngineEvent::RestoreDone { .. } | EngineEvent::ReplicaActivated { .. }
        )
    }
}

/// A receiver for the engine's event stream.
///
/// Implementations must be deterministic functions of the calls they
/// receive — the engine's byte-identical `--jobs N` guarantee extends
/// through the sink. `Send` so a recorded run can cross the harness's
/// worker-pool boundary.
pub trait TraceSink: Send {
    /// One event at a simulated instant. `at` can run ahead of previously
    /// recorded instants (completions are scheduled at CPU horizons);
    /// emission order is deterministic, time order is not guaranteed.
    fn record(&mut self, at: SimTime, event: &EngineEvent);

    /// Drains the buffered events, when this sink buffers any — how a
    /// checker gets a run's stream back through a `Box<dyn TraceSink>`
    /// without downcasting. Streaming sinks keep the default (empty).
    fn take_events(&mut self) -> Vec<(SimTime, EngineEvent)> {
        Vec::new()
    }
}

/// The buffering sink: keeps every `(instant, event)` pair in emission
/// order. The exporters consume its `events`.
#[derive(Debug, Default)]
pub struct VecSink {
    pub(crate) events: Vec<(SimTime, EngineEvent)>,
}

impl VecSink {
    pub fn new() -> Self {
        VecSink::default()
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, at: SimTime, event: &EngineEvent) {
        self.events.push((at, event.clone()));
    }

    fn take_events(&mut self) -> Vec<(SimTime, EngineEvent)> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_snake_case() {
        let e = EngineEvent::OutageOpened {
            task: 3,
            refail: true,
        };
        assert_eq!(e.kind(), "outage_opened");
        assert_eq!(e.task(), Some(3));
        assert!(!e.closes_outage());
        assert!(EngineEvent::RestoreDone { task: 1 }.closes_outage());
        assert!(EngineEvent::ReplicaActivated { task: 1 }.closes_outage());
        assert_eq!(
            EngineEvent::FailureInjected { nodes: vec![1, 2] }.task(),
            None
        );
    }

    #[test]
    fn vec_sink_buffers_in_emission_order() {
        let mut sink = VecSink::new();
        sink.record(
            SimTime::from_secs(5),
            &EngineEvent::OutageDetected { task: 0 },
        );
        sink.record(
            SimTime::from_secs(2),
            &EngineEvent::FailureInjected { nodes: vec![4] },
        );
        assert_eq!(sink.events.len(), 2);
        // Emission order is kept even when instants run backwards.
        assert_eq!(sink.events[0].0, SimTime::from_secs(5));
        assert_eq!(sink.events[1].0, SimTime::from_secs(2));
    }
}
