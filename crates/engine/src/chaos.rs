//! Buggify points: typed chaos injections against the engine's control
//! plane.
//!
//! A [`ChaosSpec`] perturbs the *mechanisms* of failure handling —
//! heartbeat scans, restore completions — rather than killing nodes
//! (node kills stay [`crate::FailureSpec`]s). The `ppa-chaos` crate
//! composes both into seeded schedules; the engine only provides the
//! injection surface (`Simulation::inject_chaos`) and keeps each kind's
//! effect deterministic: a run with an empty chaos schedule is
//! byte-identical to a run without the subsystem.

use crate::error::EngineError;
use ppa_sim::{SimDuration, SimTime};
use std::fmt;

/// One chaos injection: `kind` fires at `at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpec {
    pub at: SimTime,
    pub kind: ChaosKind,
}

/// The buggify catalog. Every kind models a concrete distributed-systems
/// pathology the master or a recovery path must tolerate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosKind {
    /// The next `scans` heartbeat scans are lost (a master that cannot
    /// reach its workers): detection of any open outage is late by up to
    /// `scans` heartbeat intervals. The scan *cadence* is kept.
    HeartbeatDrop { scans: u32 },
    /// The next heartbeat scan (and the cadence behind it) arrives `by`
    /// late — a slow or partitioned master catching up.
    HeartbeatDelay { by: SimDuration },
    /// An extra, duplicated heartbeat scan fires at `at` — detection
    /// must be idempotent under repeated scans.
    HeartbeatDuplicate,
    /// The next restore completion of `task` hangs for `by` before
    /// finishing — a stalled state load.
    RestoreStall { task: usize, by: SimDuration },
    /// If `task` is mid-restore at `at`, the restore target is lost: the
    /// open outage is re-armed and the stale completion must be voided —
    /// the same path a mid-restore node death exercises.
    RestoreVoid { task: usize },
}

impl ChaosKind {
    /// Stable snake_case tag, used by the chaos schedule's text format.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosKind::HeartbeatDrop { .. } => "heartbeat_drop",
            ChaosKind::HeartbeatDelay { .. } => "heartbeat_delay",
            ChaosKind::HeartbeatDuplicate => "heartbeat_duplicate",
            ChaosKind::RestoreStall { .. } => "restore_stall",
            ChaosKind::RestoreVoid { .. } => "restore_void",
        }
    }

    /// The logical task the injection targets, when it targets one.
    pub(crate) fn task(&self) -> Option<usize> {
        match self {
            ChaosKind::RestoreStall { task, .. } | ChaosKind::RestoreVoid { task } => Some(*task),
            _ => None,
        }
    }
}

/// Why a chaos injection was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
    /// The underlying scheduling constraint failed (event in the past,
    /// past the horizon).
    Engine(EngineError),
    /// The injection targets a logical task the query does not have.
    TaskOutOfRange { task: usize, n_tasks: usize },
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Engine(e) => write!(f, "{e}"),
            ChaosError::TaskOutOfRange { task, n_tasks } => write!(
                f,
                "chaos event targets task {task} but the query has only {n_tasks} task(s)"
            ),
        }
    }
}

impl std::error::Error for ChaosError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChaosError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ChaosError {
    fn from(e: EngineError) -> Self {
        ChaosError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_stable_names_and_targets() {
        assert_eq!(
            ChaosKind::HeartbeatDrop { scans: 2 }.name(),
            "heartbeat_drop"
        );
        assert_eq!(ChaosKind::HeartbeatDuplicate.task(), None);
        let stall = ChaosKind::RestoreStall {
            task: 4,
            by: SimDuration::from_secs(3),
        };
        assert_eq!(stall.name(), "restore_stall");
        assert_eq!(stall.task(), Some(4));
        assert_eq!(ChaosKind::RestoreVoid { task: 1 }.task(), Some(1));
    }

    #[test]
    fn errors_name_the_offender() {
        let e = ChaosError::TaskOutOfRange {
            task: 9,
            n_tasks: 4,
        };
        assert!(e.to_string().contains("task 9"), "{e}");
        assert!(e.to_string().contains("4 task(s)"), "{e}");
        let e = ChaosError::from(EngineError::EventInPast {
            at: SimTime::from_secs(1),
            now: SimTime::from_secs(2),
        });
        assert!(e.to_string().contains("before"), "{e}");
    }
}
