//! Stream-level invariant checking over [`EngineEvent`] streams.
//!
//! The chaos swarm validates runs against *invariants* instead of golden
//! outputs: whatever the scenario, topology or chaos schedule, every
//! task's event stream must walk the outage lifecycle state machine
//! (`OutageOpened → OutageDetected → {RestoreDone | ReplicaActivated}`,
//! with `RecoverySetback` looping a record back to undetected). This
//! module checks exactly the properties expressible over the stream
//! alone; cross-layer checks (events ↔ report ↔ metrics reconciliation)
//! live in `ppa-chaos`, which sees the engine's `RunReport` too.

use crate::event::EngineEvent;
use ppa_sim::SimTime;
use std::collections::BTreeMap;

/// One invariant violation: which rule broke, where, and how.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stable snake_case rule tag (e.g. `open_without_close`).
    pub invariant: &'static str,
    /// The instant of the offending event (or the run end).
    pub at: SimTime,
    /// The logical task concerned, when the rule concerns one.
    pub task: Option<usize>,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    fn new(invariant: &'static str, at: SimTime, task: Option<usize>, detail: String) -> Self {
        Violation {
            invariant,
            at,
            task,
            detail,
        }
    }
}

/// The checker's verdict over one stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamCheck {
    pub violations: Vec<Violation>,
}

impl StreamCheck {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-task fold state of the outage lifecycle machine.
#[derive(Default)]
struct TaskState {
    /// Records opened so far (drives the `refail` flag check).
    opened: usize,
    /// A record is currently open.
    open: bool,
    /// `OutageDetected` count within the current record.
    detections: usize,
    /// `TentativeResumed` seen for the current record (at most one — the
    /// engine emits it on a record's *first* proxied output only).
    tentative: bool,
    /// `ApproxRecovery` seen for the current record (at most one — a
    /// voided approximate restore must not record its loss twice).
    approx: bool,
    /// The current record's `OutageOpened` instant.
    opened_at: SimTime,
}

/// Folds the stream (in emission order) through every task's lifecycle
/// state machine. Event timestamps may run ahead of emission order
/// (completions land at CPU horizons), so only per-record ordering —
/// close and detection not before their open — is checked, never global
/// monotonicity; epoch snapshots are the exception: each is stamped at
/// its own boundary, and boundaries only move forward.
pub fn check_stream(events: &[(SimTime, EngineEvent)]) -> StreamCheck {
    let mut tasks: BTreeMap<usize, TaskState> = BTreeMap::new();
    let mut last_epoch: Option<SimTime> = None;
    let mut out = StreamCheck::default();

    for &(at, ref event) in events {
        match event {
            EngineEvent::FailureInjected { nodes } => {
                if nodes.is_empty() {
                    out.violations.push(Violation::new(
                        "empty_failure_wave",
                        at,
                        None,
                        "FailureInjected with an empty kill list".to_string(),
                    ));
                }
            }
            EngineEvent::OutageOpened { task, refail } => {
                let st = tasks.entry(*task).or_default();
                if st.open {
                    out.violations.push(Violation::new(
                        "open_while_open",
                        at,
                        Some(*task),
                        "a fresh outage record opened while one is still open".to_string(),
                    ));
                }
                if *refail != (st.opened > 0) {
                    out.violations.push(Violation::new(
                        "refail_flag_wrong",
                        at,
                        Some(*task),
                        format!(
                            "refail={refail} on outage record #{} (must mark every record \
                             beyond the first)",
                            st.opened + 1
                        ),
                    ));
                }
                st.opened += 1;
                st.open = true;
                st.detections = 0;
                st.tentative = false;
                st.approx = false;
                st.opened_at = at;
            }
            EngineEvent::RecoverySetback { task } => {
                let st = tasks.entry(*task).or_default();
                if !st.open {
                    out.violations.push(Violation::new(
                        "setback_without_open_outage",
                        at,
                        Some(*task),
                        "RecoverySetback with no open outage record".to_string(),
                    ));
                }
            }
            EngineEvent::OutageDetected { task } => {
                let st = tasks.entry(*task).or_default();
                if !st.open {
                    out.violations.push(Violation::new(
                        "detect_without_open_outage",
                        at,
                        Some(*task),
                        "OutageDetected with no open outage record".to_string(),
                    ));
                } else if at < st.opened_at {
                    out.violations.push(Violation::new(
                        "detect_before_open",
                        at,
                        Some(*task),
                        format!(
                            "detected at {at}, before the record opened at {}",
                            st.opened_at
                        ),
                    ));
                }
                st.detections += 1;
            }
            EngineEvent::RestoreStarted { task, .. } => {
                let st = tasks.entry(*task).or_default();
                if !st.open || st.detections == 0 {
                    out.violations.push(Violation::new(
                        "restore_before_detection",
                        at,
                        Some(*task),
                        "RestoreStarted without a detected open outage".to_string(),
                    ));
                }
            }
            EngineEvent::TentativeResumed { task } => {
                let st = tasks.entry(*task).or_default();
                if !st.open || st.detections == 0 {
                    out.violations.push(Violation::new(
                        "tentative_before_detection",
                        at,
                        Some(*task),
                        "TentativeResumed without a detected open outage".to_string(),
                    ));
                }
                if st.tentative {
                    out.violations.push(Violation::new(
                        "tentative_twice",
                        at,
                        Some(*task),
                        "a second TentativeResumed within one outage record".to_string(),
                    ));
                }
                st.tentative = true;
            }
            EngineEvent::ApproxRecovery { task, .. } => {
                let st = tasks.entry(*task).or_default();
                if !st.open || st.detections == 0 {
                    out.violations.push(Violation::new(
                        "approx_recovery_before_detection",
                        at,
                        Some(*task),
                        "ApproxRecovery without a detected open outage".to_string(),
                    ));
                }
                if st.approx {
                    out.violations.push(Violation::new(
                        "approx_recovery_twice",
                        at,
                        Some(*task),
                        "a second ApproxRecovery within one outage record \
                         (forfeited fidelity double-counted)"
                            .to_string(),
                    ));
                }
                st.approx = true;
            }
            EngineEvent::RestoreDone { task } | EngineEvent::ReplicaActivated { task } => {
                let st = tasks.entry(*task).or_default();
                if !st.open {
                    out.violations.push(Violation::new(
                        "close_without_open",
                        at,
                        Some(*task),
                        format!("{} with no open outage record", event.kind()),
                    ));
                } else {
                    if st.detections == 0 {
                        out.violations.push(Violation::new(
                            "close_before_detection",
                            at,
                            Some(*task),
                            format!("{} closed a record never detected", event.kind()),
                        ));
                    }
                    if at < st.opened_at {
                        out.violations.push(Violation::new(
                            "close_before_open",
                            at,
                            Some(*task),
                            format!(
                                "closed at {at}, before the record opened at {}",
                                st.opened_at
                            ),
                        ));
                    }
                }
                st.open = false;
            }
            EngineEvent::RestoreVoided { task } => {
                // A stale completion may trail an already-closed record;
                // the only hard requirement is that the task failed at
                // some point.
                let st = tasks.entry(*task).or_default();
                if st.opened == 0 {
                    out.violations.push(Violation::new(
                        "void_without_outage",
                        at,
                        Some(*task),
                        "RestoreVoided for a task that never had an outage".to_string(),
                    ));
                }
            }
            EngineEvent::EpochHealthSnapshot { scores } => {
                if let Some(last) = last_epoch.replace(at).filter(|&last| at <= last) {
                    out.violations.push(Violation::new(
                        "epoch_not_after_previous",
                        at,
                        None,
                        format!("epoch snapshot at {at} follows the one at {last}"),
                    ));
                }
                if !scores.windows(2).all(|w| w[0].0 < w[1].0) {
                    out.violations.push(Violation::new(
                        "health_scores_unordered",
                        at,
                        None,
                        "EpochHealthSnapshot scores not in strict domain order".to_string(),
                    ));
                }
            }
            EngineEvent::ReplanAdopted { .. }
            | EngineEvent::MigrationScheduled { .. }
            | EngineEvent::ControlNoEffect { .. }
            | EngineEvent::ApproxBackupShipped { .. } => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn healthy_stream() -> Vec<(SimTime, EngineEvent)> {
        vec![
            (s(40), EngineEvent::FailureInjected { nodes: vec![3] }),
            (
                s(40),
                EngineEvent::OutageOpened {
                    task: 2,
                    refail: false,
                },
            ),
            (s(45), EngineEvent::OutageDetected { task: 2 }),
            (s(45), EngineEvent::RestoreStarted { task: 2, node: 9 }),
            (s(46), EngineEvent::TentativeResumed { task: 2 }),
            (s(48), EngineEvent::RestoreDone { task: 2 }),
            (
                s(60),
                EngineEvent::OutageOpened {
                    task: 2,
                    refail: true,
                },
            ),
            (s(65), EngineEvent::OutageDetected { task: 2 }),
            (s(67), EngineEvent::ReplicaActivated { task: 2 }),
        ]
    }

    #[test]
    fn healthy_lifecycle_passes() {
        let check = check_stream(&healthy_stream());
        assert!(check.ok(), "{:?}", check.violations);
    }

    #[test]
    fn rearm_loops_back_to_undetected() {
        let events = vec![
            (
                s(40),
                EngineEvent::OutageOpened {
                    task: 1,
                    refail: false,
                },
            ),
            (s(45), EngineEvent::OutageDetected { task: 1 }),
            (s(46), EngineEvent::RecoverySetback { task: 1 }),
            (s(50), EngineEvent::OutageDetected { task: 1 }),
            (s(51), EngineEvent::RestoreDone { task: 1 }),
            // The stale completion of the voided first restore.
            (s(52), EngineEvent::RestoreVoided { task: 1 }),
        ];
        let check = check_stream(&events);
        assert!(check.ok(), "{:?}", check.violations);
    }

    #[test]
    fn close_without_open_is_flagged() {
        let events = vec![(s(48), EngineEvent::RestoreDone { task: 2 })];
        let check = check_stream(&events);
        assert_eq!(check.violations.len(), 1);
        assert_eq!(check.violations[0].invariant, "close_without_open");
        assert_eq!(check.violations[0].task, Some(2));
    }

    #[test]
    fn double_open_and_wrong_refail_are_flagged() {
        let events = vec![
            (
                s(40),
                EngineEvent::OutageOpened {
                    task: 0,
                    refail: true, // first record must not be a refail
                },
            ),
            (
                s(41),
                EngineEvent::OutageOpened {
                    task: 0,
                    refail: true, // opened while still open
                },
            ),
        ];
        let check = check_stream(&events);
        let rules: Vec<&str> = check.violations.iter().map(|v| v.invariant).collect();
        assert!(rules.contains(&"refail_flag_wrong"), "{rules:?}");
        assert!(rules.contains(&"open_while_open"), "{rules:?}");
    }

    #[test]
    fn close_before_detection_is_flagged() {
        let events = vec![
            (
                s(40),
                EngineEvent::OutageOpened {
                    task: 5,
                    refail: false,
                },
            ),
            (s(41), EngineEvent::ReplicaActivated { task: 5 }),
        ];
        let check = check_stream(&events);
        assert_eq!(check.violations.len(), 1);
        assert_eq!(check.violations[0].invariant, "close_before_detection");
    }

    #[test]
    fn approx_recovery_lifecycle_rules() {
        // Healthy: open → detect → approx_recovery → restore_done.
        let healthy = vec![
            (
                s(40),
                EngineEvent::OutageOpened {
                    task: 1,
                    refail: false,
                },
            ),
            (s(45), EngineEvent::OutageDetected { task: 1 }),
            (
                s(46),
                EngineEvent::ApproxRecovery {
                    task: 1,
                    divergence: 120,
                    skipped_batches: 6,
                },
            ),
            (s(46), EngineEvent::RestoreDone { task: 1 }),
        ];
        assert!(check_stream(&healthy).ok());

        // A second ApproxRecovery in one record double-counts the loss.
        let mut doubled = healthy.clone();
        doubled.insert(
            3,
            (
                s(46),
                EngineEvent::ApproxRecovery {
                    task: 1,
                    divergence: 120,
                    skipped_batches: 6,
                },
            ),
        );
        let check = check_stream(&doubled);
        assert_eq!(check.violations.len(), 1);
        assert_eq!(check.violations[0].invariant, "approx_recovery_twice");

        // A lossy recovery with no detected open outage is flagged.
        let bad = vec![(
            s(46),
            EngineEvent::ApproxRecovery {
                task: 2,
                divergence: 1,
                skipped_batches: 0,
            },
        )];
        let rules: Vec<&str> = check_stream(&bad)
            .violations
            .iter()
            .map(|v| v.invariant)
            .collect();
        assert_eq!(rules, vec!["approx_recovery_before_detection"]);
    }

    #[test]
    fn epoch_snapshots_must_move_forward() {
        // What a resumed drive used to emit: the second call re-fired the
        // boundaries the first had already passed.
        let epochs = |secs: &[u64]| -> Vec<(SimTime, EngineEvent)> {
            let snapshot = EngineEvent::EpochHealthSnapshot { scores: vec![] };
            secs.iter().map(|&at| (s(at), snapshot.clone())).collect()
        };
        assert!(check_stream(&epochs(&[5, 10, 15, 20, 25])).ok());
        let check = check_stream(&epochs(&[5, 10, 5, 10, 15]));
        let flagged: Vec<(&str, SimTime)> = check
            .violations
            .iter()
            .map(|v| (v.invariant, v.at))
            .collect();
        assert_eq!(flagged, vec![("epoch_not_after_previous", s(5))]);
        // A repeated instant is not a step forward either.
        assert_eq!(check_stream(&epochs(&[5, 5])).violations.len(), 1);
    }

    #[test]
    fn duplicate_tentative_is_flagged() {
        let events = vec![
            (
                s(40),
                EngineEvent::OutageOpened {
                    task: 3,
                    refail: false,
                },
            ),
            (s(45), EngineEvent::OutageDetected { task: 3 }),
            (s(46), EngineEvent::TentativeResumed { task: 3 }),
            (s(47), EngineEvent::TentativeResumed { task: 3 }),
        ];
        let check = check_stream(&events);
        assert_eq!(check.violations.len(), 1);
        assert_eq!(check.violations[0].invariant, "tentative_twice");
    }
}
