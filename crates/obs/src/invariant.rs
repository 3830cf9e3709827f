//! The outage lifecycle state machine, and invariant checking over
//! [`EngineEvent`] streams.
//!
//! [`OutageFold`] is the one reading of the lifecycle: every task walks
//! `OutageOpened → OutageDetected → {RestoreDone | ReplicaActivated}`,
//! with `RecoverySetback` looping an open record back to undetected. The
//! engine keeps its outage books by applying each event it emits, the
//! stream check below is the same fold over a recorded stream, and
//! `ppa-chaos` compares the fold's histories with a run's report. Only
//! the properties expressible over the stream alone are checked here;
//! cross-layer checks (events ↔ report ↔ metrics) live in `ppa-chaos`.

use crate::event::EngineEvent;
use ppa_sim::{SimDuration, SimTime};

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

/// One outage in a task's lifecycle: a failure of its active incarnation,
/// its detection, and (if the run lasted long enough) its recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutageRecord {
    /// Whether a replica takeover closed this outage (`false` while it is
    /// open).
    pub via_replica: bool,
    /// When the hosting node actually failed.
    pub failed_at: SimTime,
    /// When the master's heartbeat scan detected it (`SimTime::MAX` until
    /// then, and again after a setback voids the detection).
    pub detected_at: SimTime,
    /// When the task's progress vector dominated its pre-failure progress
    /// (`None` if the run ended first).
    pub recovered_at: Option<SimTime>,
}

impl OutageRecord {
    /// The paper's recovery latency: detection → progress restored.
    pub fn latency(&self) -> Option<SimDuration> {
        self.recovered_at.map(|r| r.since(self.detected_at))
    }

    /// Whether the heartbeat scan has detected this outage.
    pub fn detected(&self) -> bool {
        self.detected_at != SimTime::MAX
    }

    /// Whether the outage is still unrecovered.
    pub fn open(&self) -> bool {
        self.recovered_at.is_none()
    }
}

/// One task's outage history and the fold state of its current record.
#[derive(Debug, Clone, PartialEq)]
struct TaskFold {
    task: usize,
    /// Every outage the task went through, oldest first.
    records: Vec<OutageRecord>,
    /// `TentativeResumed` seen for the current record (the engine emits
    /// it on a record's first proxied output only).
    tentative: bool,
    /// `ApproxRecovery` seen for the current record (a voided approximate
    /// restore must not record its loss twice).
    approx: bool,
    /// When the current record's detection clock was last armed: its
    /// `OutageOpened`, or the latest `RecoverySetback`.
    armed_at: SimTime,
}

/// Per-task outage histories, folded one event at a time.
///
/// [`OutageFold::apply`] is the lifecycle state machine: it writes the
/// record fields an event implies and reports the rules the event
/// breaks. Histories appear in first-failure order. Event timestamps may
/// run ahead of emission order (completions land at CPU horizons), so
/// only per-record ordering is checked: detection not before its open,
/// a close not before its detection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutageFold {
    tasks: Vec<TaskFold>,
    /// Index into `tasks` per logical task.
    index: Vec<Option<usize>>,
}

impl OutageFold {
    pub fn new() -> Self {
        OutageFold::default()
    }

    /// Every task's history `(task, records)`, in first-failure order.
    pub fn histories(&self) -> impl Iterator<Item = (usize, &[OutageRecord])> {
        self.tasks.iter().map(|f| (f.task, f.records.as_slice()))
    }

    /// Task `task`'s current (most recent) outage record.
    pub fn current(&self, task: usize) -> Option<&OutageRecord> {
        self.task(task).and_then(|f| f.records.last())
    }

    /// Whether task `task`'s current record has produced tentative output.
    pub fn tentative(&self, task: usize) -> bool {
        self.task(task).is_some_and(|f| f.tentative)
    }

    /// When task `task`'s current record last armed its detection clock.
    pub fn armed_at(&self, task: usize) -> Option<SimTime> {
        self.task(task).map(|f| f.armed_at)
    }

    fn task(&self, task: usize) -> Option<&TaskFold> {
        let i = (*self.index.get(task)?)?;
        self.tasks.get(i)
    }

    fn task_mut(&mut self, task: usize) -> Option<&mut TaskFold> {
        let i = (*self.index.get(task)?)?;
        self.tasks.get_mut(i)
    }

    /// Task `task`'s current record, when it is open.
    fn open_mut(&mut self, task: usize) -> Option<&mut OutageRecord> {
        self.task_mut(task)
            .and_then(|f| f.records.last_mut())
            .filter(|rec| rec.open())
    }

    /// Whether task `task` is in an open outage that has been detected —
    /// down, and known to be.
    pub fn awaiting_recovery(&self, task: usize) -> bool {
        self.current(task)
            .is_some_and(|rec| rec.open() && rec.detected())
    }

    /// Applies one event at `at` and returns the rules it breaks (empty
    /// when it is a legal transition). Events that concern no single task
    /// leave the fold alone.
    pub fn apply(&mut self, at: SimTime, event: &EngineEvent) -> Vec<Violation> {
        let mut out = Vec::new();
        let Some(task) = event.task() else {
            return out;
        };
        let mut flag = |invariant, detail: String| {
            out.push(Violation {
                invariant,
                at,
                task: Some(task),
                detail,
            });
        };
        match *event {
            EngineEvent::OutageOpened { refail, .. } => {
                if task >= self.index.len() {
                    self.index.resize(task + 1, None);
                }
                let i = *self.index[task].get_or_insert(self.tasks.len());
                if i == self.tasks.len() {
                    self.tasks.push(TaskFold {
                        task,
                        records: Vec::new(),
                        tentative: false,
                        approx: false,
                        armed_at: at,
                    });
                }
                let f = &mut self.tasks[i];
                if f.records.last().is_some_and(OutageRecord::open) {
                    flag(
                        "open_while_open",
                        "a fresh outage record opened while one is still open".to_string(),
                    );
                }
                let first = f.records.is_empty();
                if refail == first {
                    flag(
                        "refail_flag_wrong",
                        format!(
                            "refail={refail} on outage record #{} (must mark every record \
                             beyond the first)",
                            f.records.len() + 1
                        ),
                    );
                }
                f.records.push(OutageRecord {
                    via_replica: false,
                    failed_at: at,
                    detected_at: SimTime::MAX,
                    recovered_at: None,
                });
                f.tentative = false;
                f.approx = false;
                f.armed_at = at;
            }
            EngineEvent::RecoverySetback { .. } => match self.open_mut(task) {
                Some(rec) => {
                    rec.detected_at = SimTime::MAX;
                    if let Some(f) = self.task_mut(task) {
                        f.armed_at = at;
                    }
                }
                None => flag(
                    "setback_without_open_outage",
                    "RecoverySetback with no open outage record".to_string(),
                ),
            },
            EngineEvent::OutageDetected { .. } => match self.open_mut(task) {
                Some(rec) => {
                    if at < rec.failed_at {
                        flag(
                            "detect_before_open",
                            format!(
                                "detected at {at}, before the record opened at {}",
                                rec.failed_at
                            ),
                        );
                    }
                    rec.detected_at = at;
                }
                None => flag(
                    "detect_without_open_outage",
                    "OutageDetected with no open outage record".to_string(),
                ),
            },
            EngineEvent::RestoreStarted { .. } if !self.awaiting_recovery(task) => flag(
                "restore_before_detection",
                "RestoreStarted without a detected open outage".to_string(),
            ),
            EngineEvent::TentativeResumed { .. } => {
                if !self.awaiting_recovery(task) {
                    flag(
                        "tentative_before_detection",
                        "TentativeResumed without a detected open outage".to_string(),
                    );
                }
                if let Some(f) = self.task_mut(task) {
                    if std::mem::replace(&mut f.tentative, true) {
                        flag(
                            "tentative_twice",
                            "a second TentativeResumed within one outage record".to_string(),
                        );
                    }
                }
            }
            EngineEvent::ApproxRecovery { .. } => {
                if !self.awaiting_recovery(task) {
                    flag(
                        "approx_recovery_before_detection",
                        "ApproxRecovery without a detected open outage".to_string(),
                    );
                }
                if let Some(f) = self.task_mut(task) {
                    if std::mem::replace(&mut f.approx, true) {
                        flag(
                            "approx_recovery_twice",
                            "a second ApproxRecovery within one outage record \
                             (forfeited fidelity double-counted)"
                                .to_string(),
                        );
                    }
                }
            }
            EngineEvent::RestoreDone { .. } | EngineEvent::ReplicaActivated { .. } => {
                let kind = event.kind();
                match self.open_mut(task) {
                    Some(rec) => {
                        if !rec.detected() {
                            flag(
                                "close_before_detection",
                                format!("{kind} closed a record never detected"),
                            );
                        } else if at < rec.detected_at {
                            flag(
                                "close_before_detection",
                                format!(
                                    "{kind} at {at}, before its detection at {}",
                                    rec.detected_at
                                ),
                            );
                        }
                        if at < rec.failed_at {
                            flag(
                                "close_before_open",
                                format!(
                                    "closed at {at}, before the record opened at {}",
                                    rec.failed_at
                                ),
                            );
                        }
                        rec.recovered_at = Some(at);
                        rec.via_replica = matches!(event, EngineEvent::ReplicaActivated { .. });
                    }
                    None => flag(
                        "close_without_open",
                        format!("{kind} with no open outage record"),
                    ),
                }
            }
            // A stale completion may trail an already-closed record; the
            // only hard requirement is that the task failed at some point.
            EngineEvent::RestoreVoided { .. } if self.task(task).is_none() => flag(
                "void_without_outage",
                "RestoreVoided for a task that never had an outage".to_string(),
            ),
            _ => {}
        }
        out
    }
}

/// The checker's verdict over one stream: the rules it breaks, and the
/// outage histories it folds to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamCheck {
    pub violations: Vec<Violation>,
    pub outages: OutageFold,
}

impl StreamCheck {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Folds the stream (in emission order) through [`OutageFold`], plus the
/// two rules that concern no task: a failure wave kills someone, and
/// epoch snapshots — each stamped at its own boundary — move forward.
pub fn check_stream(events: &[(SimTime, EngineEvent)]) -> StreamCheck {
    let mut outages = OutageFold::new();
    let mut violations = Vec::new();
    let mut last_epoch: Option<SimTime> = None;
    for &(at, ref event) in events {
        let mut flag = |invariant, detail| {
            violations.push(Violation {
                invariant,
                at,
                task: None,
                detail,
            });
        };
        match event {
            EngineEvent::FailureInjected { nodes } if nodes.is_empty() => flag(
                "empty_failure_wave",
                "FailureInjected with an empty kill list".to_string(),
            ),
            EngineEvent::EpochHealthSnapshot { scores } => {
                if let Some(last) = last_epoch.replace(at).filter(|&last| at <= last) {
                    flag(
                        "epoch_not_after_previous",
                        format!("epoch snapshot at {at} follows the one at {last}"),
                    );
                }
                if !scores.windows(2).all(|w| w[0].0 < w[1].0) {
                    flag(
                        "health_scores_unordered",
                        "EpochHealthSnapshot scores not in strict domain order".to_string(),
                    );
                }
            }
            _ => violations.extend(outages.apply(at, event)),
        }
    }
    StreamCheck {
        violations,
        outages,
    }
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

    fn opened(task: usize, refail: bool) -> EngineEvent {
        EngineEvent::OutageOpened { task, refail }
    }

    /// Folds `events`, asserting each is a legal transition.
    fn fold_clean(fold: &mut OutageFold, events: &[(SimTime, EngineEvent)]) {
        for (at, event) in events {
            let broken = fold.apply(*at, event);
            assert!(broken.is_empty(), "{event:?} at {at}: {broken:?}");
        }
    }

    /// Task 1 of three: failed at 10 s, detected at 15 s.
    fn detected() -> OutageFold {
        let mut fold = OutageFold::new();
        fold_clean(
            &mut fold,
            &[
                (s(10), opened(1, false)),
                (s(15), EngineEvent::OutageDetected { task: 1 }),
            ],
        );
        fold
    }

    /// The rule tags `event` breaks at `at`.
    fn broken(fold: &mut OutageFold, at: SimTime, event: EngineEvent) -> Vec<&'static str> {
        fold.apply(at, &event).iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn closing_is_idempotent_with_one_closing_event_per_record() -> Result<(), String> {
        let mut fold = detected();
        fold_clean(
            &mut fold,
            &[
                (s(15), EngineEvent::RestoreStarted { task: 1, node: 7 }),
                (s(18), EngineEvent::RestoreDone { task: 1 }),
            ],
        );
        let closed = fold.clone();
        assert_eq!(
            broken(&mut fold, s(19), EngineEvent::RestoreDone { task: 1 }),
            ["close_without_open"],
            "a second close of one record"
        );
        assert_eq!(fold, closed, "and it changes nothing");
        let rec = fold.current(1).ok_or("one record")?;
        assert_eq!(rec.recovered_at, Some(s(18)));
        assert!(!rec.via_replica);
        assert_eq!(fold.histories().count(), 1, "task 1's history only");
        // A task that never failed has nothing to close.
        assert_eq!(
            broken(&mut fold, s(19), EngineEvent::ReplicaActivated { task: 0 }),
            ["close_without_open"]
        );
        assert!(fold.current(0).is_none());
        Ok(())
    }

    #[test]
    fn death_mid_recovery_rearms_the_open_record() -> Result<(), String> {
        let mut fold = detected();
        fold_clean(
            &mut fold,
            &[(s(16), EngineEvent::RecoverySetback { task: 1 })],
        );
        let rec = fold.current(1).ok_or("still one record")?;
        assert!(rec.open() && !rec.detected() && !rec.via_replica);
        assert_eq!(
            rec.failed_at,
            s(10),
            "the outage is measured from its start"
        );
        assert_eq!(fold.armed_at(1), Some(s(16)), "detection re-armed");
        assert_eq!(fold.histories().map(|(_, r)| r.len()).sum::<usize>(), 1);
        Ok(())
    }

    #[test]
    fn second_record_is_a_refail_and_resets_the_first_proxy_flag() {
        let mut fold = detected();
        fold_clean(
            &mut fold,
            &[(s(15), EngineEvent::TentativeResumed { task: 1 })],
        );
        assert!(fold.tentative(1));
        fold_clean(
            &mut fold,
            &[
                (s(16), EngineEvent::ReplicaActivated { task: 1 }),
                (s(30), opened(1, true)),
            ],
        );
        assert!(!fold.tentative(1), "the second record proxies afresh");
        let histories: Vec<_> = fold.histories().collect();
        assert_eq!(histories.len(), 1);
        let (task, records) = histories[0];
        assert_eq!((task, records.len()), (1, 2));
        assert!(records[0].via_replica);
        fold_clean(
            &mut fold,
            &[(s(35), EngineEvent::OutageDetected { task: 1 })],
        );
        assert_eq!(
            fold.current(1).map(|r| (r.failed_at, r.detected_at)),
            Some((s(30), s(35))),
            "the second record is detected from its own failure"
        );
        fold_clean(
            &mut fold,
            &[(s(36), EngineEvent::TentativeResumed { task: 1 })],
        );
    }

    #[test]
    fn lost_pending_takeover_counts_one_setback() -> Result<(), String> {
        // The muted replica whose takeover was pending dies: the same
        // re-arm as any death mid-recovery. Detection is void, so the
        // passive path waits for the next scan (`a_setback_voids_detection`
        // flags a restore that does not).
        let mut fold = OutageFold::new();
        let mut stream = vec![
            (s(10), opened(1, false)),
            (s(15), EngineEvent::OutageDetected { task: 1 }),
            (s(16), EngineEvent::RecoverySetback { task: 1 }),
        ];
        fold_clean(&mut fold, &stream);
        let rec = fold.current(1).ok_or("one record")?;
        assert!(rec.open() && !rec.detected() && !rec.via_replica, "{rec:?}");
        stream.extend([
            (s(20), EngineEvent::OutageDetected { task: 1 }),
            (s(20), EngineEvent::RestoreStarted { task: 1, node: 7 }),
            (s(23), EngineEvent::RestoreDone { task: 1 }),
        ]);
        fold_clean(&mut fold, &stream[3..]);
        let rec = fold.current(1).ok_or("one record")?;
        assert_eq!((rec.detected_at, rec.recovered_at), (s(20), Some(s(23))));
        assert!(!rec.via_replica);
        let mut metrics = crate::MetricsRegistry::new();
        for (_, event) in &stream {
            metrics.record(event);
        }
        assert_eq!(metrics.counter("engine.recovery.setbacks"), 1);
        assert!(check_stream(&stream).ok());
        Ok(())
    }

    #[test]
    fn a_setback_voids_detection() {
        let events = vec![
            (s(40), opened(1, false)),
            (s(45), EngineEvent::OutageDetected { task: 1 }),
            (s(46), EngineEvent::RecoverySetback { task: 1 }),
            (s(46), EngineEvent::RestoreStarted { task: 1, node: 9 }),
        ];
        let rules: Vec<&str> = check_stream(&events)
            .violations
            .iter()
            .map(|v| v.invariant)
            .collect();
        assert_eq!(rules, ["restore_before_detection"]);
    }

    #[test]
    fn a_close_stamped_before_its_detection_is_flagged() {
        let events = vec![
            (s(40), opened(4, false)),
            (s(45), EngineEvent::OutageDetected { task: 4 }),
            (s(44), EngineEvent::RestoreDone { task: 4 }),
        ];
        let check = check_stream(&events);
        assert_eq!(check.violations.len(), 1, "{:?}", check.violations);
        assert_eq!(check.violations[0].invariant, "close_before_detection");
        assert_eq!(check.violations[0].at, s(44));
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
