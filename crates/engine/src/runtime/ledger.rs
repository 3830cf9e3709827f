//! The outage books: every task's outage history, lifecycle state and the
//! policy-facing setback count, behind the one type that may change them.
//!
//! Each transition applies its writes and hands back the [`EngineEvent`]
//! it implies, so a record field, a [`Lifecycle`] and the trace cannot
//! disagree — what `ppa_obs::check_stream` verifies over a finished
//! stream holds here by construction. The ledger knows logical tasks and
//! instants only: no slots, nodes or scheduler.

use crate::report::{Lifecycle, OutageRecord, TaskOutages};
use ppa_core::TaskIndex;
use ppa_obs::EngineEvent;
use ppa_sim::SimTime;

pub(super) struct OutageLedger {
    /// Per-task outage histories in first-failure order — the report's
    /// `outages`.
    outages: Vec<TaskOutages>,
    /// Index into `outages` per logical task.
    outage_of: Vec<Option<usize>>,
    /// Lifecycle state of every logical task
    /// (`Healthy → Failed → Replaying → Recovered → ReFailed → …`).
    lifecycle: Vec<Lifecycle>,
    /// Per logical task: whether the currently open record has already
    /// produced tentative (proxied) output.
    proxied: Vec<bool>,
    /// Monotone count of recovery setbacks: re-failures (a new outage
    /// record beyond a task's first), deaths that re-arm an open record
    /// mid-recovery, and pending takeovers lost to a muted replica's
    /// death. The policy-facing "something went backwards" signal —
    /// strictly more sensitive than comparing outage counts, which miss
    /// the re-arm cases.
    setbacks: usize,
}

impl OutageLedger {
    pub(super) fn new(n_tasks: usize) -> Self {
        OutageLedger {
            outages: Vec::new(),
            outage_of: vec![None; n_tasks],
            lifecycle: vec![Lifecycle::Healthy; n_tasks],
            proxied: vec![false; n_tasks],
            setbacks: 0,
        }
    }

    pub(super) fn histories(&self) -> &[TaskOutages] {
        &self.outages
    }

    pub(super) fn setbacks(&self) -> usize {
        self.setbacks
    }

    /// The current (most recent) outage record of task `t`.
    pub(super) fn current(&self, t: usize) -> Option<&OutageRecord> {
        self.outage_of[t].and_then(|i| self.outages[i].records.last())
    }

    /// Whether task `t` is in an open outage the master has detected —
    /// down, and known to be.
    pub(super) fn awaiting_recovery(&self, t: usize) -> bool {
        self.current(t)
            .is_some_and(|rec| rec.open() && rec.detected())
    }

    fn current_mut(&mut self, t: usize) -> Option<&mut OutageRecord> {
        let i = self.outage_of[t]?;
        self.outages[i].records.last_mut()
    }

    /// Task `t`'s active incarnation died at `now`: a healthy or recovered
    /// task gets a fresh record (`OutageOpened`, `Failed` / `ReFailed`); a
    /// task dying again mid-recovery keeps its open record but loses its
    /// detection and any pending takeover (`RecoverySetback`) — the master
    /// must re-detect and restart the recovery path.
    pub(super) fn fail(&mut self, t: usize, now: SimTime) -> EngineEvent {
        let idx = match self.outage_of[t] {
            Some(i) => i,
            None => {
                self.outages.push(TaskOutages {
                    task: TaskIndex(t),
                    records: Vec::new(),
                });
                *self.outage_of[t].insert(self.outages.len() - 1)
            }
        };
        let records = &mut self.outages[idx].records;
        let rearmed = match records.last_mut() {
            Some(last) if last.open() => {
                last.detected_at = SimTime::MAX;
                last.via_replica = false;
                true
            }
            _ => {
                records.push(OutageRecord {
                    via_replica: false,
                    failed_at: now,
                    detected_at: SimTime::MAX,
                    recovered_at: None,
                });
                false
            }
        };
        let refail = records.len() > 1;
        self.lifecycle[t] = if refail {
            Lifecycle::ReFailed
        } else {
            Lifecycle::Failed
        };
        if rearmed {
            self.setbacks += 1;
            return EngineEvent::RecoverySetback { task: t };
        }
        self.setbacks += usize::from(refail);
        // A fresh record: its first proxied output is still to come.
        self.proxied[t] = false;
        EngineEvent::OutageOpened { task: t, refail }
    }

    /// The heartbeat scan found task `t` down at `now`. `None` unless its
    /// current record is open and undetected (never failed, already
    /// detected, or recovered), which makes a repeated scan a no-op.
    pub(super) fn detect(&mut self, t: usize, now: SimTime) -> Option<EngineEvent> {
        let rec = self
            .current_mut(t)
            .filter(|rec| rec.open() && !rec.detected())?;
        rec.detected_at = now;
        Some(EngineEvent::OutageDetected { task: t })
    }

    /// A live replica's takeover of task `t` is scheduled.
    pub(super) fn begin_takeover(&mut self, t: usize) {
        if let Some(rec) = self.current_mut(t) {
            rec.via_replica = true;
        }
        self.lifecycle[t] = Lifecycle::Replaying;
    }

    /// A passive restore of task `t` onto `node` is scheduled.
    pub(super) fn begin_restore(&mut self, t: usize, node: usize) -> EngineEvent {
        self.lifecycle[t] = Lifecycle::Replaying;
        EngineEvent::RestoreStarted { task: t, node }
    }

    /// The muted replica whose takeover of task `t` was pending died: the
    /// record falls back to the passive path, one setback counted.
    pub(super) fn lose_takeover(&mut self, t: usize) -> EngineEvent {
        if let Some(rec) = self.current_mut(t) {
            rec.via_replica = false;
        }
        self.setbacks += 1;
        EngineEvent::RecoverySetback { task: t }
    }

    /// Task `t`'s output is being proxied: `TentativeResumed` on the
    /// first proxy of the current record, `None` after.
    pub(super) fn first_proxy(&mut self, t: usize) -> Option<EngineEvent> {
        let first = !std::mem::replace(&mut self.proxied[t], true);
        first.then_some(EngineEvent::TentativeResumed { task: t })
    }

    /// Task `t` is back at `at` — by replica `takeover`, else by restore.
    /// The single funnel every recovery path closes through: idempotent
    /// per record, so exactly one closing event (`ReplicaActivated` or
    /// `RestoreDone`) exists per record.
    pub(super) fn close(&mut self, t: usize, at: SimTime, takeover: bool) -> Option<EngineEvent> {
        let rec = self.current_mut(t)?;
        rec.via_replica |= takeover;
        if !rec.open() {
            return None;
        }
        rec.recovered_at = Some(at);
        let event = if rec.via_replica {
            EngineEvent::ReplicaActivated { task: t }
        } else {
            EngineEvent::RestoreDone { task: t }
        };
        self.lifecycle[t] = Lifecycle::Recovered;
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn s(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Task 1 of three: failed at 10 s, detected at 15 s.
    fn detected() -> OutageLedger {
        let mut ledger = OutageLedger::new(3);
        assert_eq!(
            ledger.fail(1, s(10)),
            EngineEvent::OutageOpened {
                task: 1,
                refail: false
            }
        );
        assert_eq!(
            ledger.detect(1, s(15)),
            Some(EngineEvent::OutageDetected { task: 1 })
        );
        ledger
    }

    #[test]
    fn closing_is_idempotent_with_one_closing_event_per_record() -> TestResult {
        let mut ledger = detected();
        assert_eq!(ledger.detect(1, s(16)), None, "a repeated scan is a no-op");
        assert_eq!(
            ledger.begin_restore(1, 7),
            EngineEvent::RestoreStarted { task: 1, node: 7 }
        );
        assert_eq!(ledger.lifecycle[1], Lifecycle::Replaying);
        assert_eq!(
            ledger.close(1, s(18), false),
            Some(EngineEvent::RestoreDone { task: 1 })
        );
        assert_eq!(ledger.close(1, s(19), false), None);
        let rec = ledger.current(1).ok_or("one record")?;
        assert_eq!(rec.recovered_at, Some(s(18)));
        assert_eq!(ledger.lifecycle[1], Lifecycle::Recovered);
        assert_eq!(ledger.histories().len(), 1, "task 1's history only");
        assert_eq!(ledger.histories()[0].records.len(), 1);
        // A task that never failed has nothing to close.
        assert_eq!(ledger.close(0, s(19), false), None);
        assert_eq!(ledger.lifecycle[0], Lifecycle::Healthy);
        Ok(())
    }

    #[test]
    fn death_mid_recovery_rearms_the_open_record() -> TestResult {
        let mut ledger = detected();
        ledger.begin_takeover(1);
        assert!(ledger.current(1).is_some_and(|r| r.via_replica));
        assert_eq!(
            ledger.fail(1, s(16)),
            EngineEvent::RecoverySetback { task: 1 },
            "the open record continues: no second OutageOpened"
        );
        let rec = ledger.current(1).ok_or("still one record")?;
        assert!(rec.open() && !rec.detected() && !rec.via_replica);
        assert_eq!(
            rec.failed_at,
            s(10),
            "the outage is measured from its start"
        );
        assert_eq!(ledger.histories()[0].records.len(), 1);
        assert_eq!(ledger.setbacks(), 1);
        assert_eq!(ledger.lifecycle[1], Lifecycle::Failed);
        Ok(())
    }

    #[test]
    fn second_record_is_a_refail_and_resets_the_first_proxy_flag() {
        let mut ledger = detected();
        assert_eq!(
            ledger.first_proxy(1),
            Some(EngineEvent::TentativeResumed { task: 1 })
        );
        assert_eq!(ledger.first_proxy(1), None, "once per record");
        assert_eq!(
            ledger.close(1, s(16), true),
            Some(EngineEvent::ReplicaActivated { task: 1 })
        );
        assert_eq!(
            ledger.fail(1, s(30)),
            EngineEvent::OutageOpened {
                task: 1,
                refail: true
            }
        );
        assert_eq!(ledger.lifecycle[1], Lifecycle::ReFailed);
        assert_eq!(ledger.setbacks(), 1);
        assert_eq!(ledger.histories()[0].records.len(), 2);
        assert!(ledger.histories()[0].records[0].via_replica);
        assert_eq!(
            ledger.detect(1, s(35)),
            Some(EngineEvent::OutageDetected { task: 1 })
        );
        assert_eq!(
            ledger.current(1).map(|r| (r.failed_at, r.detected_at)),
            Some((s(30), s(35))),
            "the second record is detected from its own failure"
        );
        assert_eq!(
            ledger.first_proxy(1),
            Some(EngineEvent::TentativeResumed { task: 1 }),
            "the second record proxies afresh"
        );
    }

    #[test]
    fn lost_pending_takeover_counts_one_setback() -> TestResult {
        let mut ledger = detected();
        ledger.begin_takeover(1);
        assert_eq!(
            ledger.lose_takeover(1),
            EngineEvent::RecoverySetback { task: 1 }
        );
        let rec = ledger.current(1).ok_or("one record")?;
        assert!(
            rec.open() && rec.detected() && !rec.via_replica,
            "detection stands; only the path is void: {rec:?}"
        );
        assert_eq!(ledger.setbacks(), 1);
        assert_eq!(ledger.histories()[0].records.len(), 1);
        Ok(())
    }
}
