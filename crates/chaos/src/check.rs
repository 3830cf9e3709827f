//! Cross-layer invariant checking: one run's event stream, [`RunReport`],
//! metrics snapshot and resolved chaos scenario must all tell the same
//! story.
//!
//! `ppa_obs::check_stream` validates what the stream alone can express
//! (the per-task outage lifecycle machine); this module adds every check
//! that needs a second witness:
//!
//! * **events ↔ report** — each task's `OutageOpened`/close events agree
//!   with its `TaskOutages` record history, record timestamps are
//!   ordered, and only the last record may be open;
//! * **events ↔ trace** — `FailureInjected` waves replay the resolved
//!   kill trace exactly;
//! * **events ↔ metrics** — every lifecycle counter equals its event
//!   count, and throughput counters reconcile with the report;
//! * **exactly-once sinks** — a non-tentative sink batch id is emitted
//!   once, unless its sink task went through a state restore (a restore
//!   rewinds the batch cursor, legitimately re-emitting);
//! * **closed-or-explained** — an outage still open at the horizon is
//!   either detected (recovery in flight) or undetected but within the
//!   detection allowance (heartbeat cadence + the chaos schedule's
//!   slack); anything else is a lost outage.

use crate::feed::ResolvedChaos;
use ppa_engine::{EngineEvent, MetricsSnapshot, RunReport, HEARTBEAT_INTERVAL};
use ppa_obs::{check_stream, Violation};
use ppa_sim::SimTime;
use std::collections::BTreeMap;

/// Everything the checker cross-references for one run.
pub struct CheckInput<'a> {
    pub report: &'a RunReport,
    pub events: &'a [(SimTime, EngineEvent)],
    pub metrics: &'a MetricsSnapshot,
    pub resolved: &'a ResolvedChaos,
    pub horizon: SimTime,
}

fn violation(
    invariant: &'static str,
    at: SimTime,
    task: Option<usize>,
    detail: String,
) -> Violation {
    Violation {
        invariant,
        at,
        task,
        detail,
    }
}

/// Runs the stream checker plus every cross-layer check; returns all
/// violations found (empty = the run holds its invariants).
pub fn check_run(input: &CheckInput<'_>) -> Vec<Violation> {
    let mut out = check_stream(input.events).violations;
    check_report_agreement(input, &mut out);
    check_trace_agreement(input, &mut out);
    check_metrics_agreement(input, &mut out);
    check_sink_exactly_once(input, &mut out);
    check_closed_or_explained(input, &mut out);
    check_fidelity_floor(input, &mut out);
    out
}

/// Per-task event counts folded out of the stream.
#[derive(Default)]
struct TaskEvents {
    opened: usize,
    closed: usize,
    restores_started: usize,
    /// Instant of the last `OutageOpened`/`RecoverySetback` — the last
    /// time the task's detection clock was (re)armed.
    last_armed: SimTime,
}

fn fold_task_events(events: &[(SimTime, EngineEvent)]) -> BTreeMap<usize, TaskEvents> {
    let mut tasks: BTreeMap<usize, TaskEvents> = BTreeMap::new();
    for &(at, ref event) in events {
        match event {
            EngineEvent::OutageOpened { task, .. } => {
                let st = tasks.entry(*task).or_default();
                st.opened += 1;
                st.last_armed = st.last_armed.max(at);
            }
            EngineEvent::RecoverySetback { task } => {
                let st = tasks.entry(*task).or_default();
                st.last_armed = st.last_armed.max(at);
            }
            EngineEvent::RestoreDone { task } | EngineEvent::ReplicaActivated { task } => {
                tasks.entry(*task).or_default().closed += 1;
            }
            EngineEvent::RestoreStarted { task, .. } => {
                tasks.entry(*task).or_default().restores_started += 1;
            }
            _ => {}
        }
    }
    tasks
}

/// events ↔ report: outage histories and the stream must agree.
fn check_report_agreement(input: &CheckInput<'_>, out: &mut Vec<Violation>) {
    let by_task = fold_task_events(input.events);
    let end = input.report.ended_at;

    for outages in &input.report.outages {
        let task = outages.task.0;
        let folded = by_task.get(&task);
        let opened = folded.map_or(0, |f| f.opened);
        if opened != outages.records.len() {
            out.push(violation(
                "report_open_count_mismatch",
                end,
                Some(task),
                format!(
                    "{} OutageOpened events but {} outage records",
                    opened,
                    outages.records.len()
                ),
            ));
        }
        let closed_events = folded.map_or(0, |f| f.closed);
        let closed_records = outages.records.iter().filter(|r| !r.open()).count();
        if closed_events != closed_records {
            out.push(violation(
                "report_close_count_mismatch",
                end,
                Some(task),
                format!("{closed_events} close events but {closed_records} recovered records"),
            ));
        }
        for (i, r) in outages.records.iter().enumerate() {
            if r.detected() && r.detected_at < r.failed_at {
                out.push(violation(
                    "record_detected_before_failed",
                    r.detected_at,
                    Some(task),
                    format!(
                        "record #{i}: detected {} < failed {}",
                        r.detected_at, r.failed_at
                    ),
                ));
            }
            if let Some(rec) = r.recovered_at {
                if !r.detected() {
                    out.push(violation(
                        "record_recovered_undetected",
                        rec,
                        Some(task),
                        format!("record #{i} recovered without a detection"),
                    ));
                } else if rec < r.detected_at {
                    out.push(violation(
                        "record_recovered_before_detected",
                        rec,
                        Some(task),
                        format!(
                            "record #{i}: recovered {} < detected {}",
                            rec, r.detected_at
                        ),
                    ));
                }
            }
            if r.open() && i + 1 != outages.records.len() {
                out.push(violation(
                    "non_final_record_open",
                    end,
                    Some(task),
                    format!(
                        "record #{i} is open but {} records follow it",
                        outages.records.len() - i - 1
                    ),
                ));
            }
        }
    }

    // The converse direction: a task with outage events must own a
    // report history.
    for (&task, folded) in &by_task {
        if folded.opened > 0 && !input.report.outages.iter().any(|o| o.task.0 == task) {
            out.push(violation(
                "report_history_missing",
                end,
                Some(task),
                format!(
                    "{} OutageOpened events but no outage history",
                    folded.opened
                ),
            ));
        }
    }
}

/// events ↔ trace: `FailureInjected` waves must replay the resolved kill
/// trace exactly — same instants, same node sets, same order.
fn check_trace_agreement(input: &CheckInput<'_>, out: &mut Vec<Violation>) {
    let observed: Vec<(SimTime, Vec<usize>)> = input
        .events
        .iter()
        .filter_map(|(at, e)| match e {
            EngineEvent::FailureInjected { nodes } => Some((*at, nodes.clone())),
            _ => None,
        })
        .collect();
    let expected: Vec<(SimTime, Vec<usize>)> = input
        .resolved
        .trace
        .events()
        .iter()
        .map(|e| (e.at, e.nodes.clone()))
        .collect();
    if observed != expected {
        out.push(violation(
            "trace_replay_mismatch",
            input.horizon,
            None,
            format!(
                "{} FailureInjected waves do not replay the {}-event resolved trace",
                observed.len(),
                expected.len()
            ),
        ));
    }
}

/// events ↔ metrics: lifecycle counters must equal their event counts,
/// and throughput counters must reconcile with the report.
fn check_metrics_agreement(input: &CheckInput<'_>, out: &mut Vec<Violation>) {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut nodes_killed = 0u64;
    let mut refails = 0u64;
    for (_, event) in input.events {
        match event {
            EngineEvent::FailureInjected { nodes } => {
                *counts.entry("engine.failures.waves").or_default() += 1;
                nodes_killed += nodes.len() as u64;
            }
            EngineEvent::OutageOpened { refail, .. } => {
                *counts.entry("engine.outages.opened").or_default() += 1;
                if *refail {
                    refails += 1;
                }
            }
            EngineEvent::OutageDetected { .. } => {
                *counts.entry("engine.outages.detected").or_default() += 1;
            }
            EngineEvent::RestoreStarted { .. } => {
                *counts.entry("engine.restores.started").or_default() += 1;
            }
            EngineEvent::RestoreDone { .. } => {
                *counts.entry("engine.recoveries.via_restore").or_default() += 1;
            }
            EngineEvent::RestoreVoided { .. } => {
                *counts.entry("engine.restores.voided").or_default() += 1;
            }
            EngineEvent::ReplicaActivated { .. } => {
                *counts.entry("engine.recoveries.via_replica").or_default() += 1;
            }
            EngineEvent::TentativeResumed { .. } => {
                *counts.entry("engine.tentative.resumed").or_default() += 1;
            }
            EngineEvent::ApproxBackupShipped { .. } => {
                *counts.entry("engine.approx.backups_shipped").or_default() += 1;
            }
            EngineEvent::ApproxRecovery { divergence, .. } => {
                *counts
                    .entry("engine.approx.divergence_at_recovery")
                    .or_default() += divergence;
            }
            _ => {}
        }
    }
    counts.insert("engine.failures.nodes_killed", nodes_killed);
    counts.insert("engine.outages.refails", refails);
    counts.insert("engine.chaos.fired", input.resolved.schedule.len() as u64);
    counts.insert("engine.events.processed", input.report.events);
    counts.insert("engine.tuples.moved", input.report.tuples_moved);

    for (name, expected) in counts {
        let actual = input.metrics.counter(name);
        if actual != expected {
            out.push(violation(
                "metrics_counter_mismatch",
                input.horizon,
                None,
                format!("{name}: counter reads {actual}, events say {expected}"),
            ));
        }
    }
}

/// Exactly-once sink accounting: a non-tentative `(task, batch)` pair
/// may repeat only if that sink task went through a state restore (the
/// restore rewinds its batch cursor; downstream re-emission is the
/// documented at-least-once window of checkpoint recovery).
fn check_sink_exactly_once(input: &CheckInput<'_>, out: &mut Vec<Violation>) {
    let by_task = fold_task_events(input.events);
    let mut seen: BTreeMap<(usize, u64), usize> = BTreeMap::new();
    for batch in &input.report.sink {
        if batch.tentative {
            continue;
        }
        *seen.entry((batch.task.0, batch.batch)).or_default() += 1;
    }
    for ((task, batch), count) in seen {
        if count > 1 && by_task.get(&task).map_or(0, |f| f.restores_started) == 0 {
            out.push(violation(
                "sink_duplicate_batch",
                input.horizon,
                Some(task),
                format!(
                    "non-tentative batch {batch} emitted {count}× by a task that never restored"
                ),
            ));
        }
    }
}

/// Closed-or-explained: every outage still open at the horizon must be
/// detected (recovery in flight — the run just ended first) or still
/// within the detection allowance measured from the last (re)arming of
/// its detection clock: two heartbeat scans plus whatever slack the
/// chaos schedule legitimately injected.
fn check_closed_or_explained(input: &CheckInput<'_>, out: &mut Vec<Violation>) {
    let by_task = fold_task_events(input.events);
    let slack = input.resolved.schedule.detection_slack();
    let allowance = HEARTBEAT_INTERVAL + HEARTBEAT_INTERVAL + slack;
    for outages in &input.report.outages {
        let task = outages.task.0;
        let Some(last) = outages.records.last() else {
            continue;
        };
        if !last.open() || last.detected() {
            continue;
        }
        let armed = by_task.get(&task).map_or(last.failed_at, |f| f.last_armed);
        let overdue = input.horizon.since(armed.min(input.horizon));
        if overdue > allowance {
            out.push(violation(
                "undetected_outage_overdue",
                input.horizon,
                Some(task),
                format!(
                    "outage armed at {armed} still undetected {overdue} later \
                     (allowance {allowance})"
                ),
            ));
        }
    }
}

/// Fidelity-floor accounting: the stream's `ApproxRecovery` events and
/// the report's `fidelity_floor` records must tell the same story — a
/// floor is in permille (≤ 1000), every recorded floor has exactly one
/// matching lossy-recovery event for its task (same values, same order),
/// and a lossy recovery never leaves the report floorless. This is the
/// invariant that catches a voided/stalled restore double-counting an
/// approximate recovery into one outage record.
fn check_fidelity_floor(input: &CheckInput<'_>, out: &mut Vec<Violation>) {
    let end = input.report.ended_at;
    let mut event_floors: BTreeMap<usize, Vec<u16>> = BTreeMap::new();
    for (at, event) in input.events {
        if let EngineEvent::ApproxRecovery {
            task,
            fidelity_floor,
            ..
        } = event
        {
            if *fidelity_floor > 1000 {
                out.push(violation(
                    "fidelity_floor_out_of_range",
                    *at,
                    Some(*task),
                    format!("ApproxRecovery floor {fidelity_floor}‰ exceeds 1000"),
                ));
            }
            event_floors.entry(*task).or_default().push(*fidelity_floor);
        }
    }
    for outages in &input.report.outages {
        let task = outages.task.0;
        let recorded: Vec<u16> = outages
            .records
            .iter()
            .filter_map(|r| r.fidelity_floor)
            .collect();
        let witnessed = event_floors.remove(&task).unwrap_or_default();
        if recorded != witnessed {
            out.push(violation(
                "fidelity_floor_mismatch",
                end,
                Some(task),
                format!("report floors {recorded:?} but ApproxRecovery events say {witnessed:?}"),
            ));
        }
    }
    for (task, witnessed) in event_floors {
        out.push(violation(
            "fidelity_floor_mismatch",
            end,
            Some(task),
            format!(
                "{} ApproxRecovery events but no outage history",
                witnessed.len()
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ChaosSchedule;
    use ppa_engine::FailureTrace;

    fn empty_input<'a>(
        report: &'a RunReport,
        events: &'a [(SimTime, EngineEvent)],
        metrics: &'a MetricsSnapshot,
        resolved: &'a ResolvedChaos,
    ) -> CheckInput<'a> {
        CheckInput {
            report,
            events,
            metrics,
            resolved,
            horizon: SimTime::from_secs(60),
        }
    }

    #[test]
    fn an_empty_run_checks_clean() {
        let report = RunReport::default();
        let events: Vec<(SimTime, EngineEvent)> = Vec::new();
        let metrics = MetricsSnapshot::default();
        let resolved = ResolvedChaos {
            trace: FailureTrace::new(),
            schedule: ChaosSchedule::new(),
            suppressed_kills: 0,
        };
        let input = empty_input(&report, &events, &metrics, &resolved);
        assert!(check_run(&input).is_empty());
    }

    #[test]
    fn a_phantom_wave_is_a_trace_mismatch() {
        let report = RunReport::default();
        let events = vec![(
            SimTime::from_secs(10),
            EngineEvent::FailureInjected { nodes: vec![1] },
        )];
        let metrics = MetricsSnapshot {
            counters: vec![
                ("engine.failures.nodes_killed", 1),
                ("engine.failures.waves", 1),
            ],
            ..MetricsSnapshot::default()
        };
        let resolved = ResolvedChaos {
            trace: FailureTrace::new(), // resolved trace says: no kills
            schedule: ChaosSchedule::new(),
            suppressed_kills: 0,
        };
        let input = empty_input(&report, &events, &metrics, &resolved);
        let rules: Vec<&str> = check_run(&input).iter().map(|v| v.invariant).collect();
        assert!(rules.contains(&"trace_replay_mismatch"), "{rules:?}");
    }

    #[test]
    fn floor_without_a_recovery_event_is_a_mismatch() {
        use ppa_engine::{OutageRecord, TaskOutages};
        let mut report = RunReport::default();
        report.outages.push(TaskOutages {
            task: ppa_core::model::TaskIndex(3),
            records: vec![OutageRecord {
                via_replica: false,
                failed_at: SimTime::from_secs(20),
                detected_at: SimTime::from_secs(25),
                recovered_at: Some(SimTime::from_secs(26)),
                fidelity_floor: Some(700),
            }],
        });
        // One opened/closed pair so the lifecycle checks stay quiet; the
        // floor on the record has no ApproxRecovery witness.
        let events = vec![
            (
                SimTime::from_secs(20),
                EngineEvent::OutageOpened {
                    task: 3,
                    refail: false,
                },
            ),
            (
                SimTime::from_secs(25),
                EngineEvent::OutageDetected { task: 3 },
            ),
            (SimTime::from_secs(26), EngineEvent::RestoreDone { task: 3 }),
        ];
        let metrics = MetricsSnapshot {
            counters: vec![
                ("engine.outages.opened", 1),
                ("engine.outages.detected", 1),
                ("engine.recoveries.via_restore", 1),
            ],
            ..MetricsSnapshot::default()
        };
        let resolved = ResolvedChaos {
            trace: FailureTrace::new(),
            schedule: ChaosSchedule::new(),
            suppressed_kills: 0,
        };
        let input = empty_input(&report, &events, &metrics, &resolved);
        let check = check_run(&input);
        assert!(
            check
                .iter()
                .any(|v| v.invariant == "fidelity_floor_mismatch"),
            "{check:?}"
        );

        // Adding the witnessing event (and its divergence counter)
        // reconciles the two layers.
        let mut events = events;
        events.insert(
            2,
            (
                SimTime::from_secs(26),
                EngineEvent::ApproxRecovery {
                    task: 3,
                    divergence: 42,
                    skipped_batches: 4,
                    fidelity_floor: 700,
                },
            ),
        );
        let metrics = MetricsSnapshot {
            counters: vec![
                ("engine.outages.opened", 1),
                ("engine.outages.detected", 1),
                ("engine.recoveries.via_restore", 1),
                ("engine.approx.divergence_at_recovery", 42),
            ],
            ..MetricsSnapshot::default()
        };
        let input = empty_input(&report, &events, &metrics, &resolved);
        let check = check_run(&input);
        assert!(
            !check
                .iter()
                .any(|v| v.invariant == "fidelity_floor_mismatch"),
            "{check:?}"
        );
    }

    #[test]
    fn counter_drift_is_flagged() {
        let report = RunReport::default();
        let events = vec![(
            SimTime::from_secs(10),
            EngineEvent::OutageDetected { task: 0 },
        )];
        // Stream says one detection; registry says two.
        let metrics = MetricsSnapshot {
            counters: vec![("engine.outages.detected", 2)],
            ..MetricsSnapshot::default()
        };
        let resolved = ResolvedChaos {
            trace: FailureTrace::new(),
            schedule: ChaosSchedule::new(),
            suppressed_kills: 0,
        };
        let input = empty_input(&report, &events, &metrics, &resolved);
        let check = check_run(&input);
        assert!(
            check
                .iter()
                .any(|v| v.invariant == "metrics_counter_mismatch"
                    && v.detail.contains("engine.outages.detected")),
            "{check:?}"
        );
    }
}
