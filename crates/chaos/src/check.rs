//! Cross-layer invariant checking: one run's event stream, [`RunReport`],
//! metrics snapshot and resolved chaos scenario must all tell the same
//! story.
//!
//! `ppa_obs::check_stream` validates what the stream alone can express
//! (the per-task outage lifecycle machine) and hands back the histories
//! it folded; this module adds every check that needs a second witness:
//!
//! * **events ↔ report** — the stream, folded through
//!   [`OutageFold`], equals the report's outage histories record for
//!   record;
//! * **events ↔ trace** — `FailureInjected` waves replay the resolved
//!   kill trace exactly;
//! * **events ↔ metrics** — the run's counters equal its stream folded
//!   through `MetricsRegistry::record`, plus one `engine.chaos.fired`
//!   per scheduled injection;
//! * **exactly-once sinks** — a non-tentative sink batch id is emitted
//!   once, unless its sink task went through a state restore (a restore
//!   rewinds the batch cursor, legitimately re-emitting);
//! * **closed-or-explained** — an outage still open at the horizon is
//!   either detected (recovery in flight) or undetected but within the
//!   detection allowance (heartbeat cadence + the chaos schedule's
//!   slack); anything else is a lost outage.

use crate::feed::ResolvedChaos;
use ppa_engine::{EngineEvent, MetricsRegistry, MetricsSnapshot, RunReport, HEARTBEAT_INTERVAL};
use ppa_obs::{check_stream, OutageFold, OutageRecord, Violation};
use ppa_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Everything the checker cross-references for one run.
pub(crate) struct CheckInput<'a> {
    pub(crate) report: &'a RunReport,
    pub(crate) events: &'a [(SimTime, EngineEvent)],
    pub(crate) metrics: &'a MetricsSnapshot,
    pub(crate) resolved: &'a ResolvedChaos,
    pub(crate) horizon: SimTime,
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
pub(crate) fn check_run(input: &CheckInput<'_>) -> Vec<Violation> {
    let check = check_stream(input.events);
    let mut out = check.violations;
    check_report_agreement(input, &check.outages, &mut out);
    check_trace_agreement(input, &mut out);
    check_metrics_agreement(input, &mut out);
    check_sink_exactly_once(input, &mut out);
    check_closed_or_explained(input, &check.outages, &mut out);
    out
}

/// events ↔ report: the stream must fold to exactly the report's outage
/// histories — same tasks in the same order, same records. The first
/// history that differs is named.
fn check_report_agreement(input: &CheckInput<'_>, fold: &OutageFold, out: &mut Vec<Violation>) {
    let folded: Vec<(usize, &[OutageRecord])> = fold.histories().collect();
    let reported: Vec<(usize, &[OutageRecord])> = input
        .report
        .outages
        .iter()
        .map(|h| (h.task.0, h.records.as_slice()))
        .collect();
    let Some(i) = (0..folded.len().max(reported.len())).find(|&i| folded.get(i) != reported.get(i))
    else {
        return;
    };
    let (ours, theirs) = (folded.get(i), reported.get(i));
    out.push(violation(
        "report_outages_mismatch",
        input.report.ended_at,
        ours.or(theirs).map(|&(task, _)| task),
        format!("history #{i}: the stream folds to {ours:?}, the report holds {theirs:?}"),
    ));
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

/// events ↔ metrics: the run's counters must be exactly its stream folded
/// through [`MetricsRegistry::record`] plus one `engine.chaos.fired` per
/// scheduled injection, over every counter either side names — so a
/// counter no event witnesses is a mismatch too. The one exemption is
/// `engine.approx.backups_skipped`, which no event explains.
fn check_metrics_agreement(input: &CheckInput<'_>, out: &mut Vec<Violation>) {
    let mut folded = MetricsRegistry::new();
    for (_, event) in input.events {
        folded.record(event);
    }
    folded.add("engine.chaos.fired", input.resolved.schedule.len() as u64);
    let witnessed = folded.snapshot();
    let names: BTreeSet<&str> = witnessed
        .counters
        .iter()
        .chain(&input.metrics.counters)
        .map(|&(name, _)| name)
        .filter(|&name| name != "engine.approx.backups_skipped")
        .collect();
    for name in names {
        let (actual, expected) = (input.metrics.counter(name), witnessed.counter(name));
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
    let restored: BTreeSet<usize> = input
        .events
        .iter()
        .filter_map(|(_, e)| match e {
            EngineEvent::RestoreStarted { task, .. } => Some(*task),
            _ => None,
        })
        .collect();
    let mut seen: BTreeMap<(usize, u64), usize> = BTreeMap::new();
    for batch in &input.report.sink {
        if batch.tentative {
            continue;
        }
        *seen.entry((batch.task.0, batch.batch)).or_default() += 1;
    }
    for ((task, batch), count) in seen {
        if count > 1 && !restored.contains(&task) {
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
fn check_closed_or_explained(input: &CheckInput<'_>, fold: &OutageFold, out: &mut Vec<Violation>) {
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
        let armed = fold.armed_at(task).unwrap_or(last.failed_at);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ChaosSchedule;
    use ppa_engine::FailureTrace;

    type Events = Vec<(SimTime, EngineEvent)>;

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

    /// A resolved scenario with no kills and no chaos.
    fn no_chaos() -> ResolvedChaos {
        ResolvedChaos {
            trace: FailureTrace::new(),
            schedule: ChaosSchedule::new(),
            suppressed_kills: 0,
        }
    }

    /// `events` counted the way the engine counts them.
    fn counted(events: &Events) -> MetricsSnapshot {
        let mut m = MetricsRegistry::new();
        for (_, event) in events {
            m.record(event);
        }
        m.snapshot()
    }

    #[test]
    fn an_empty_run_checks_clean() {
        let report = RunReport::default();
        let events: Events = Vec::new();
        let metrics = MetricsSnapshot::default();
        let resolved = no_chaos();
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
        let metrics = counted(&events);
        let resolved = no_chaos(); // the resolved trace says: no kills
        let input = empty_input(&report, &events, &metrics, &resolved);
        let rules: Vec<&str> = check_run(&input).iter().map(|v| v.invariant).collect();
        assert!(rules.contains(&"trace_replay_mismatch"), "{rules:?}");
    }

    #[test]
    fn counter_drift_is_flagged() {
        let report = RunReport::default();
        let resolved = no_chaos();
        // The stream says one detection, then none; the registry says two.
        let metrics = MetricsSnapshot {
            counters: vec![("engine.outages.detected", 2)],
        };
        for events in [
            vec![(
                SimTime::from_secs(10),
                EngineEvent::OutageDetected { task: 0 },
            )],
            Vec::new(),
        ] {
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
}
