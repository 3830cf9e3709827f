//! Trace exporters: canonical JSONL and Chrome `trace_event` JSON.
//!
//! Both are hand-rolled writers over plain integers and static strings,
//! so the output is a byte-deterministic function of the event stream —
//! fields appear in one fixed order, numbers use Rust's shortest-form
//! `Display`, and no map iteration order leaks in.

use crate::event::EngineEvent;
use ppa_sim::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON string literal (the quotes
/// are the caller's) — the workspace's one JSON escape. Event payload
/// strings are static identifiers today, but the writer stays honest
/// about quoting anyway.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Appends the event's payload fields (everything after `at_us` and
/// `kind`) to a JSON object body under construction. Each field is
/// written as `,"name":value` in a fixed, kind-specific order.
fn write_payload(event: &EngineEvent, out: &mut String) {
    match event {
        EngineEvent::FailureInjected { nodes } => {
            out.push_str(",\"nodes\":[");
            for (i, n) in nodes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{n}");
            }
            out.push(']');
        }
        EngineEvent::OutageOpened { task, refail } => {
            let _ = write!(out, ",\"task\":{task},\"refail\":{refail}");
        }
        EngineEvent::RecoverySetback { task }
        | EngineEvent::OutageDetected { task }
        | EngineEvent::RestoreDone { task }
        | EngineEvent::RestoreVoided { task }
        | EngineEvent::ReplicaActivated { task }
        | EngineEvent::TentativeResumed { task } => {
            let _ = write!(out, ",\"task\":{task}");
        }
        EngineEvent::RestoreStarted { task, node } => {
            let _ = write!(out, ",\"task\":{task},\"node\":{node}");
        }
        EngineEvent::ApproxBackupShipped { task, divergence } => {
            let _ = write!(out, ",\"task\":{task},\"divergence\":{divergence}");
        }
        EngineEvent::ApproxRecovery {
            task,
            divergence,
            skipped_batches,
        } => {
            let _ = write!(
                out,
                ",\"task\":{task},\"divergence\":{divergence},\"skipped_batches\":{skipped_batches}"
            );
        }
        EngineEvent::ReplanAdopted {
            activated,
            deactivated,
            plan_size,
        } => {
            let _ = write!(
                out,
                ",\"activated\":{activated},\"deactivated\":{deactivated},\"plan_size\":{plan_size}"
            );
        }
        EngineEvent::MigrationScheduled {
            planned_primaries,
            planned_standbys,
            moved_primaries,
            moved_standbys,
        } => {
            let _ = write!(
                out,
                ",\"planned_primaries\":{planned_primaries},\"planned_standbys\":{planned_standbys},\"moved_primaries\":{moved_primaries},\"moved_standbys\":{moved_standbys}"
            );
        }
        EngineEvent::ControlNoEffect { action, reason } => {
            out.push_str(",\"action\":\"");
            escape_json(action, out);
            out.push_str("\",\"reason\":\"");
            escape_json(reason, out);
            out.push('"');
        }
        EngineEvent::EpochHealthSnapshot { scores } => {
            out.push_str(",\"scores\":[");
            for (i, (domain, score)) in scores.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{domain},{score}]");
            }
            out.push(']');
        }
    }
}

/// The canonical trace format: one JSON object per line, in emission
/// order, each `{"at_us":...,"kind":"...",<payload>}` with a fixed
/// field order per kind. Ends with a trailing newline when non-empty.
pub fn to_jsonl(events: &[(SimTime, EngineEvent)]) -> String {
    let mut out = String::new();
    for (at, event) in events {
        let _ = write!(
            out,
            "{{\"at_us\":{},\"kind\":\"{}\"",
            at.as_micros(),
            event.kind()
        );
        write_payload(event, &mut out);
        out.push_str("}\n");
    }
    out
}

/// Converts a recorded stream to Chrome `trace_event` JSON, loadable in
/// `chrome://tracing` or Perfetto.
///
/// Each task maps to a thread (`tid` = task id, `pid` 0). Outages
/// render as `ph:"X"` duration spans from `outage_opened` to the
/// closing `restore_done`/`replica_activated` (an outage still open at
/// the end of the stream spans to the last recorded instant); every
/// event additionally renders as a `ph:"i"` instant — thread-scoped
/// when it concerns one task, global otherwise.
pub fn to_chrome_trace(events: &[(SimTime, EngineEvent)]) -> String {
    let mut entries: Vec<String> = Vec::new();
    let t_max = events
        .iter()
        .map(|(at, _)| at.as_micros())
        .max()
        .unwrap_or(0);

    // Open outage spans per task: (opened_us, refail).
    let mut open: BTreeMap<usize, (u64, bool)> = BTreeMap::new();
    for (at, event) in events {
        let us = at.as_micros();
        match event {
            EngineEvent::OutageOpened { task, refail } => {
                open.insert(*task, (us, *refail));
            }
            e if e.closes_outage() => {
                if let Some(task) = e.task() {
                    if let Some((from, refail)) = open.remove(&task) {
                        entries.push(span_entry(task, from, us, refail));
                    }
                }
            }
            _ => {}
        }
    }
    // Outages never closed span to the end of the recording; BTreeMap
    // iteration keeps the flush order deterministic.
    for (task, (from, refail)) in &open {
        entries.push(span_entry(*task, *from, t_max.max(*from), *refail));
    }

    for (at, event) in events {
        let mut e = String::new();
        let scope = if event.task().is_some() { "t" } else { "g" };
        let tid = event.task().unwrap_or(0);
        let _ = write!(
            e,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"{}\",\"args\":{{\"at_us\":{}",
            event.kind(),
            at.as_micros(),
            tid,
            scope,
            at.as_micros()
        );
        write_payload(event, &mut e);
        e.push_str("}}");
        entries.push(e);
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(e);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

fn span_entry(task: usize, from_us: u64, to_us: u64, refail: bool) -> String {
    let name = if refail { "refail outage" } else { "outage" };
    format!(
        "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"refail\":{}}}}}",
        name,
        from_us,
        to_us.saturating_sub(from_us),
        task,
        refail
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn sample() -> Vec<(SimTime, EngineEvent)> {
        vec![
            (
                SimTime::from_secs(100),
                EngineEvent::FailureInjected { nodes: vec![3, 7] },
            ),
            (
                SimTime::from_secs(100),
                EngineEvent::OutageOpened {
                    task: 5,
                    refail: false,
                },
            ),
            (
                SimTime::from_secs(103),
                EngineEvent::OutageDetected { task: 5 },
            ),
            (
                SimTime::from_secs(110),
                EngineEvent::RestoreDone { task: 5 },
            ),
        ]
    }

    #[test]
    fn jsonl_is_one_fixed_order_object_per_line() -> TestResult {
        let text = to_jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"at_us\":100000000,\"kind\":\"failure_injected\",\"nodes\":[3,7]}"
        );
        assert_eq!(
            lines[1],
            "{\"at_us\":100000000,\"kind\":\"outage_opened\",\"task\":5,\"refail\":false}"
        );
        assert!(text.ends_with('\n'));
        assert!(to_jsonl(&[]).is_empty());
        Ok(())
    }

    #[test]
    fn chrome_trace_pairs_outage_spans() -> TestResult {
        let text = to_chrome_trace(&sample());
        // One closed span: opened at 100s, closed at 110s.
        assert!(text.contains(
            "{\"name\":\"outage\",\"ph\":\"X\",\"ts\":100000000,\"dur\":10000000,\"pid\":0,\"tid\":5,\"args\":{\"refail\":false}}"
        ));
        // Global instant for the injection, thread instant for the detection.
        assert!(text.contains("\"name\":\"failure_injected\",\"ph\":\"i\""));
        assert!(text.contains("\"s\":\"g\""));
        assert!(text.contains("\"name\":\"outage_detected\",\"ph\":\"i\""));
        assert!(text.ends_with("}\n"));
        Ok(())
    }

    #[test]
    fn chrome_trace_flushes_unclosed_spans_to_stream_end() -> TestResult {
        let events = vec![
            (
                SimTime::from_secs(10),
                EngineEvent::OutageOpened {
                    task: 2,
                    refail: true,
                },
            ),
            (
                SimTime::from_secs(40),
                EngineEvent::OutageDetected { task: 2 },
            ),
        ];
        let text = to_chrome_trace(&events);
        assert!(text.contains(
            "{\"name\":\"refail outage\",\"ph\":\"X\",\"ts\":10000000,\"dur\":30000000,\"pid\":0,\"tid\":2,\"args\":{\"refail\":true}}"
        ));
        Ok(())
    }

    #[test]
    fn control_strings_are_quoted_and_escaped() -> TestResult {
        let events = vec![(
            SimTime::ZERO,
            EngineEvent::ControlNoEffect {
                action: "replan",
                reason: "plan \"empty\"",
            },
        )];
        let line = to_jsonl(&events);
        assert!(line.contains("\"action\":\"replan\",\"reason\":\"plan \\\"empty\\\"\""));
        Ok(())
    }
}
