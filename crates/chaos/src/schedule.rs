//! Chaos schedules: an ordered, normalized sequence of buggify injections
//! with a round-trip text serialization — the chaos-side twin of
//! `ppa_faults::FailureTrace`.
//!
//! A repro artifact pairs one `FailureTrace` (`ppa-faults/1`) with one
//! [`ChaosSchedule`] (`ppa-chaos/1`): replaying both against the same
//! scenario reproduces a failing swarm run byte-identically.

use ppa_engine::{ChaosKind, ChaosSpec, HEARTBEAT_INTERVAL};
use ppa_sim::{SimDuration, SimTime};
use std::fmt;

/// An ordered chaos scenario: events sorted by `(time, kind, arguments)`,
/// so equal schedules serialize byte-identically no matter how they were
/// built.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosSchedule {
    events: Vec<ChaosSpec>,
}

/// Error from [`ChaosSchedule::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleParseError {
    /// The first non-comment line was not the `ppa-chaos/1` header.
    MissingHeader,
    /// A malformed event line, with its 1-based line number.
    BadLine { line: usize, reason: String },
}

impl fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleParseError::MissingHeader => {
                write!(f, "missing `{}` header", ChaosSchedule::FORMAT)
            }
            ScheduleParseError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for ScheduleParseError {}

/// Canonical sort key: time, then kind order, then arguments.
fn sort_key(spec: &ChaosSpec) -> (SimTime, u8, u64, u64) {
    match &spec.kind {
        ChaosKind::HeartbeatDrop { scans } => (spec.at, 0, u64::from(*scans), 0),
        ChaosKind::HeartbeatDelay { by } => (spec.at, 1, by.as_micros(), 0),
        ChaosKind::HeartbeatDuplicate => (spec.at, 2, 0, 0),
        ChaosKind::RestoreStall { task, by } => (spec.at, 3, *task as u64, by.as_micros()),
        ChaosKind::RestoreVoid { task } => (spec.at, 4, *task as u64, 0),
    }
}

impl ChaosSchedule {
    /// Format tag written as the first line of every serialized schedule.
    pub(crate) const FORMAT: &'static str = "ppa-chaos/1";

    /// An empty schedule (no chaos).
    pub(crate) fn new() -> Self {
        ChaosSchedule::default()
    }

    /// Builds a normalized schedule from arbitrary events.
    pub(crate) fn from_events(events: impl IntoIterator<Item = ChaosSpec>) -> Self {
        let mut schedule = ChaosSchedule::new();
        for e in events {
            schedule.push(e);
        }
        schedule
    }

    /// Adds an event, keeping the schedule normalized (sorted by
    /// `(time, kind, arguments)`; duplicates are kept — firing the same
    /// buggify twice is a valid, meaningful schedule).
    pub(crate) fn push(&mut self, spec: ChaosSpec) {
        let key = sort_key(&spec);
        let pos = self.events.partition_point(|e| sort_key(e) <= key);
        self.events.insert(pos, spec);
    }

    /// The normalized events, in time order.
    pub fn events(&self) -> &[ChaosSpec] {
        &self.events
    }

    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total detection slack this schedule can introduce: the sum of every
    /// dropped scan's [`HEARTBEAT_INTERVAL`] and every heartbeat delay —
    /// the allowance the invariant checker grants late detections.
    pub(crate) fn detection_slack(&self) -> SimDuration {
        let mut slack = SimDuration::ZERO;
        for e in &self.events {
            match &e.kind {
                ChaosKind::HeartbeatDrop { scans } => {
                    for _ in 0..*scans {
                        slack += HEARTBEAT_INTERVAL;
                    }
                }
                ChaosKind::HeartbeatDelay { by } => slack += *by,
                _ => {}
            }
        }
        slack
    }

    /// Serializes the schedule: a header line, then one
    /// `<at_µs> <kind> [args...]` line per event. Canonical — equal
    /// schedules serialize byte-identically.
    pub(crate) fn to_text(&self) -> String {
        let mut out = String::from(Self::FORMAT);
        out.push('\n');
        for e in &self.events {
            out.push_str(&e.at.as_micros().to_string());
            out.push(' ');
            out.push_str(e.kind.name());
            match &e.kind {
                ChaosKind::HeartbeatDrop { scans } => {
                    out.push(' ');
                    out.push_str(&scans.to_string());
                }
                ChaosKind::HeartbeatDelay { by } => {
                    out.push(' ');
                    out.push_str(&by.as_micros().to_string());
                }
                ChaosKind::HeartbeatDuplicate => {}
                ChaosKind::RestoreStall { task, by } => {
                    out.push(' ');
                    out.push_str(&task.to_string());
                    out.push(' ');
                    out.push_str(&by.as_micros().to_string());
                }
                ChaosKind::RestoreVoid { task } => {
                    out.push(' ');
                    out.push_str(&task.to_string());
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parses a schedule serialized by `ChaosSchedule::to_text`. Blank
    /// lines and `#` comments are ignored; events need not be pre-sorted.
    pub fn from_text(text: &str) -> Result<Self, ScheduleParseError> {
        let mut schedule = ChaosSchedule::new();
        let mut saw_header = false;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if !saw_header {
                if line != Self::FORMAT {
                    return Err(ScheduleParseError::MissingHeader);
                }
                saw_header = true;
                continue;
            }
            let bad = |reason: String| ScheduleParseError::BadLine {
                line: i + 1,
                reason,
            };
            let mut fields = line.split_whitespace();
            let at = fields
                .next()
                .ok_or_else(|| bad("empty event line".to_string()))
                .and_then(|s| {
                    s.parse::<u64>()
                        .map_err(|_| bad(format!("bad timestamp {s:?}")))
                })?;
            let kind_tag = fields
                .next()
                .ok_or_else(|| bad("missing chaos kind".to_string()))?;
            let mut arg = |what: &str| -> Result<u64, ScheduleParseError> {
                fields
                    .next()
                    .ok_or_else(|| ScheduleParseError::BadLine {
                        line: i + 1,
                        reason: format!("{kind_tag} needs <{what}>"),
                    })
                    .and_then(|s| {
                        s.parse::<u64>().map_err(|_| ScheduleParseError::BadLine {
                            line: i + 1,
                            reason: format!("bad {what} {s:?}"),
                        })
                    })
            };
            let kind = match kind_tag {
                "heartbeat_drop" => ChaosKind::HeartbeatDrop {
                    scans: arg("scans")? as u32,
                },
                "heartbeat_delay" => ChaosKind::HeartbeatDelay {
                    by: SimDuration::from_micros(arg("delay_us")?),
                },
                "heartbeat_duplicate" => ChaosKind::HeartbeatDuplicate,
                "restore_stall" => ChaosKind::RestoreStall {
                    task: arg("task")? as usize,
                    by: SimDuration::from_micros(arg("stall_us")?),
                },
                "restore_void" => ChaosKind::RestoreVoid {
                    task: arg("task")? as usize,
                },
                other => return Err(bad(format!("unknown chaos kind {other:?}"))),
            };
            schedule.push(ChaosSpec {
                at: SimTime::from_micros(at),
                kind,
            });
        }
        if !saw_header {
            return Err(ScheduleParseError::MissingHeader);
        }
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    type TestResult = Result<(), Box<dyn Error>>;

    fn sample() -> ChaosSchedule {
        ChaosSchedule::from_events([
            ChaosSpec {
                at: SimTime::from_secs(50),
                kind: ChaosKind::RestoreStall {
                    task: 3,
                    by: SimDuration::from_millis(2500),
                },
            },
            ChaosSpec {
                at: SimTime::from_secs(10),
                kind: ChaosKind::HeartbeatDrop { scans: 2 },
            },
            ChaosSpec {
                at: SimTime::from_secs(10),
                kind: ChaosKind::HeartbeatDuplicate,
            },
            ChaosSpec {
                at: SimTime::from_secs(20),
                kind: ChaosKind::HeartbeatDelay {
                    by: SimDuration::from_secs(3),
                },
            },
            ChaosSpec {
                at: SimTime::from_secs(60),
                kind: ChaosKind::RestoreVoid { task: 1 },
            },
        ])
    }

    #[test]
    fn push_normalizes_by_time_then_kind() {
        let s = sample();
        let kinds: Vec<&str> = s.events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec![
                "heartbeat_drop",
                "heartbeat_duplicate",
                "heartbeat_delay",
                "restore_stall",
                "restore_void"
            ]
        );
    }

    #[test]
    fn text_round_trips_canonically() -> TestResult {
        let s = sample();
        let text = s.to_text();
        assert!(text.starts_with("ppa-chaos/1\n"), "{text}");
        let back = ChaosSchedule::from_text(&text)?;
        assert_eq!(back, s);
        assert_eq!(back.to_text(), text, "serialization is canonical");
        Ok(())
    }

    #[test]
    fn construction_order_does_not_matter() {
        let mut a = ChaosSchedule::new();
        let mut b = ChaosSchedule::new();
        let one = ChaosSpec {
            at: SimTime::from_secs(1),
            kind: ChaosKind::HeartbeatDuplicate,
        };
        let two = ChaosSpec {
            at: SimTime::from_secs(2),
            kind: ChaosKind::RestoreVoid { task: 0 },
        };
        a.push(one.clone());
        a.push(two.clone());
        b.push(two);
        b.push(one);
        assert_eq!(a, b);
        assert_eq!(a.to_text(), b.to_text());
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert_eq!(
            ChaosSchedule::from_text(""),
            Err(ScheduleParseError::MissingHeader)
        );
        assert!(matches!(
            ChaosSchedule::from_text("ppa-chaos/1\nxx heartbeat_drop 1\n"),
            Err(ScheduleParseError::BadLine { line: 2, .. })
        ));
        assert!(matches!(
            ChaosSchedule::from_text("ppa-chaos/1\n10 explode\n"),
            Err(ScheduleParseError::BadLine { .. })
        ));
        assert!(matches!(
            ChaosSchedule::from_text("ppa-chaos/1\n10 restore_stall 3\n"),
            Err(ScheduleParseError::BadLine { .. })
        ));
    }

    #[test]
    fn slack_sums_heartbeat_and_restore_chaos() {
        let s = sample();
        // Two dropped scans (2 × 5 s) + one 3 s delay.
        assert_eq!(s.detection_slack(), SimDuration::from_secs(13));
    }
}
