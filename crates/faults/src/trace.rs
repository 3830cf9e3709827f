//! Failure traces: an ordered, normalized sequence of failure events with a
//! round-trip text serialization.
//!
//! A [`FailureTrace`] is the common currency between the generative
//! processes ([`crate::process`]), the engine runtime
//! (`FaultFeed` → `Simulation::drive`) and the repro harness: scenarios can be
//! generated, saved to disk, diffed, and replayed byte-identically. The
//! text format is line-oriented so `diff` on two traces is meaningful.

use crate::domain::NodeId;
use ppa_sim::SimTime;
use std::fmt;

/// One failure event: the listed nodes die at `at`. The engine-level
/// mirror of `ppa_engine::FailureSpec` (this crate sits below the engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureEvent {
    pub at: SimTime,
    /// Sorted, deduplicated.
    pub nodes: Vec<NodeId>,
}

/// An ordered failure scenario: events sorted by time (ties by node list),
/// each event's nodes sorted and deduplicated, empty events dropped.
///
/// Normalization makes equality, serialization and diffing canonical: two
/// traces describing the same failures are byte-identical in
/// [`FailureTrace::to_text`] no matter how they were built.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FailureTrace {
    events: Vec<FailureEvent>,
}

/// Error from [`FailureTrace::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The first non-comment line was not the `ppa-faults/1` header.
    MissingHeader,
    /// A malformed event line, with its 1-based line number.
    BadLine { line: usize, reason: String },
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::MissingHeader => {
                write!(f, "missing `{}` header", FailureTrace::FORMAT)
            }
            TraceParseError::BadLine { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

impl FailureTrace {
    /// Format tag written as the first line of every serialized trace.
    pub(crate) const FORMAT: &'static str = "ppa-faults/1";

    /// An empty trace (no failures).
    pub fn new() -> Self {
        FailureTrace::default()
    }

    /// A degenerate single-event trace — the shape every hand-picked kill
    /// set of the §VI-A experiments reduces to.
    pub fn once(at: SimTime, nodes: Vec<NodeId>) -> Self {
        let mut trace = FailureTrace::new();
        trace.push(at, nodes);
        trace
    }

    /// Adds an event, keeping the trace normalized. Empty node lists are
    /// dropped; a duplicate (at, nodes) event is kept (the engine ignores
    /// re-kills of dead nodes, and keeping it preserves the generative
    /// process's output faithfully).
    pub fn push(&mut self, at: SimTime, mut nodes: Vec<NodeId>) {
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.is_empty() {
            return;
        }
        let ev = FailureEvent { at, nodes };
        let pos = self
            .events
            .partition_point(|e| (e.at, &e.nodes) <= (ev.at, &ev.nodes));
        self.events.insert(pos, ev);
    }

    /// The normalized events, in time order.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The time of the first failure, if any.
    pub fn first_at(&self) -> Option<SimTime> {
        self.events.first().map(|e| e.at)
    }

    /// Union of every event's nodes, sorted and deduplicated.
    pub fn killed_nodes(&self) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = self
            .events
            .iter()
            .flat_map(|e| e.nodes.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Serializes the trace: a header line, then one `<at_µs> <n,n,n>` line
    /// per event. Canonical — equal traces serialize byte-identically.
    pub fn to_text(&self) -> String {
        let mut out = String::from(Self::FORMAT);
        out.push('\n');
        for e in &self.events {
            out.push_str(&e.at.as_micros().to_string());
            out.push(' ');
            let nodes: Vec<String> = e.nodes.iter().map(|n| n.to_string()).collect();
            out.push_str(&nodes.join(","));
            out.push('\n');
        }
        out
    }

    /// Parses a trace serialized by [`FailureTrace::to_text`]. Blank lines
    /// and `#` comments are ignored; events need not be pre-sorted.
    pub fn from_text(text: &str) -> Result<Self, TraceParseError> {
        let mut trace = FailureTrace::new();
        let mut saw_header = false;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if !saw_header {
                if line != Self::FORMAT {
                    return Err(TraceParseError::MissingHeader);
                }
                saw_header = true;
                continue;
            }
            let (at_s, nodes_s) = line
                .split_once(' ')
                .ok_or_else(|| TraceParseError::BadLine {
                    line: i + 1,
                    reason: "expected `<at_µs> <node,node,...>`".into(),
                })?;
            let at = at_s.parse::<u64>().map_err(|_| TraceParseError::BadLine {
                line: i + 1,
                reason: format!("bad timestamp {at_s:?}"),
            })?;
            let mut nodes = Vec::new();
            for piece in nodes_s.split(',') {
                let piece = piece.trim();
                if piece.is_empty() {
                    continue;
                }
                nodes.push(
                    piece
                        .parse::<NodeId>()
                        .map_err(|_| TraceParseError::BadLine {
                            line: i + 1,
                            reason: format!("bad node id {piece:?}"),
                        })?,
                );
            }
            trace.push(SimTime::from_micros(at), nodes);
        }
        if !saw_header {
            // Covers the entirely blank document too: without the header a
            // trace is indistinguishable from a truncated file.
            return Err(TraceParseError::MissingHeader);
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    type TestResult = Result<(), Box<dyn Error>>;

    #[test]
    fn push_normalizes() {
        let mut t = FailureTrace::new();
        t.push(SimTime::from_secs(40), vec![7, 4, 7, 5]);
        t.push(SimTime::from_secs(10), vec![2]);
        t.push(SimTime::from_secs(40), vec![]); // dropped
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].at, SimTime::from_secs(10));
        assert_eq!(t.events()[1].nodes, vec![4, 5, 7]);
        assert_eq!(t.killed_nodes(), vec![2, 4, 5, 7]);
        assert_eq!(t.first_at(), Some(SimTime::from_secs(10)));
    }

    #[test]
    fn construction_order_does_not_matter() {
        let mut a = FailureTrace::new();
        a.push(SimTime::from_secs(1), vec![1]);
        a.push(SimTime::from_secs(2), vec![2]);
        let mut b = FailureTrace::new();
        b.push(SimTime::from_secs(2), vec![2]);
        b.push(SimTime::from_secs(1), vec![1]);
        assert_eq!(a, b);
        assert_eq!(a.to_text(), b.to_text());
    }

    #[test]
    fn text_round_trips() -> TestResult {
        let mut t = FailureTrace::new();
        t.push(SimTime::from_secs(40), vec![4, 5, 6]);
        t.push(SimTime::from_micros(40_000_001), vec![9]);
        t.push(SimTime::from_secs(40), vec![4, 5, 6]); // duplicate kept
        let text = t.to_text();
        assert!(text.starts_with("ppa-faults/1\n"));
        let back = FailureTrace::from_text(&text)?;
        assert_eq!(back, t);
        assert_eq!(back.to_text(), text, "serialization is canonical");
        Ok(())
    }

    #[test]
    fn from_text_tolerates_comments_and_order() -> TestResult {
        let text = "# a scenario\nppa-faults/1\n\n50000000 9\n# mid comment\n40000000 4,5\n";
        let t = FailureTrace::from_text(text)?;
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].nodes, vec![4, 5]);
        Ok(())
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert_eq!(
            FailureTrace::from_text(""),
            Err(TraceParseError::MissingHeader)
        );
        assert_eq!(
            FailureTrace::from_text("40000000 4,5\n"),
            Err(TraceParseError::MissingHeader)
        );
        let bad_time = FailureTrace::from_text("ppa-faults/1\nxx 4\n");
        assert!(matches!(
            bad_time,
            Err(TraceParseError::BadLine { line: 2, .. })
        ));
        let bad_node = FailureTrace::from_text("ppa-faults/1\n1 4,q\n");
        assert!(matches!(bad_node, Err(TraceParseError::BadLine { .. })));
        assert!(format!("{}", bad_node.unwrap_err()).contains("line 2"));
    }

    #[test]
    fn once_matches_manual_single_event() {
        let t = FailureTrace::once(SimTime::from_secs(40), vec![6, 4, 5]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.events()[0].nodes, vec![4, 5, 6]);
    }
}
