//! # ppa-obs — deterministic engine observability
//!
//! The engine's window into a run while it happens: a [`TraceSink`]
//! receives typed, sim-timestamped [`EngineEvent`]s at every lifecycle
//! transition (failure injection, outage open/detect, replica takeover,
//! checkpoint restore, tentative resumption, control-plane actions,
//! epoch health snapshots), and a [`MetricsRegistry`] counts the same
//! transitions into monotone counters keyed by static names.
//! [`MetricsRegistry::record`] is the one map from an event to the
//! counters it moves.
//!
//! Everything rides **simulated time only** — no wall clocks — so a
//! recorded trace is a deterministic function of the run: byte-identical
//! across worker counts and repeated runs, which makes traces usable as
//! golden test artifacts and as the input stream for invariant checking
//! (the ROADMAP's chaos-swarm item).
//!
//! Three exporters turn a recorded event stream into artifacts:
//!
//! * [`to_jsonl`] — the canonical one-event-per-line JSON trace;
//! * [`to_chrome_trace`] — Chrome `trace_event` JSON, openable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) (outages
//!   render as per-task duration spans, everything else as instants);
//! * [`render_timeline`] — a plain-text per-task outage/recovery
//!   timeline aligned with the injected failure waves.

mod event;
mod export;
mod invariant;
mod metrics;
mod timeline;

pub use event::{EngineEvent, TraceSink, VecSink};
pub use export::{escape_json, to_chrome_trace, to_jsonl};
pub use invariant::{check_stream, OutageFold, OutageRecord, StreamCheck, Violation};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use timeline::{render_timeline, TimelineConfig};
