//! The benchmark's own span recorder: name, start, end, parent span and
//! iteration id around every call into a layer, kept in memory and written
//! out as a Chrome `trace_event` file when the traced run ends.
//!
//! Recording is off unless [`set_enabled`] turned it on (only the traced run
//! does), so in the untraced binary [`span`] is one relaxed load and the
//! call itself. Spans are opened and closed on the benchmark's main thread
//! only, which is what makes the open-span stack a valid parent chain.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iteration: u32,
    /// Allocations and bytes requested while the span was open, children
    /// included (zero unless the counting allocator is installed).
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Default)]
struct Recorder {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u32,
    counts: BTreeMap<(&'static str, u32), f64>,
}

impl Recorder {
    fn now_ns(&mut self) -> u64 {
        self.epoch
            .get_or_insert_with(Instant::now)
            .elapsed()
            .as_nanos() as u64
    }
}

// Relaxed: the flag is only ever set between spans, on the thread that opens
// them; it publishes no other data.
static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Recorder> = Mutex::new(Recorder {
    epoch: None,
    spans: Vec::new(),
    open: Vec::new(),
    iteration: 0,
    counts: BTreeMap::new(),
});

fn recorder() -> std::sync::MutexGuard<'static, Recorder> {
    RECORDER
        .lock()
        .expect("a span closure panicked while the recorder was locked")
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags every span opened from now on with this iteration id.
pub fn set_iteration(iteration: u32) {
    if enabled() {
        recorder().iteration = iteration;
    }
}

/// Runs `f` inside a span named `name`, child of the innermost open span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let index = {
        let mut r = recorder();
        let start_ns = r.now_ns();
        let (parent, iteration) = (r.open.last().copied(), r.iteration);
        let (allocs, alloc_bytes) = crate::alloc_count::totals();
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iteration,
            allocs,
            alloc_bytes,
        });
        let index = r.spans.len() - 1;
        r.open.push(index);
        index
    };
    let out = f();
    let mut r = recorder();
    let end_ns = r.now_ns();
    let (allocs, alloc_bytes) = crate::alloc_count::totals();
    let s = &mut r.spans[index];
    s.end_ns = end_ns;
    s.allocs = allocs - s.allocs;
    s.alloc_bytes = alloc_bytes - s.alloc_bytes;
    r.open.pop();
    out
}

/// Adds `n` to the count named `name`, recorded at the same boundary as the
/// span around it.
pub fn count(name: &'static str, n: f64) {
    if enabled() {
        let mut r = recorder();
        let key = (name, r.iteration);
        *r.counts.entry(key).or_insert(0.0) += n;
    }
}

/// Everything recorded so far.
pub struct Recording {
    pub spans: Vec<Span>,
    /// Counts by (name, iteration id they were made under).
    pub counts: BTreeMap<(&'static str, u32), f64>,
}

pub fn take() -> Recording {
    let mut r = recorder();
    assert!(r.open.is_empty(), "spans still open at take()");
    Recording {
        spans: std::mem::take(&mut r.spans),
        counts: std::mem::take(&mut r.counts),
    }
}

impl Recording {
    /// Self time per span: its duration minus what its children cover.
    pub fn self_s(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_s();
            }
        }
        own
    }

    /// Chrome `trace_event` JSON (loads in Perfetto and `chrome://tracing`):
    /// one complete (`X`) event per span, timestamps in microseconds, in a
    /// process named `process_name`.
    pub fn to_chrome_trace(&self, process_name: &str) -> String {
        let own = self.self_s();
        let mut out = format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
             {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"{process_name}\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"iteration\":{},\"self_us\":{:.3},\
                 \"allocs\":{},\"alloc_bytes\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.iteration,
                own[i] * 1e6,
                s.allocs,
                s.alloc_bytes,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
