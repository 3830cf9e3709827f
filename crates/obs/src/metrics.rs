//! A deterministic metrics registry: monotone counters, gauges and
//! fixed-bucket histograms keyed by `&'static str` names.
//!
//! Everything is `BTreeMap`-ordered, so a snapshot serializes in one
//! stable name order regardless of registration order — the same
//! guarantee the workspace's ban on `HashMap`/`HashSet` (clippy.toml)
//! enforces for every other iteration that escapes into reports.

use std::collections::BTreeMap;

/// Fixed bucket upper bounds (microseconds) for latency-shaped
/// histograms: 1 s, 2 s, 5 s, 10 s, 20 s, 50 s, plus the implicit
/// overflow bucket.
pub const LATENCY_BUCKETS_US: &[u64] = &[
    1_000_000, 2_000_000, 5_000_000, 10_000_000, 20_000_000, 50_000_000,
];

/// One histogram: cumulative-style fixed buckets plus count and sum.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Histogram {
    /// Upper bounds, strictly increasing; values above the last bound
    /// land in the overflow bucket.
    bounds: &'static [u64],
    /// One count per bound, plus the trailing overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
    }
}

/// The live registry a run updates in place.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments a monotone counter by 1.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increments a monotone counter by `n`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Raises a gauge to `value` if it exceeds the current reading.
    pub fn max_gauge(&mut self, name: &'static str, value: f64) {
        let g = self.gauges.entry(name).or_insert(value);
        if value > *g {
            *g = value;
        }
    }

    /// Records one observation into the named fixed-bucket histogram.
    /// The bounds are fixed at first observation; later observations
    /// reuse them (static names pair with static bucket layouts).
    pub fn observe(&mut self, name: &'static str, bounds: &'static [u64], value: u64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// A counter's current value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// An immutable, name-ordered copy of everything measured so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(&k, &v)| (k, v)).collect(),
            gauges: self.gauges.iter().map(|(&k, &v)| (k, v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(&k, h)| {
                    (
                        k,
                        HistogramSnapshot {
                            bounds: h.bounds,
                            counts: h.counts.clone(),
                            total: h.total,
                            sum: h.sum,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// An immutable histogram reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper bounds; the final count is the overflow bucket.
    pub bounds: &'static [u64],
    /// One count per bound plus the trailing overflow bucket.
    pub counts: Vec<u64>,
    pub total: u64,
    pub sum: u64,
}

/// A point-in-time reading of a [`MetricsRegistry`], in name order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(&'static str, u64)>,
    pub gauges: Vec<(&'static str, f64)>,
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// A counter's value in this snapshot (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// A gauge's value in this snapshot, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    /// A histogram reading in this snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_in_name_order() {
        let mut m = MetricsRegistry::new();
        m.inc("z.last");
        m.add("a.first", 2);
        m.inc("z.last");
        assert_eq!(m.counter("z.last"), 2);
        assert_eq!(m.counter("missing"), 0);
        let snap = m.snapshot();
        // BTreeMap order, not insertion order.
        assert_eq!(snap.counters, vec![("a.first", 2), ("z.last", 2)]);
        assert_eq!(snap.counter("a.first"), 2);
    }

    #[test]
    fn gauges_set_and_max() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("g", 3.0);
        m.set_gauge("g", 1.0);
        assert_eq!(m.snapshot().gauge("g"), Some(1.0));
        m.max_gauge("h", 2.0);
        m.max_gauge("h", 1.0);
        m.max_gauge("h", 5.0);
        assert_eq!(m.snapshot().gauge("h"), Some(5.0));
        assert_eq!(m.snapshot().gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_values_with_overflow() -> Result<(), Box<dyn std::error::Error>> {
        let mut m = MetricsRegistry::new();
        for v in [500_000, 1_000_000, 3_000_000, 99_000_000] {
            m.observe("lat", LATENCY_BUCKETS_US, v);
        }
        let snap = m.snapshot();
        let h = snap.histogram("lat").ok_or("histogram recorded")?;
        // <=1s: two (500ms and exactly 1s), <=5s: one, overflow: one.
        assert_eq!(h.counts, vec![2, 0, 1, 0, 0, 0, 1]);
        assert_eq!(h.total, 4);
        assert_eq!(h.sum, 103_500_000);
        assert!(snap.histogram("missing").is_none());
        Ok(())
    }
}
