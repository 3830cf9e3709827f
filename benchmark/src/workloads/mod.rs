//! The four workloads and what they share: the shape of an iteration's
//! outcome, the run fingerprint, and the one way a simulated run is made
//! (construct, drive, read, drop — each step a span).

pub mod chaos_swarm;
pub mod corr_recovery;
pub mod plan_corpus;
pub mod wide_steady;

use crate::spans::{count, span};
use ppa_engine::{
    ControlPolicy, DriveReport, EngineConfig, FailureTrace, FaultFeed, Placement, Query, RunReport,
    Simulation, TraceSink, Tuple, Value,
};
use ppa_sim::SimTime;

/// What one iteration of a workload reports back to the harness.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checks of the program's outputs made inside the iteration.
    pub attempted: u64,
    pub failed: u64,
    /// One word per run (or block, or plan set). The harness checks each
    /// against the first warm-up iteration's, one check per word.
    pub fingerprint: Vec<u64>,
    /// Deterministic figures of merit of the program's outputs; the harness
    /// checks them bit-equal across iterations and the traced run reports
    /// them.
    pub figures: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// A workload: inputs made once from a seed, then identical iterations.
pub trait Workload: Sized {
    /// Builds every input from `seed`: the program under test sees only
    /// these, never the seed's provenance.
    fn setup(seed: u64) -> Self;

    /// One iteration of fixed work, constructing and dropping whatever a
    /// user of the system constructs and drops.
    fn iterate(&mut self) -> Outcome;

    /// Input-defined operations per iteration (never a counter the program
    /// computes).
    fn ops_per_iteration(&self) -> u64;

    /// Layer probes: calls into public functions of layers the iteration
    /// does not time on their own. Run once, by the traced binary only.
    fn probes(&mut self) {}
}

/// SplitMix64's finalizer: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Hash(u64);

impl Default for Hash {
    fn default() -> Self {
        Hash(0xcbf2_9ce4_8422_2325)
    }
}

impl Hash {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    fn tuple(&mut self, t: &Tuple) {
        self.word(t.key);
        match &t.value {
            Value::Empty => self.word(0),
            Value::Int(v) => {
                self.word(1);
                self.word(*v as u64);
            }
            Value::Float(v) => {
                self.word(2);
                self.word(v.to_bits());
            }
            Value::Pair(a, b) => {
                self.word(3);
                self.word(*a as u64);
                self.word(*b as u64);
            }
            Value::Counts(c) => {
                self.word(4);
                for &(k, n) in c.iter() {
                    self.word(k);
                    self.word(n as u64);
                }
            }
        }
    }
}

/// A run's fingerprint: events, tuples moved, outage-record count and a
/// hash of every sink batch.
pub fn fingerprint(report: &RunReport) -> u64 {
    let mut h = Hash::default();
    h.word(report.events);
    h.word(report.tuples_moved);
    h.word(outage_records(report) as u64);
    for s in &report.sink {
        h.word(s.task.0 as u64);
        h.word(s.batch);
        h.word(s.at.as_micros());
        h.word(u64::from(s.tentative));
        h.word(s.tuples.len() as u64);
        for t in &s.tuples {
            h.tuple(t);
        }
    }
    h.finish()
}

pub fn outage_records(report: &RunReport) -> usize {
    report.outages.iter().map(|o| o.records.len()).sum()
}

pub fn open_outages(report: &RunReport) -> usize {
    report
        .outages
        .iter()
        .flat_map(|o| o.records.iter())
        .filter(|r| r.open())
        .count()
}

/// Everything one simulated run is made from.
pub struct RunInputs<'a> {
    pub query: &'a Query,
    pub placement: &'a Placement,
    pub config: &'a EngineConfig,
    pub failures: &'a FailureTrace,
    /// Resumed `drive` calls: each phase's span name and the instant it
    /// drives to. The last phase ends at the run's horizon.
    pub phases: &'a [(&'static str, SimTime)],
}

/// Makes one run the way a user does: construct the simulation, drive it,
/// read the report, drop both. `read` sees the final phase's report; `sink`,
/// when given, is attached before the first drive.
pub fn run_once<T>(
    inputs: &RunInputs<'_>,
    policy: &mut dyn ControlPolicy,
    sink: Option<Box<dyn TraceSink>>,
    read: impl FnOnce(&DriveReport) -> T,
) -> T {
    let mut sim = span("engine.new", || {
        Simulation::new(
            inputs.query,
            inputs.placement.clone(),
            inputs.config.clone(),
        )
    });
    if let Some(sink) = sink {
        sim.set_trace_sink(sink);
    }
    let feed = FaultFeed::from_trace(inputs.failures.clone());
    let later = FaultFeed::new();
    let driven = span("engine.drive", || {
        let mut driven = None;
        for (i, &(phase, until)) in inputs.phases.iter().enumerate() {
            // Only the first call injects the failures; resumed calls carry
            // an empty feed.
            let feed = if i == 0 { &feed } else { &later };
            driven = Some(span(phase, || {
                sim.drive(feed, policy, until)
                    .expect("the workload's failures name nodes of its own cluster")
            }));
        }
        driven.expect("a run has at least one phase")
    });
    let report = &driven.report;
    count("engine.runs", 1.0);
    count("engine.events", report.events as f64);
    count("engine.tuples_moved", report.tuples_moved as f64);
    count("engine.outages", outage_records(report) as f64);
    count("engine.refails", report.refail_count() as f64);
    count("engine.unrecovered", open_outages(report) as f64);
    count("engine.control.actions", driven.actions.len() as f64);
    count(
        "engine.control.no_effect",
        driven.count(|o| matches!(o, ppa_engine::ActionOutcome::NoEffect { .. })) as f64,
    );
    count("engine.control.cpu_sim_s", driven.control_cpu.as_secs_f64());
    let out = span("harness.read", || read(&driven));
    span("engine.teardown", || {
        drop(driven);
        drop(sim);
    });
    out
}

/// A single-phase run to `horizon`.
pub fn whole_run(horizon: SimTime) -> [(&'static str, SimTime); 1] {
    [("engine.drive.whole", horizon)]
}
