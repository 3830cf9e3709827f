//! Q2 (§VI-B): traffic-incident detection in a community-based navigation
//! service. Two synthetic streams, exactly as the paper generates them:
//!
//! * **user-location stream** — 100 000 users over 1 000 road segments,
//!   Zipf(s = 0.5); each record carries (user, speed). When an incident is
//!   active on a segment its users slow down sharply.
//! * **incident stream** — one incident every 2 s; the incident probability
//!   of a segment is proportional to its user population; every user on the
//!   segment reports it.
//!
//! Topology (paper Fig. 11): `loc-src -> O1 (avg speed/segment)` and
//! `inc-src -> O2 (dedup reports)` joined by the correlated-input
//! `O3 (jam detection)`, aggregated by `O4` (sink). A jam is an incident on
//! a segment whose windowed average speed is below a threshold.
//!
//! Key alignment: segment `s` lives on location-source task `s mod L`, so
//! merge partitioning routes every segment to a unique O1/O3 task; the
//! incident generator mirrors the same mapping so the join sees both sides.

use crate::key_sums::KeySums;
use crate::zipf::{uniform_hash, Zipf};
use crate::{dedicated_placement, merge_link, Scenario};
use ppa_core::{OperatorSpec, Partitioning};
use ppa_engine::{BatchCtx, InputBatch, Output, Query, QueryBuilder, SourceGen, Tuple, Udf, Value};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Q2 parameters.
#[derive(Debug, Clone)]
pub struct NavigationConfig {
    /// Location-source parallelism (paper-scale: 8).
    pub loc_src_tasks: usize,
    /// O1 (speed aggregation) parallelism; must divide `loc_src_tasks`.
    pub o1_tasks: usize,
    /// O3 (join) parallelism; must divide `o1_tasks`. The incident source
    /// and O2 share this parallelism so the two join sides align.
    pub o3_tasks: usize,
    /// Location records per second (total across tasks; paper: 20 000).
    pub location_rate: usize,
    /// Road segments (paper: 1 000).
    pub n_segments: usize,
    /// Users (paper: 100 000) — only their Zipf distribution matters.
    pub n_users: usize,
    /// Zipf exponent of users over segments (paper: 0.5).
    pub zipf_s: f64,
    /// Batches between consecutive incidents (paper: one per 2 s).
    pub incident_every_batches: u64,
    /// How long an incident keeps a segment slow, in batches.
    pub incident_duration_batches: u64,
    /// Speed-averaging window at the join, in batches.
    pub speed_window_batches: u64,
    /// Jam threshold: a windowed average below this triggers a detection.
    pub jam_threshold: f64,
    pub seed: u64,
}

impl Default for NavigationConfig {
    fn default() -> Self {
        NavigationConfig {
            loc_src_tasks: 8,
            o1_tasks: 4,
            o3_tasks: 4,
            location_rate: 4_000,
            n_segments: 1_000,
            n_users: 100_000,
            zipf_s: 0.5,
            incident_every_batches: 2,
            incident_duration_batches: 12,
            speed_window_batches: 5,
            jam_threshold: 30.0,
            seed: 2016,
        }
    }
}

/// The deterministic incident schedule shared by both generators (and by
/// the accuracy oracle): incident `k` starts at batch
/// `k · incident_every_batches` on a Zipf-weighted segment.
#[derive(Debug, Clone)]
pub(crate) struct IncidentSchedule {
    zipf: Zipf,
    every: u64,
    duration: u64,
    seed: u64,
}

impl IncidentSchedule {
    /// `zipf` is the query's distribution of users over segments.
    pub(crate) fn new(cfg: &NavigationConfig, zipf: &Zipf) -> Self {
        IncidentSchedule {
            zipf: zipf.clone(),
            every: cfg.incident_every_batches,
            duration: cfg.incident_duration_batches,
            seed: cfg.seed ^ 0xD1CE,
        }
    }

    /// Segment of incident `k`.
    pub(crate) fn segment_of(&self, k: u64) -> usize {
        self.zipf.sample_u(uniform_hash(self.seed, k, 0, 0))
    }

    /// Incidents `(id, segment)` starting exactly at `batch`.
    pub(crate) fn starting_at(&self, batch: u64) -> Vec<(u64, usize)> {
        if !batch.is_multiple_of(self.every) {
            return Vec::new();
        }
        let k = batch / self.every;
        vec![(k, self.segment_of(k))]
    }

    /// Incidents `(id, segment)` active during `batch`.
    pub(crate) fn active_at(&self, batch: u64) -> Vec<(u64, usize)> {
        let first = batch.saturating_sub(self.duration.saturating_sub(1)) / self.every;
        let last = batch / self.every;
        (first..=last)
            .filter(|k| {
                let start = k * self.every;
                start <= batch && batch < start + self.duration
            })
            .map(|k| (k, self.segment_of(k)))
            .collect()
    }
}

/// Location-stream source task: emits (segment, (user, speed)) records for
/// the segments it owns (`segment mod loc_src_tasks == task`).
#[derive(Clone)]
struct LocationSource {
    task: usize,
    /// Per segment, whether this task owns it: the rejection test without
    /// a division.
    owns: Vec<bool>,
    per_batch: usize,
    zipf: Zipf,
    schedule: IncidentSchedule,
    seed: u64,
}

impl LocationSource {
    /// Calls `emit(i, segment)` for each accepted draw of `batch`, in draw
    /// order, where `i` counts the draws made so far. Rejection-samples the
    /// segments this task owns; bounded retries keep generation
    /// O(per_batch) in expectation.
    fn draws(&self, batch: u64, mut emit: impl FnMut(u64, usize)) {
        let mut i = 0u64;
        let mut emitted = 0;
        while emitted < self.per_batch {
            let u = uniform_hash(self.seed, self.task as u64, batch, i);
            i += 1;
            let seg = self.zipf.sample_u(u);
            if !self.owns[seg] {
                if i > (self.per_batch as u64) * 64 {
                    break; // pathological config; keep determinism and move on
                }
                continue;
            }
            emit(i, seg);
            emitted += 1;
        }
    }
}

impl SourceGen for LocationSource {
    fn batch(&mut self, batch: u64) -> Vec<Tuple> {
        let slow: Vec<usize> = (self.schedule.active_at(batch).into_iter())
            .map(|(_, s)| s)
            .collect();
        let mut out = Vec::with_capacity(self.per_batch);
        self.draws(batch, |i, seg| {
            // `uniform_hash` is in [0, 1), so the user id is below 100 000
            // and the speed below 55: both convert to `i32` exactly.
            let user =
                (uniform_hash(self.seed ^ 0xA11CE, self.task as u64, batch, i) * 100_000.0) as i32;
            let noise = uniform_hash(self.seed ^ 0x5EED, seg as u64, batch, i) * 10.0;
            let base = if slow.contains(&seg) { 8.0 } else { 45.0 };
            let speed = (base + noise) as i32;
            out.push(Tuple::new(seg as u64, Value::Pair(user, speed)));
        });
        out
    }

    fn batch_len(&mut self, batch: u64) -> usize {
        let mut len = 0;
        self.draws(batch, |_, _| len += 1);
        len
    }
}

/// Incident-stream source task: every user on the incident segment reports;
/// task `i` only emits incidents whose segment joins at O3 task `i`.
#[derive(Clone)]
struct IncidentSource {
    task: usize,
    cfg_map: SegmentMap,
    schedule: IncidentSchedule,
    n_users: usize,
    zipf: Zipf,
}

impl IncidentSource {
    /// The incidents `(id, segment, reports)` this task emits at `batch`.
    fn reports(&self, batch: u64) -> impl Iterator<Item = (u64, usize, usize)> + '_ {
        (self.schedule.starting_at(batch).into_iter())
            .filter(|&(_, seg)| self.cfg_map.o3_task_of(seg) == self.task)
            .map(|(id, seg)| {
                // Every user on the segment reports the incident (paper); we
                // cap the report volume to keep tuple counts reasonable.
                let users = (self.zipf.pmf(seg) * self.n_users as f64).ceil() as usize;
                (id, seg, users.clamp(1, 200))
            })
    }
}

impl SourceGen for IncidentSource {
    fn batch(&mut self, batch: u64) -> Vec<Tuple> {
        let mut out = Vec::new();
        for (id, seg, reports) in self.reports(batch) {
            out.extend(std::iter::repeat_n(
                Tuple::new(seg as u64, Value::Int(id as i64)),
                reports,
            ));
        }
        out
    }

    fn batch_len(&mut self, batch: u64) -> usize {
        self.reports(batch).map(|(_, _, reports)| reports).sum()
    }
}

/// Segment → task mappings implied by the merge-partitioned topology.
#[derive(Debug, Clone, Copy)]
struct SegmentMap {
    loc_src_tasks: usize,
    o1_tasks: usize,
    o3_tasks: usize,
}

impl SegmentMap {
    fn src_task_of(&self, seg: usize) -> usize {
        seg % self.loc_src_tasks
    }

    fn o1_task_of(&self, seg: usize) -> usize {
        self.src_task_of(seg) / (self.loc_src_tasks / self.o1_tasks)
    }

    fn o3_task_of(&self, seg: usize) -> usize {
        self.o1_task_of(seg) / (self.o1_tasks / self.o3_tasks)
    }
}

/// O1: average speed per segment per batch. Stateless across batches; the
/// table is the task's scratch space.
#[derive(Clone, Default)]
struct AvgSpeed {
    speeds: KeySums<f64>,
}

impl Udf for AvgSpeed {
    fn on_batch(&mut self, _ctx: &BatchCtx, inputs: &[InputBatch<'_>], out: &mut Output) {
        for input in inputs {
            for t in input.iter() {
                if let Some((_user, speed)) = t.value.as_pair() {
                    self.speeds.add(t.key, f64::from(speed));
                }
            }
        }
        out.extend(
            (self.speeds.drain())
                .map(|(seg, sum, n)| Tuple::new(seg, Value::Float(sum / f64::from(n)))),
        );
    }

    fn snapshot(&self) -> Box<dyn Udf> {
        Box::new(self.clone())
    }

    fn state_tuples(&self) -> usize {
        0
    }
}

/// O2: combine duplicate incident reports into distinct incident events.
#[derive(Clone)]
struct DedupIncidents {
    /// Recently forwarded incident ids (bounded dedup memory).
    seen: VecDeque<i64>,
}

impl DedupIncidents {
    fn new() -> Self {
        DedupIncidents {
            seen: VecDeque::new(),
        }
    }
}

impl Udf for DedupIncidents {
    fn on_batch(&mut self, _ctx: &BatchCtx, inputs: &[InputBatch<'_>], out: &mut Output) {
        let mut batch_new: BTreeMap<i64, u64> = BTreeMap::new();
        for input in inputs {
            for t in input.iter() {
                if let Some(id) = t.value.as_int() {
                    if !self.seen.contains(&id) {
                        batch_new.entry(id).or_insert(t.key);
                    }
                }
            }
        }
        for (id, seg) in batch_new {
            out.push(Tuple::new(seg, Value::Int(id)));
            self.seen.push_back(id);
            if self.seen.len() > 64 {
                self.seen.pop_front();
            }
        }
    }

    fn snapshot(&self) -> Box<dyn Udf> {
        Box::new(self.clone())
    }

    fn state_tuples(&self) -> usize {
        self.seen.len()
    }
}

/// O3: the correlated-input join — match open incidents against windowed
/// average segment speeds; emit a jam event per (segment, incident) once.
#[derive(Clone)]
struct JamJoin {
    window_batches: u64,
    threshold: f64,
    /// Sliding window of per-batch segment speed averages.
    speeds: VecDeque<(u64, BTreeMap<u64, f64>)>,
    /// Open incidents: (segment, id) → expiry batch.
    open: BTreeMap<(u64, i64), u64>,
    /// Already emitted jams.
    emitted: BTreeSet<(u64, i64)>,
    incident_duration: u64,
}

impl JamJoin {
    fn new(window_batches: u64, threshold: f64, incident_duration: u64) -> Self {
        JamJoin {
            window_batches,
            threshold,
            speeds: Default::default(),
            open: Default::default(),
            emitted: Default::default(),
            incident_duration,
        }
    }

    fn windowed_avg(&self, seg: u64) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (_, m) in &self.speeds {
            if let Some(v) = m.get(&seg) {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }
}

impl Udf for JamJoin {
    fn on_batch(&mut self, ctx: &BatchCtx, inputs: &[InputBatch<'_>], out: &mut Output) {
        // Stream 0: speeds from O1; stream 1: incidents from O2.
        let mut batch_speeds: BTreeMap<u64, f64> = BTreeMap::new();
        for input in inputs {
            for t in input.iter() {
                match (input.stream, &t.value) {
                    (0, Value::Float(v)) => {
                        batch_speeds.insert(t.key, *v);
                    }
                    (1, Value::Int(id)) => {
                        self.open
                            .insert((t.key, *id), ctx.batch + self.incident_duration);
                    }
                    _ => {}
                }
            }
        }
        self.speeds.push_back((ctx.batch, batch_speeds));
        let min_keep = ctx
            .batch
            .saturating_sub(self.window_batches.saturating_sub(1));
        while self.speeds.front().is_some_and(|(b, _)| *b < min_keep) {
            self.speeds.pop_front();
        }
        // Expire incidents and drop their emitted markers.
        let expired: Vec<(u64, i64)> = self
            .open
            .iter()
            .filter(|(_, &exp)| exp <= ctx.batch)
            .map(|(k, _)| *k)
            .collect();
        for k in expired {
            self.open.remove(&k);
            self.emitted.remove(&k);
        }
        // Join: open incident × slow windowed speed.
        let mut jams = Vec::new();
        for &(seg, id) in self.open.keys() {
            if self.emitted.contains(&(seg, id)) {
                continue;
            }
            if let Some(avg) = self.windowed_avg(seg) {
                if avg < self.threshold {
                    jams.push((seg, id));
                }
            }
        }
        for (seg, id) in jams {
            self.emitted.insert((seg, id));
            out.push(Tuple::new(seg, Value::Int(id)));
        }
    }

    fn snapshot(&self) -> Box<dyn Udf> {
        Box::new(self.clone())
    }

    fn state_tuples(&self) -> usize {
        self.speeds.iter().map(|(_, m)| m.len()).sum::<usize>() + self.open.len()
    }
}

/// O4: the sink aggregate — forwards confirmed jam events.
#[derive(Clone)]
struct JamAggregate;

impl Udf for JamAggregate {
    fn on_batch(&mut self, _ctx: &BatchCtx, inputs: &[InputBatch<'_>], out: &mut Output) {
        for input in inputs {
            input.copy_every(0, 1, out);
        }
    }

    fn snapshot(&self) -> Box<dyn Udf> {
        Box::new(self.clone())
    }

    fn state_tuples(&self) -> usize {
        0
    }
}

/// A source's generator for each of its tasks.
type SourceFactory = Box<dyn Fn(usize) -> Box<dyn SourceGen> + Send + Sync>;

/// The generators of each task of Q2's two sources: the location stream's
/// and the incident stream's.
pub(crate) fn q2_sources(cfg: &NavigationConfig) -> (SourceFactory, SourceFactory) {
    let map = SegmentMap {
        loc_src_tasks: cfg.loc_src_tasks,
        o1_tasks: cfg.o1_tasks,
        o3_tasks: cfg.o3_tasks,
    };
    let zipf = Zipf::new(cfg.n_segments, cfg.zipf_s);
    let schedule = IncidentSchedule::new(cfg, &zipf);
    let location = {
        let (zipf, schedule) = (zipf.clone(), schedule.clone());
        let (n_segments, n_tasks, seed) = (cfg.n_segments, cfg.loc_src_tasks, cfg.seed);
        let per_batch = cfg.location_rate / cfg.loc_src_tasks;
        move |task| -> Box<dyn SourceGen> {
            Box::new(LocationSource {
                task,
                owns: (0..n_segments).map(|seg| seg % n_tasks == task).collect(),
                per_batch,
                zipf: zipf.clone(),
                schedule: schedule.clone(),
                seed,
            })
        }
    };
    let n_users = cfg.n_users;
    let incident = move |task| -> Box<dyn SourceGen> {
        Box::new(IncidentSource {
            task,
            cfg_map: map,
            schedule: schedule.clone(),
            n_users,
            zipf: zipf.clone(),
        })
    };
    (Box::new(location), Box::new(incident))
}

/// Builds the Q2 query.
pub fn q2_query(cfg: &NavigationConfig) -> Query {
    #[expect(
        clippy::expect_used,
        reason = "try_q2_query's divisibility asserts make every merge_link it connects arity-valid and fix the rest of the shape; only a NavigationConfig with a zero per-task location rate or segment count fails build, and every NavigationConfig in the workspace is a hand-written literal with positive ones"
    )]
    try_q2_query(cfg).expect("q2 topology is valid")
}

fn try_q2_query(cfg: &NavigationConfig) -> Result<Query, ppa_core::CoreError> {
    assert!(cfg.loc_src_tasks.is_multiple_of(cfg.o1_tasks));
    assert!(cfg.o1_tasks.is_multiple_of(cfg.o3_tasks));
    let per_task_rate = cfg.location_rate / cfg.loc_src_tasks;
    let (location_sources, incident_sources) = q2_sources(cfg);

    let mut q = QueryBuilder::new();
    let loc = q.add_source(
        OperatorSpec::source("loc-src", cfg.loc_src_tasks, per_task_rate as f64),
        location_sources,
    );
    // Mean report volume per incident is modest; rate estimate 30/s.
    let inc = q.add_source(
        OperatorSpec::source("inc-src", cfg.o3_tasks, 30.0),
        incident_sources,
    );
    let seg_sel = (cfg.n_segments as f64 / per_task_rate as f64).min(1.0);
    let o1 = q.add_operator(
        OperatorSpec::map("O1-avg-speed", cfg.o1_tasks, seg_sel),
        |_| Box::new(AvgSpeed::default()),
    );
    let o2 = q.add_operator(OperatorSpec::map("O2-dedup", cfg.o3_tasks, 0.2), |_| {
        Box::new(DedupIncidents::new())
    });
    let (w, thr, dur) = (
        cfg.speed_window_batches,
        cfg.jam_threshold,
        cfg.incident_duration_batches,
    );
    let o3 = q.add_operator(
        OperatorSpec::join("O3-jam-join", cfg.o3_tasks, 0.5),
        move |_| Box::new(JamJoin::new(w, thr, dur)),
    );
    let o4 = q.add_operator(OperatorSpec::map("O4-aggregate", 1, 1.0), |_| {
        Box::new(JamAggregate)
    });
    q.connect(loc, o1, merge_link(cfg.loc_src_tasks, cfg.o1_tasks))?;
    q.connect(o1, o3, merge_link(cfg.o1_tasks, cfg.o3_tasks))?;
    q.connect(inc, o2, Partitioning::OneToOne)?;
    q.connect(o2, o3, Partitioning::OneToOne)?;
    q.connect(o3, o4, merge_link(cfg.o3_tasks, 1))?;
    q.build()
}

/// Q2 scenario with the paper's placement style.
pub fn q2_scenario(cfg: &NavigationConfig) -> Scenario {
    let query = q2_query(cfg);
    let graph = ppa_core::TaskGraph::new(query.topology().clone());
    let (placement, worker_kill_set) = dedicated_placement(&graph);
    Scenario {
        query,
        placement,
        worker_kill_set,
        placement_strategy: crate::DEDICATED.to_string(),
        policy: None,
    }
}

/// Extracts the detected jam set `(segment, incident)` from sink tuples.
pub(crate) fn jam_set(tuples: &[Tuple]) -> Vec<(u64, i64)> {
    tuples
        .iter()
        .filter_map(|t| t.value.as_int().map(|id| (t.key, id)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_engine::{Chunk, EngineConfig, FtMode, Simulation};
    use ppa_sim::SimDuration;

    fn small() -> NavigationConfig {
        NavigationConfig {
            loc_src_tasks: 4,
            o1_tasks: 2,
            o3_tasks: 2,
            location_rate: 1_000,
            n_segments: 100,
            incident_every_batches: 2,
            ..NavigationConfig::default()
        }
    }

    #[test]
    fn the_location_and_incident_sources_are_pure() {
        let cfg = small();
        let zipf = Zipf::new(cfg.n_segments, cfg.zipf_s);
        let schedule = IncidentSchedule::new(&cfg, &zipf);
        crate::assert_pure_source("LocationSource", || {
            Box::new(LocationSource {
                task: 1,
                owns: (0..cfg.n_segments)
                    .map(|seg| seg % cfg.loc_src_tasks == 1)
                    .collect(),
                per_batch: cfg.location_rate / cfg.loc_src_tasks,
                zipf: zipf.clone(),
                schedule: schedule.clone(),
                seed: cfg.seed,
            })
        });
        crate::assert_pure_source("IncidentSource", || {
            Box::new(IncidentSource {
                task: 1,
                cfg_map: SegmentMap {
                    loc_src_tasks: cfg.loc_src_tasks,
                    o1_tasks: cfg.o1_tasks,
                    o3_tasks: cfg.o3_tasks,
                },
                schedule: schedule.clone(),
                n_users: cfg.n_users,
                zipf: zipf.clone(),
            })
        });
    }

    #[test]
    fn schedule_is_consistent() {
        let cfg = small();
        let s = IncidentSchedule::new(&cfg, &Zipf::new(cfg.n_segments, cfg.zipf_s));
        // Active set contains exactly the incidents within their duration.
        let active = s.active_at(5);
        for (id, seg) in &active {
            let start = id * cfg.incident_every_batches;
            assert!(start <= 5 && 5 < start + cfg.incident_duration_batches);
            assert_eq!(*seg, s.segment_of(*id));
        }
        assert!(!s.starting_at(4).is_empty());
        assert!(
            s.starting_at(5).is_empty(),
            "incidents start on even batches only"
        );
    }

    #[test]
    fn segment_mapping_aligns_join_sides() {
        let cfg = small();
        let map = SegmentMap {
            loc_src_tasks: cfg.loc_src_tasks,
            o1_tasks: cfg.o1_tasks,
            o3_tasks: cfg.o3_tasks,
        };
        for seg in 0..cfg.n_segments {
            let o3 = map.o3_task_of(seg);
            assert!(o3 < cfg.o3_tasks);
            // O1 task of the segment must merge into the same O3 task.
            assert_eq!(map.o1_task_of(seg) / (cfg.o1_tasks / cfg.o3_tasks), o3);
        }
    }

    #[test]
    fn q2_detects_jams_end_to_end() {
        let s = q2_scenario(&small());
        let report = Simulation::run(
            &s.query,
            s.placement.clone(),
            EngineConfig {
                mode: FtMode::None,
                ..Default::default()
            },
            vec![],
            SimDuration::from_secs(30),
        );
        let detected: BTreeSet<(u64, i64)> = report
            .sink
            .iter()
            .flat_map(|sb| jam_set(&sb.tuples))
            .collect();
        assert!(
            detected.len() >= 5,
            "jams must be detected in a healthy run: {detected:?}"
        );
    }

    #[test]
    fn q2_detections_match_schedule() {
        let cfg = small();
        let s = q2_scenario(&cfg);
        let schedule = IncidentSchedule::new(&cfg, &Zipf::new(cfg.n_segments, cfg.zipf_s));
        let report = Simulation::run(
            &s.query,
            s.placement.clone(),
            EngineConfig {
                mode: FtMode::None,
                ..Default::default()
            },
            vec![],
            SimDuration::from_secs(30),
        );
        for sb in &report.sink {
            for (seg, id) in jam_set(&sb.tuples) {
                assert_eq!(
                    seg as usize,
                    schedule.segment_of(id as u64),
                    "detected jam must match the schedule"
                );
            }
        }
    }

    #[test]
    fn jam_join_requires_both_streams() {
        use ppa_sim::SimTime;
        let mut udf = JamJoin::new(3, 30.0, 10);
        let ctx = |b| BatchCtx {
            batch: b,
            now: SimTime::ZERO,
            task_local: 0,
            parallelism: 1,
        };
        let mut out = Output::new();
        // Incident without slow speed: no jam.
        let inc = [Chunk::from(vec![Tuple::new(7, Value::Int(1))])];
        let fast = [Chunk::from(vec![Tuple::new(7, Value::Float(50.0))])];
        udf.on_batch(
            &ctx(0),
            &[InputBatch::new(0, &fast), InputBatch::new(1, &inc)],
            &mut out,
        );
        assert!(out.is_empty());
        // Slow speeds arrive: jam fires exactly once.
        let slow = [Chunk::from(vec![Tuple::new(7, Value::Float(10.0))])];
        for b in 1..4 {
            udf.on_batch(
                &ctx(b),
                &[InputBatch::new(0, &slow), InputBatch::new(1, &[])],
                &mut out,
            );
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], Tuple::new(7, Value::Int(1)));
    }

    /// `AvgSpeed` against a map built per batch, floats compared by their
    /// bits, over ragged random batches split into two inputs: empty
    /// chunks, key 0 and the largest key, tuples without a speed, a table
    /// that grows mid-run, and the operator swapped for its snapshot
    /// mid-run.
    #[test]
    fn dense_avg_speed_matches_a_map() {
        use crate::key_sums::ragged_batches;
        use ppa_sim::SimTime;
        for seed in 0..16u64 {
            let max_key = 1 + seed * 61;
            let batches = ragged_batches(seed, 40, max_key, |key, u| match (u * 70.0) as i32 {
                v if v < 5 => Tuple::new(key, Value::Int(i64::from(v))),
                v => Tuple::new(key, Value::Pair(v * 7, v - 15)),
            });
            let mut udf: Box<dyn Udf> = Box::new(AvgSpeed::default());
            for (b, chunks) in (0u64..).zip(&batches) {
                if b == 25 {
                    udf = udf.snapshot();
                }
                let half = chunks.len() / 2;
                let inputs = [
                    InputBatch::new(0, &chunks[..half]),
                    InputBatch::new(0, &chunks[half..]),
                ];
                let mut acc: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
                for t in inputs.iter().flat_map(|input| input.iter()) {
                    if let Some((_user, speed)) = t.value.as_pair() {
                        let e = acc.entry(t.key).or_insert((0.0, 0));
                        e.0 += speed as f64;
                        e.1 += 1;
                    }
                }
                let expected: Vec<(u64, u64)> = (acc.into_iter())
                    .map(|(seg, (sum, n))| (seg, (sum / n as f64).to_bits()))
                    .collect();
                let ctx = BatchCtx {
                    batch: b,
                    now: SimTime::ZERO,
                    task_local: 0,
                    parallelism: 1,
                };
                let mut out = Output::new();
                udf.on_batch(&ctx, &inputs, &mut out);
                let got: Vec<(u64, u64)> = (out.iter())
                    .map(|t| match t.value {
                        Value::Float(v) => (t.key, v.to_bits()),
                        _ => panic!("AvgSpeed emits floats: {t:?}"),
                    })
                    .collect();
                assert_eq!(got, expected, "seed {seed}, batch {b}");
            }
        }
    }

    #[test]
    fn dedup_combines_reports() {
        use ppa_sim::SimTime;
        let mut udf = DedupIncidents::new();
        let ctx = BatchCtx {
            batch: 0,
            now: SimTime::ZERO,
            task_local: 0,
            parallelism: 1,
        };
        let reports = [Chunk::from(vec![Tuple::new(3, Value::Int(9)); 50])];
        let mut out = Output::new();
        udf.on_batch(&ctx, &[InputBatch::new(0, &reports)], &mut out);
        assert_eq!(
            out.len(),
            1,
            "50 reports of one incident collapse to one event"
        );
    }
}
