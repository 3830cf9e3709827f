//! Q1 (§VI-B): hierarchical top-100 aggregation over a web-access log.
//!
//! The paper replays the WorldCup'98 site log (73M records, ita.ee.lbl.gov)
//! at 48× speed. That trace is not redistributable, so we generate a
//! synthetic access log with Zipf object popularity — Q1 consumes only
//! (server, object) pairs and measures top-k overlap, so a heavy-tailed
//! synthetic log exercises exactly the same code paths (README.md §Design notes).
//!
//! Topology (paper Fig. 11): `source(16) -merge-> O1(8) -merge-> O2(4)
//! -merge-> O3(1)`. O1 computes per-slice (here: per-batch) hit counts per
//! object, O2 merges partial counts, O3 maintains the sliding window and
//! continuously updates the global top-100.

use crate::key_sums::KeySums;
use crate::zipf::{uniform_hash, Zipf};
use crate::{dedicated_placement, merge_link, Scenario};
use ppa_core::OperatorSpec;
use ppa_engine::{BatchCtx, InputBatch, Output, Query, QueryBuilder, SourceGen, Tuple, Udf, Value};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Q1 parameters.
#[derive(Debug, Clone)]
pub struct Q1Config {
    /// Source parallelism (one task per "server group"; paper: 16).
    pub src_tasks: usize,
    /// O1 / O2 parallelism (paper: 8 / 4).
    pub o1_tasks: usize,
    pub o2_tasks: usize,
    /// Tuples per source task per batch.
    pub rate: usize,
    /// Number of distinct objects (URLs).
    pub n_objects: usize,
    /// Zipf exponent of object popularity (web traffic is heavy-tailed).
    pub zipf_s: f64,
    /// `k` of the top-k (paper: 100).
    pub k: usize,
    /// Sliding window length in batches at O3.
    pub window_batches: u64,
    pub seed: u64,
}

impl Default for Q1Config {
    fn default() -> Self {
        Q1Config {
            src_tasks: 16,
            o1_tasks: 8,
            o2_tasks: 4,
            rate: 500,
            n_objects: 400,
            zipf_s: 0.8,
            k: 100,
            window_batches: 20,
            seed: 1998,
        }
    }
}

/// The synthetic access-log source: `rate` hits per batch, objects sampled
/// from a Zipf distribution, deterministic per (seed, task, batch, i).
///
/// Objects are *server-affine*: each server group (source task) serves its
/// own slice of the object space, Zipf-distributed within the slice. Losing
/// a server therefore removes its objects from the tentative top-k — the
/// behaviour that makes top-k accuracy sensitive to lost partitions (the
/// WorldCup'98 trace exhibits strong per-server content affinity too).
#[derive(Clone)]
struct AccessLogSource {
    task: u64,
    rate: usize,
    /// Zipf over the task's local object slice.
    zipf: Zipf,
    objects_per_task: u64,
    seed: u64,
}

impl SourceGen for AccessLogSource {
    fn batch(&mut self, batch: u64) -> Vec<Tuple> {
        let base = self.task * self.objects_per_task;
        (0..self.rate)
            .map(|i| {
                let u = uniform_hash(self.seed, self.task, batch, i as u64);
                Tuple::key_only(base + self.zipf.sample_u(u) as u64)
            })
            .collect()
    }

    fn batch_len(&mut self, _batch: u64) -> usize {
        self.rate
    }
}

/// Adds each tuple of `inputs` to its object's count: its `Int` value, or
/// 1 for a raw hit.
fn count_hits(counts: &mut KeySums<i64>, inputs: &[InputBatch<'_>]) {
    for input in inputs {
        for t in input.iter() {
            counts.add(t.key, t.value.as_int().unwrap_or(1));
        }
    }
}

/// O1/O2: aggregate per-object hit counts within each batch (O1 counts raw
/// hits; O2 sums partial counts). Stateless across batches — the window
/// lives at O3 (hierarchical aggregation); the table is the task's scratch
/// space.
#[derive(Clone, Default)]
struct CountCombine {
    counts: KeySums<i64>,
}

impl Udf for CountCombine {
    fn on_batch(&mut self, _ctx: &BatchCtx, inputs: &[InputBatch<'_>], out: &mut Output) {
        count_hits(&mut self.counts, inputs);
        out.extend(
            (self.counts.drain()).map(|(object, count, _)| Tuple::new(object, Value::Int(count))),
        );
    }

    fn snapshot(&self) -> Box<dyn Udf> {
        Box::new(self.clone())
    }

    fn state_tuples(&self) -> usize {
        0
    }
}

/// O3: sliding-window top-k. State: the window's per-batch counts, and
/// their running total per object.
#[derive(Clone)]
struct TopK {
    k: usize,
    window_batches: u64,
    /// Per batch in the window, oldest first: its counts, by object.
    window: VecDeque<(u64, Vec<(u64, i64)>)>,
    /// Per object counted in the window: (count sum, batches counting it).
    total: BTreeMap<u64, (i64, u64)>,
    /// The batch's counts, by object: scratch space.
    counts: KeySums<i64>,
}

impl TopK {
    fn new(k: usize, window_batches: u64) -> Self {
        TopK {
            k,
            window_batches,
            window: VecDeque::new(),
            total: BTreeMap::new(),
            counts: KeySums::default(),
        }
    }
}

/// The top-k order: count descending, then object ascending. It is total
/// over distinct objects, so any sort yields one ranking.
fn rank(a: &(u64, i64), b: &(u64, i64)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

impl Udf for TopK {
    fn on_batch(&mut self, ctx: &BatchCtx, inputs: &[InputBatch<'_>], out: &mut Output) {
        count_hits(&mut self.counts, inputs);
        let counts: Vec<(u64, i64)> = (self.counts.drain())
            .map(|(object, count, _)| (object, count))
            .collect();
        for &(key, count) in &counts {
            let (sum, batches) = self.total.entry(key).or_insert((0, 0));
            *sum += count;
            *batches += 1;
        }
        self.window.push_back((ctx.batch, counts));
        let min_keep = ctx
            .batch
            .saturating_sub(self.window_batches.saturating_sub(1));
        while let Some((_, evicted)) = self.window.pop_front_if(|(b, _)| *b < min_keep) {
            for (key, count) in evicted {
                if let Entry::Occupied(mut entry) = self.total.entry(key) {
                    let (sum, batches) = entry.get_mut();
                    *sum -= count;
                    *batches -= 1;
                    if *batches == 0 {
                        entry.remove();
                    }
                }
            }
        }
        let mut ranked: Vec<(u64, i64)> = (self.total.iter())
            .map(|(&key, &(sum, _))| (key, sum))
            .collect();
        if self.k < ranked.len() {
            ranked.select_nth_unstable_by(self.k, rank);
            ranked.truncate(self.k);
        }
        ranked.sort_unstable_by(rank);
        out.push(Tuple::new(0, Value::Counts(Arc::new(ranked))));
    }

    fn snapshot(&self) -> Box<dyn Udf> {
        Box::new(self.clone())
    }

    fn state_tuples(&self) -> usize {
        self.window.iter().map(|(_, counts)| counts.len()).sum()
    }
}

/// The generator of each task of Q1's access-log source.
pub(crate) fn access_log_sources(
    cfg: &Q1Config,
) -> impl Fn(usize) -> Box<dyn SourceGen> + Send + Sync + 'static {
    let objects_per_task = (cfg.n_objects / cfg.src_tasks).max(1);
    let zipf = Zipf::new(objects_per_task, cfg.zipf_s);
    let (rate, seed) = (cfg.rate, cfg.seed);
    move |task| -> Box<dyn SourceGen> {
        Box::new(AccessLogSource {
            task: task as u64,
            rate,
            zipf: zipf.clone(),
            objects_per_task: objects_per_task as u64,
            seed,
        })
    }
}

/// Builds the Q1 query.
pub fn q1_query(cfg: &Q1Config) -> Query {
    #[expect(
        clippy::expect_used,
        reason = "try_q1_query's divisibility assert makes every merge_link it connects arity-valid and fixes the rest of the shape; only a Q1Config with a zero rate or object count fails build, and every Q1Config in the workspace is a hand-written literal with positive ones"
    )]
    try_q1_query(cfg).expect("q1 topology is valid")
}

fn try_q1_query(cfg: &Q1Config) -> Result<Query, ppa_core::CoreError> {
    assert!(
        cfg.src_tasks.is_multiple_of(cfg.o1_tasks) && cfg.o1_tasks.is_multiple_of(cfg.o2_tasks)
    );
    let mut q = QueryBuilder::new();
    let src = q.add_source(
        OperatorSpec::source("access-log", cfg.src_tasks, cfg.rate as f64),
        access_log_sources(cfg),
    );
    // Selectivity estimates drive the rate model's OF weights: O1 compresses
    // hits into per-object counts; O2 merges counts; O3 emits one digest.
    let o1_sel = (cfg.n_objects as f64 / cfg.rate as f64).min(1.0);
    let o1 = q.add_operator(
        OperatorSpec::map("O1-slice-count", cfg.o1_tasks, o1_sel),
        |_| Box::new(CountCombine::default()),
    );
    let o2 = q.add_operator(OperatorSpec::map("O2-merge", cfg.o2_tasks, 1.0), |_| {
        Box::new(CountCombine::default())
    });
    let (k, w) = (cfg.k, cfg.window_batches);
    let o3 = q.add_operator(OperatorSpec::map("O3-top-k", 1, 0.01), move |_| {
        Box::new(TopK::new(k, w))
    });
    q.connect(src, o1, merge_link(cfg.src_tasks, cfg.o1_tasks))?;
    q.connect(o1, o2, merge_link(cfg.o1_tasks, cfg.o2_tasks))?;
    q.connect(o2, o3, merge_link(cfg.o2_tasks, 1))?;
    q.build()
}

/// Q1 scenario with the paper's placement style.
pub fn q1_scenario(cfg: &Q1Config) -> Scenario {
    let query = q1_query(cfg);
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

/// Extracts the top-k set from a Q1 sink batch (the digest tuple).
pub(crate) fn topk_set(tuples: &[Tuple]) -> Vec<u64> {
    tuples
        .iter()
        .filter_map(|t| t.value.as_counts())
        .flat_map(|c| c.iter().map(|(k, _)| *k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_engine::{Chunk, EngineConfig, FtMode, Simulation};
    use ppa_sim::SimDuration;

    fn small() -> Q1Config {
        Q1Config {
            src_tasks: 4,
            o1_tasks: 2,
            o2_tasks: 2,
            rate: 200,
            n_objects: 100,
            k: 20,
            window_batches: 5,
            ..Q1Config::default()
        }
    }

    #[test]
    fn the_access_log_source_is_pure() {
        let cfg = small();
        let objects_per_task = cfg.n_objects / cfg.src_tasks;
        crate::assert_pure_source("AccessLogSource", || {
            Box::new(AccessLogSource {
                task: 1,
                rate: cfg.rate,
                zipf: Zipf::new(objects_per_task, cfg.zipf_s),
                objects_per_task: objects_per_task as u64,
                seed: cfg.seed,
            })
        });
    }

    #[test]
    fn q1_shape() {
        let q = q1_query(&Q1Config::default());
        let t = q.topology();
        let paras: Vec<usize> = t.operators().iter().map(|o| o.parallelism).collect();
        assert_eq!(paras, vec![16, 8, 4, 1]);
        assert_eq!(t.sinks().len(), 1);
    }

    #[test]
    fn q1_emits_topk_digests() {
        let s = q1_scenario(&small());
        let report = Simulation::run(
            &s.query,
            s.placement.clone(),
            EngineConfig {
                mode: FtMode::None,
                ..Default::default()
            },
            vec![],
            SimDuration::from_secs(10),
        );
        assert!(!report.sink.is_empty());
        for sb in &report.sink {
            let set = topk_set(&sb.tuples);
            assert_eq!(set.len(), 20, "k entries per digest");
        }
    }

    #[test]
    fn q1_topk_reflects_zipf_head() {
        let s = q1_scenario(&small());
        let report = Simulation::run(
            &s.query,
            s.placement.clone(),
            EngineConfig {
                mode: FtMode::None,
                ..Default::default()
            },
            vec![],
            SimDuration::from_secs(10),
        );
        let last = report.sink.last().unwrap();
        let set = topk_set(&last.tuples);
        // Object 0 is the hottest by construction.
        assert!(set.contains(&0), "hot head object must rank top-k: {set:?}");
    }

    #[test]
    fn topk_udf_window_slides() {
        use ppa_sim::SimTime;
        let mut udf = TopK::new(3, 2);
        let ctx = |b| BatchCtx {
            batch: b,
            now: SimTime::ZERO,
            task_local: 0,
            parallelism: 1,
        };
        let batch = |key: u64, n: i64| vec![Tuple::new(key, Value::Int(n))];
        let mut out = Output::new();
        udf.on_batch(
            &ctx(0),
            &[InputBatch::new(0, &[batch(1, 10).into()])],
            &mut out,
        );
        out = Output::new();
        udf.on_batch(
            &ctx(1),
            &[InputBatch::new(0, &[batch(2, 5).into()])],
            &mut out,
        );
        out = Output::new();
        // Batch 2 evicts batch 0: object 1's count disappears.
        udf.on_batch(
            &ctx(2),
            &[InputBatch::new(0, &[batch(3, 1).into()])],
            &mut out,
        );
        let set = topk_set(&out);
        assert_eq!(set, vec![2, 3], "object 1 fell out of the window");
    }

    /// The from-scratch `TopK` the running total replaced, kept as the
    /// reference: every batch re-merges the window's per-batch maps and
    /// sorts every object.
    struct ReferenceTopK {
        k: usize,
        window_batches: u64,
        window: VecDeque<(u64, BTreeMap<u64, i64>)>,
    }

    impl ReferenceTopK {
        fn on_batch(&mut self, batch: u64, inputs: &[InputBatch<'_>]) -> Vec<(u64, i64)> {
            let mut counts: BTreeMap<u64, i64> = BTreeMap::new();
            for input in inputs {
                for t in input.iter() {
                    *counts.entry(t.key).or_insert(0) += t.value.as_int().unwrap_or(1);
                }
            }
            self.window.push_back((batch, counts));
            let min_keep = batch.saturating_sub(self.window_batches.saturating_sub(1));
            while self.window.front().is_some_and(|(b, _)| *b < min_keep) {
                self.window.pop_front();
            }
            let mut total: BTreeMap<u64, i64> = BTreeMap::new();
            for (_, m) in &self.window {
                for (k, c) in m {
                    *total.entry(*k).or_insert(0) += c;
                }
            }
            let mut ranked: Vec<(u64, i64)> = total.into_iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            ranked.truncate(self.k);
            ranked
        }

        fn state_tuples(&self) -> usize {
            self.window.iter().map(|(_, m)| m.len()).sum()
        }
    }

    #[test]
    fn topk_running_total_matches_the_from_scratch_merge() {
        use ppa_sim::SimTime;
        // Few objects and small counts, so ranks tie; zero and negative
        // partial counts keep an object in the window at a zero sum; some
        // tuples carry no count and count 1.
        for seed in 0..24u64 {
            let draw = |b: u64, i: u64, below: u64| {
                (uniform_hash(seed, b, i, below) * below as f64) as u64
            };
            let n_objects = 1 + draw(0, 0, 30);
            let window_batches = draw(0, 1, 6);
            // k = 0, k below the object count, and k above it.
            for k in [0, 1, 3, 10, 64] {
                let mut udf = TopK::new(k, window_batches);
                let mut reference = ReferenceTopK {
                    k,
                    window_batches,
                    window: VecDeque::new(),
                };
                for b in 0..40u64 {
                    let chunks: Vec<Chunk> = (0..draw(b, 0, 4))
                        .map(|c| {
                            let tuples = (0..draw(b, 1 + c, 12)).map(|i| {
                                let at = 100 * c + i;
                                let key = draw(b, 1000 + at, n_objects);
                                match draw(b, 2000 + at, 8) {
                                    0 => Tuple::key_only(key),
                                    v => Tuple::new(key, Value::Int(v as i64 - 2)),
                                }
                            });
                            tuples.collect::<Vec<_>>().into()
                        })
                        .collect();
                    let inputs = [InputBatch::new(0, &chunks)];
                    let ctx = BatchCtx {
                        batch: b,
                        now: SimTime::ZERO,
                        task_local: 0,
                        parallelism: 1,
                    };
                    let mut out = Output::new();
                    udf.on_batch(&ctx, &inputs, &mut out);
                    let expected = reference.on_batch(b, &inputs);
                    let what = format!("seed {seed}, k {k}, batch {b}");
                    assert_eq!(
                        out[..],
                        [Tuple::new(0, Value::Counts(Arc::new(expected)))],
                        "{what}"
                    );
                    assert_eq!(udf.state_tuples(), reference.state_tuples(), "{what}");
                }
            }
        }
    }

    /// `CountCombine` and `TopK` against maps built per batch, over ragged
    /// random batches split into two inputs: empty chunks, key 0 and the
    /// largest key, zero and negative partial counts, a table that grows
    /// mid-run, and each operator swapped for its snapshot mid-window.
    #[test]
    fn dense_counts_match_a_map() {
        use crate::key_sums::ragged_batches;
        use ppa_sim::SimTime;
        for seed in 0..16u64 {
            let max_key = 1 + seed * 37;
            let batches = ragged_batches(seed, 40, max_key, |key, u| match (u * 8.0) as i64 {
                0 => Tuple::key_only(key),
                v => Tuple::new(key, Value::Int(v - 3)),
            });
            let mut count: Box<dyn Udf> = Box::new(CountCombine::default());
            let mut topk: Box<dyn Udf> = Box::new(TopK::new(5, 4));
            let mut reference = ReferenceTopK {
                k: 5,
                window_batches: 4,
                window: VecDeque::new(),
            };
            for (b, chunks) in (0u64..).zip(&batches) {
                if b == 25 {
                    count = count.snapshot();
                    topk = topk.snapshot();
                }
                let half = chunks.len() / 2;
                let inputs = [
                    InputBatch::new(0, &chunks[..half]),
                    InputBatch::new(0, &chunks[half..]),
                ];
                let ctx = BatchCtx {
                    batch: b,
                    now: SimTime::ZERO,
                    task_local: 0,
                    parallelism: 1,
                };
                let mut counts: BTreeMap<u64, i64> = BTreeMap::new();
                for t in inputs.iter().flat_map(|input| input.iter()) {
                    *counts.entry(t.key).or_insert(0) += t.value.as_int().unwrap_or(1);
                }
                let expected: Vec<Tuple> = (counts.into_iter())
                    .map(|(k, c)| Tuple::new(k, Value::Int(c)))
                    .collect();
                let what = format!("seed {seed}, batch {b}");
                let mut out = Output::new();
                count.on_batch(&ctx, &inputs, &mut out);
                assert_eq!(out[..], expected[..], "CountCombine, {what}");
                let mut out = Output::new();
                topk.on_batch(&ctx, &inputs, &mut out);
                let expected = reference.on_batch(b, &inputs);
                assert_eq!(
                    out[..],
                    [Tuple::new(0, Value::Counts(Arc::new(expected)))],
                    "TopK, {what}"
                );
                assert_eq!(topk.state_tuples(), reference.state_tuples(), "{what}");
            }
        }
    }

    #[test]
    fn count_combine_sums_partials() {
        use ppa_sim::SimTime;
        let mut udf = CountCombine::default();
        let ctx = BatchCtx {
            batch: 0,
            now: SimTime::ZERO,
            task_local: 0,
            parallelism: 1,
        };
        let a = [Chunk::from(vec![
            Tuple::new(7, Value::Int(3)),
            Tuple::new(8, Value::Int(1)),
        ])];
        let b = [Chunk::from(vec![Tuple::new(7, Value::Int(2))])];
        let mut out = Output::new();
        udf.on_batch(
            &ctx,
            &[InputBatch::new(0, &a), InputBatch::new(0, &b)],
            &mut out,
        );
        let seven = out.iter().find(|t| t.key == 7).unwrap();
        assert_eq!(seven.value.as_int(), Some(5));
    }
}
