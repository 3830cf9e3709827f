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

use crate::zipf::{uniform_hash, Zipf};
use crate::{dedicated_placement, merge_link, Scenario};
use ppa_core::model::OperatorSpec;
use ppa_engine::{BatchCtx, InputBatch, Query, QueryBuilder, SourceGen, Tuple, Udf, Value};
use std::collections::BTreeMap;
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
}

/// O1/O2: aggregate per-object hit counts within each batch (O1 counts raw
/// hits; O2 sums partial counts). Stateless across batches — the window
/// lives at O3 (hierarchical aggregation).
#[derive(Clone)]
struct CountCombine;

impl Udf for CountCombine {
    fn on_batch(&mut self, _ctx: &BatchCtx, inputs: &[InputBatch<'_>], out: &mut Vec<Tuple>) {
        let mut counts: BTreeMap<u64, i64> = BTreeMap::new();
        for input in inputs {
            for t in input.iter() {
                let add = t.value.as_int().unwrap_or(1);
                *counts.entry(t.key).or_insert(0) += add;
            }
        }
        out.extend(
            counts
                .into_iter()
                .map(|(k, c)| Tuple::new(k, Value::Int(c))),
        );
    }

    fn snapshot(&self) -> Box<dyn Udf> {
        Box::new(self.clone())
    }

    fn state_tuples(&self) -> usize {
        0
    }
}

/// O3: sliding-window top-k. State: the window's per-batch count maps.
#[derive(Clone)]
struct TopK {
    k: usize,
    window_batches: u64,
    window: std::collections::VecDeque<(u64, BTreeMap<u64, i64>)>,
}

impl TopK {
    fn new(k: usize, window_batches: u64) -> Self {
        TopK {
            k,
            window_batches,
            window: Default::default(),
        }
    }
}

impl Udf for TopK {
    fn on_batch(&mut self, ctx: &BatchCtx, inputs: &[InputBatch<'_>], out: &mut Vec<Tuple>) {
        let mut counts: BTreeMap<u64, i64> = BTreeMap::new();
        for input in inputs {
            for t in input.iter() {
                *counts.entry(t.key).or_insert(0) += t.value.as_int().unwrap_or(1);
            }
        }
        self.window.push_back((ctx.batch, counts));
        let min_keep = ctx
            .batch
            .saturating_sub(self.window_batches.saturating_sub(1));
        while self.window.front().is_some_and(|(b, _)| *b < min_keep) {
            self.window.pop_front();
        }
        // Global counts over the window.
        let mut total: BTreeMap<u64, i64> = BTreeMap::new();
        for (_, m) in &self.window {
            for (k, c) in m {
                *total.entry(*k).or_insert(0) += c;
            }
        }
        let mut ranked: Vec<(u64, i64)> = total.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(self.k);
        out.push(Tuple::new(0, Value::Counts(Arc::from(ranked))));
    }

    fn snapshot(&self) -> Box<dyn Udf> {
        Box::new(self.clone())
    }

    fn state_tuples(&self) -> usize {
        self.window.iter().map(|(_, m)| m.len()).sum()
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
    let objects_per_task = (cfg.n_objects / cfg.src_tasks).max(1);
    let zipf = Zipf::new(objects_per_task, cfg.zipf_s);
    let (rate, seed) = (cfg.rate, cfg.seed);
    let src = q.add_source(
        OperatorSpec::source("access-log", cfg.src_tasks, cfg.rate as f64),
        move |task| {
            Box::new(AccessLogSource {
                task: task as u64,
                rate,
                zipf: zipf.clone(),
                objects_per_task: objects_per_task as u64,
                seed,
            })
        },
    );
    // Selectivity estimates drive the rate model's OF weights: O1 compresses
    // hits into per-object counts; O2 merges counts; O3 emits one digest.
    let o1_sel = (cfg.n_objects as f64 / cfg.rate as f64).min(1.0);
    let o1 = q.add_operator(
        OperatorSpec::map("O1-slice-count", cfg.o1_tasks, o1_sel),
        |_| Box::new(CountCombine),
    );
    let o2 = q.add_operator(OperatorSpec::map("O2-merge", cfg.o2_tasks, 1.0), |_| {
        Box::new(CountCombine)
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
    let graph = ppa_core::model::TaskGraph::new(query.topology().clone());
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
pub fn topk_set(tuples: &[Tuple]) -> Vec<u64> {
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
        let mut out = Vec::new();
        udf.on_batch(
            &ctx(0),
            &[InputBatch::new(0, &[batch(1, 10).into()])],
            &mut out,
        );
        out.clear();
        udf.on_batch(
            &ctx(1),
            &[InputBatch::new(0, &[batch(2, 5).into()])],
            &mut out,
        );
        out.clear();
        // Batch 2 evicts batch 0: object 1's count disappears.
        udf.on_batch(
            &ctx(2),
            &[InputBatch::new(0, &[batch(3, 1).into()])],
            &mut out,
        );
        let set = topk_set(&out);
        assert_eq!(set, vec![2, 3], "object 1 fell out of the window");
    }

    #[test]
    fn count_combine_sums_partials() {
        use ppa_sim::SimTime;
        let mut udf = CountCombine;
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
        let mut out = Vec::new();
        udf.on_batch(
            &ctx,
            &[InputBatch::new(0, &a), InputBatch::new(0, &b)],
            &mut out,
        );
        let seven = out.iter().find(|t| t.key == 7).unwrap();
        assert_eq!(seven.value.as_int(), Some(5));
    }
}
