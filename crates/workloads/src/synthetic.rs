//! The Fig. 6 synthetic topology of the recovery-efficiency experiments
//! (§VI-A): one 16-task source operator feeding four synthetic operators
//! with parallelism 8/4/2/1, each task merging two upstream tasks. Every
//! synthetic operator maintains a sliding window (step 1 s, interval 10 s or
//! 30 s) over its raw input and has selectivity 0.5.

use crate::{dedicated_placement, Scenario};
use ppa_core::{OperatorSpec, Partitioning};
use ppa_engine::WindowBuffer;
use ppa_engine::{BatchCtx, InputBatch, Output, Query, QueryBuilder, SourceGen, Tuple, Udf};
use ppa_sim::SimDuration;

/// Parameters of the Fig. 6 scenario.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// Per-source-task rate in tuples/s (the paper: 1000 or 2000).
    pub rate: usize,
    /// Window interval (the paper: 10 s or 30 s). Slide step = batch = 1 s.
    pub window: SimDuration,
    /// Selectivity of each synthetic operator (the paper: 0.5).
    pub selectivity: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config {
            rate: 1000,
            window: SimDuration::from_secs(30),
            selectivity: 0.5,
            seed: 42,
        }
    }
}

/// A synthetic sliding-window operator: prices the window's raw input as
/// state (a tuple count per batch; nothing reads the tuples) and emits a
/// `selectivity` fraction of each batch.
#[derive(Clone)]
pub struct SyntheticOp {
    window_batches: u64,
    /// Every `keep_every`-th tuple by position across the inputs is
    /// emitted, so primaries and replicas agree exactly.
    keep_every: usize,
    buf: WindowBuffer,
}

impl SyntheticOp {
    /// A selectivity that is not positive (zero, negative, NaN) selects
    /// only the first tuple of each batch.
    pub fn new(window_batches: u64, selectivity: f64) -> Self {
        let keep_every = if selectivity > 0.0 {
            (1.0 / selectivity).round().max(1.0) as usize
        } else {
            usize::MAX
        };
        SyntheticOp {
            window_batches,
            keep_every,
            buf: WindowBuffer::new(),
        }
    }
}

impl Udf for SyntheticOp {
    fn on_batch(&mut self, ctx: &BatchCtx, inputs: &[InputBatch<'_>], out: &mut Output) {
        inputs.iter().fold(0, |first, input| {
            input.copy_every(first, self.keep_every, out)
        });
        let tuples = inputs.iter().flat_map(|i| i.chunks()).map(|c| c.len());
        self.buf.push(ctx.batch, tuples.sum(), self.window_batches);
    }

    fn snapshot(&self) -> Box<dyn Udf> {
        Box::new(self.clone())
    }

    fn state_tuples(&self) -> usize {
        self.buf.len_tuples()
    }
}

/// A source emitting `rate` tuples per batch with uniformly random keys.
#[derive(Debug, Clone)]
struct UniformSource {
    per_batch: usize,
    seed: u64,
}

impl SourceGen for UniformSource {
    fn batch(&mut self, batch: u64) -> Vec<Tuple> {
        (0..self.per_batch)
            .map(|i| {
                let u = crate::zipf::uniform_hash(self.seed, batch, i as u64, 0);
                // In [0, 10^6), so the signed conversion, one instruction
                // where the unsigned one takes several, gives the same key.
                Tuple::key_only((u * 1_000_000.0) as i64 as u64)
            })
            .collect()
    }

    fn batch_len(&mut self, _batch: u64) -> usize {
        self.per_batch
    }
}

/// The generator of each task of the Fig. 6 source.
pub(crate) fn uniform_sources(
    cfg: &Fig6Config,
) -> impl Fn(usize) -> Box<dyn SourceGen> + Send + Sync + 'static {
    let (rate, seed) = (cfg.rate, cfg.seed);
    move |task| -> Box<dyn SourceGen> {
        Box::new(UniformSource {
            per_batch: rate,
            seed: seed ^ (task as u64) << 8,
        })
    }
}

/// Builds the Fig. 6 query.
pub fn fig6_query(cfg: &Fig6Config) -> Query {
    #[expect(
        clippy::expect_used,
        reason = "the Fig. 6 shape is fixed in this file; an invalid topology is a bug here, not an input error"
    )]
    try_fig6_query(cfg).expect("fig6 topology is valid")
}

fn try_fig6_query(cfg: &Fig6Config) -> Result<Query, ppa_core::CoreError> {
    let window_batches = (cfg.window.as_micros() / 1_000_000).max(1);
    let sel = cfg.selectivity;

    let mut q = QueryBuilder::new();
    let src = q.add_source(
        OperatorSpec::source("source", 16, cfg.rate as f64),
        uniform_sources(cfg),
    );
    let o1 = q.add_operator(OperatorSpec::map("O1", 8, sel), move |_| {
        Box::new(SyntheticOp::new(window_batches, sel))
    });
    let o2 = q.add_operator(OperatorSpec::map("O2", 4, sel), move |_| {
        Box::new(SyntheticOp::new(window_batches, sel))
    });
    let o3 = q.add_operator(OperatorSpec::map("O3", 2, sel), move |_| {
        Box::new(SyntheticOp::new(window_batches, sel))
    });
    let o4 = q.add_operator(OperatorSpec::map("O4", 1, sel), move |_| {
        Box::new(SyntheticOp::new(window_batches, sel))
    });
    q.connect(src, o1, Partitioning::Merge)?;
    q.connect(o1, o2, Partitioning::Merge)?;
    q.connect(o2, o3, Partitioning::Merge)?;
    q.connect(o3, o4, Partitioning::Merge)?;
    q.build()
}

/// Builds the full Fig. 6 scenario: query + the paper's placement (sources
/// on 4 nodes, 15 synthetic tasks on 15 nodes, 15 standbys).
pub fn fig6_scenario(cfg: &Fig6Config) -> Scenario {
    let query = fig6_query(cfg);
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

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_engine::{Chunk, EngineConfig, FailureSpec, FtMode, Simulation};
    use ppa_sim::SimTime;

    fn ctx(batch: u64) -> BatchCtx {
        BatchCtx {
            batch,
            now: SimTime::ZERO,
            task_local: 0,
            parallelism: 1,
        }
    }

    fn keys(range: std::ops::Range<u64>) -> Chunk {
        range.map(Tuple::key_only).collect::<Vec<_>>().into()
    }

    #[test]
    fn the_uniform_source_is_pure() {
        crate::assert_pure_source("UniformSource", || {
            Box::new(UniformSource {
                per_batch: 100,
                seed: 42,
            })
        });
    }

    #[test]
    fn fig6_topology_shape() {
        let q = fig6_query(&Fig6Config::default());
        let t = q.topology();
        assert_eq!(t.n_operators(), 5);
        assert_eq!(t.n_tasks(), 31);
        let paras: Vec<usize> = t.operators().iter().map(|o| o.parallelism).collect();
        assert_eq!(paras, vec![16, 8, 4, 2, 1]);
    }

    #[test]
    fn synthetic_op_halves_its_input() {
        let mut op = SyntheticOp::new(10, 0.5);
        let mut out = Output::new();
        op.on_batch(&ctx(0), &[InputBatch::new(0, &[keys(0..100)])], &mut out);
        assert_eq!(out.len(), 50);
        assert_eq!(op.state_tuples(), 100);
    }

    #[test]
    fn synthetic_state_tracks_window_and_rate() {
        let mut op = SyntheticOp::new(3, 0.5);
        for b in 0..10u64 {
            let mut out = Output::new();
            op.on_batch(&ctx(b), &[InputBatch::new(0, &[keys(0..200)])], &mut out);
        }
        assert_eq!(op.state_tuples(), 600, "window(3) × rate(200)");
    }

    /// The copy-then-select implementation `SyntheticOp` replaced, kept as
    /// the reference: concatenate the inputs (each stream's round-robin
    /// interleave materialised), keep every k-th, own the copy as state.
    struct LegacySyntheticOp {
        window_batches: u64,
        selectivity: f64,
        window: std::collections::VecDeque<(u64, Vec<Tuple>)>,
    }

    impl LegacySyntheticOp {
        fn on_batch(&mut self, batch: u64, inputs: &[InputBatch<'_>], out: &mut Vec<Tuple>) {
            let mut all: Vec<Tuple> = Vec::new();
            for input in inputs {
                let chunks = input.chunks();
                let rows = chunks.iter().map(|c| c.len()).max().unwrap_or(0);
                for i in 0..rows {
                    all.extend(chunks.iter().filter_map(|c| c.get(i)).cloned());
                }
            }
            let keep_every = if self.selectivity > 0.0 {
                (1.0 / self.selectivity).round().max(1.0) as usize
            } else {
                usize::MAX
            };
            out.extend(
                all.iter()
                    .enumerate()
                    .filter(|(i, _)| i % keep_every == 0)
                    .map(|(_, t)| t.clone()),
            );
            self.window.push_back((batch, all));
            let min_keep = batch.saturating_sub(self.window_batches.saturating_sub(1));
            while self.window.front().is_some_and(|(b, _)| *b < min_keep) {
                self.window.pop_front();
            }
        }

        fn state_tuples(&self) -> usize {
            self.window.iter().map(|(_, v)| v.len()).sum()
        }
    }

    #[test]
    fn synthetic_op_matches_the_legacy_copy_then_select() {
        // Two streams; a ragged three-way fan-in with an empty (proxy-closed)
        // substream; a batch with no input at all; then seeded streams of
        // one / equal-length / ragged / partly-empty / no chunks, some
        // shorter than the offset carried into them.
        let mut shapes: Vec<Vec<Vec<u64>>> = vec![
            vec![vec![7], vec![5]],
            vec![vec![4, 0, 9], vec![3, 3]],
            vec![vec![1, 6], vec![0], vec![2, 2, 2]],
            vec![vec![0, 0]],
        ];
        for seed in 0..64u64 {
            let draw = |s: u64, c: u64, below: u64| {
                (crate::zipf::uniform_hash(seed, s, c, below) * below as f64) as u64
            };
            let streams = (0..1 + draw(0, 0, 3)).map(|s| {
                (0..draw(s, 0, 5))
                    .map(|c| match draw(s, c, 4) {
                        0 => 0,
                        1 => draw(s, c, 12),
                        _ => draw(s, 0, 12),
                    })
                    .collect()
            });
            shapes.push(streams.collect());
        }
        // Strides 2, 3, 1, 7, and `usize::MAX` three times over.
        for selectivity in [0.5, 0.3, 1.0, 0.14, 0.0, -1.0, f64::NAN] {
            let mut op = SyntheticOp::new(3, selectivity);
            let mut legacy = LegacySyntheticOp {
                window_batches: 3,
                selectivity,
                window: Default::default(),
            };
            for (b, shape) in (0u64..).zip(&shapes) {
                let streams: Vec<Vec<Chunk>> = shape
                    .iter()
                    .enumerate()
                    .map(|(s, lens)| {
                        lens.iter()
                            .enumerate()
                            .map(|(c, &len)| {
                                let base = b * 10_000 + (s * 1000 + c * 100) as u64;
                                keys(base..base + len)
                            })
                            .collect()
                    })
                    .collect();
                let inputs: Vec<InputBatch<'_>> = streams
                    .iter()
                    .enumerate()
                    .map(|(s, chunks)| InputBatch::new(s, chunks))
                    .collect();
                let (mut out, mut expected) = (Output::new(), Vec::new());
                op.on_batch(&ctx(b), &inputs, &mut out);
                legacy.on_batch(b, &inputs, &mut expected);
                assert_eq!(
                    out[..],
                    expected[..],
                    "selectivity {selectivity}, batch {b}"
                );
                assert_eq!(
                    op.state_tuples(),
                    legacy.state_tuples(),
                    "selectivity {selectivity}, batch {b}"
                );
            }
        }
    }

    #[test]
    fn fig6_runs_end_to_end() {
        let cfg = Fig6Config {
            rate: 200,
            window: SimDuration::from_secs(10),
            ..Default::default()
        };
        let s = fig6_scenario(&cfg);
        let report = Simulation::run(
            &s.query,
            s.placement.clone(),
            EngineConfig {
                mode: FtMode::checkpoint(31, SimDuration::from_secs(5)),
                ..EngineConfig::default()
            },
            vec![],
            SimDuration::from_secs(15),
        );
        assert!(!report.sink.is_empty());
        // Selectivity 0.5 through 4 operators: 16·200 / 16 = 200 per batch.
        let s0 = &report.sink[0];
        assert_eq!(s0.tuples.len(), 16 * 200 / 16);
    }

    #[test]
    fn fig6_correlated_failure_recovers() {
        let cfg = Fig6Config {
            rate: 200,
            window: SimDuration::from_secs(10),
            ..Default::default()
        };
        let s = fig6_scenario(&cfg);
        let report = Simulation::run(
            &s.query,
            s.placement.clone(),
            EngineConfig {
                mode: FtMode::checkpoint(31, SimDuration::from_secs(5)),
                ..EngineConfig::default()
            },
            vec![FailureSpec {
                at: SimTime::from_secs(22),
                nodes: s.worker_kill_set.clone(),
            }],
            SimDuration::from_secs(120),
        );
        assert_eq!(report.recoveries().len(), 15, "all synthetic tasks failed");
        for r in &report.recoveries() {
            assert!(
                r.recovered_at.is_some(),
                "task {:?} never recovered",
                r.task
            );
        }
    }
}
