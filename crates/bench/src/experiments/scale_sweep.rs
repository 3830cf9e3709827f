//! `scale_sweep`: event-loop throughput at (and beyond) the paper's §VI
//! cluster scale, one row per cluster size.
//!
//! Every cell drives one failure-free run of a *homogeneous* wide
//! topology — `S(W) → O1(W) → O2(W)` with `OneToOne` edges, so every node
//! carries the same work and every batch instant fires as many
//! simultaneous per-node events as the cluster is wide. That is the
//! honest shape for the paper's setting: §VI runs ~100 homogeneous
//! workers.
//!
//! The *deterministic* outputs of each cell — events processed and tuples
//! moved — are the figure's series. Wall-clock throughput
//! (`events_per_sec`, `tuples_per_sec`) is deliberately kept out of
//! stdout; it lands in the timed section of the `--json` report
//! (BENCH_repro.json), where non-deterministic timings belong.

use super::{drive, Strategy};
use crate::runner::RunCtx;
use crate::{Figure, Series};
use ppa_core::model::{OperatorSpec, Partitioning, TaskGraph};
use ppa_engine::{
    Cluster, EngineConfig, FailureTrace, PlacementStrategy, QueryBuilder, RoundRobin, SourceGen,
    Tuple,
};
use ppa_sim::SimDuration;
use ppa_workloads::synthetic::SyntheticOp;
use ppa_workloads::Scenario;

/// Workload seed (shared with the Fig. 6 experiments).
const SEED: u64 = 42;
/// Sliding-window length of the synthetic operators, in batches.
const WINDOW_BATCHES: u64 = 4;
/// Selectivity of each synthetic operator.
const SELECTIVITY: f64 = 0.5;
/// Rack size of the swept clusters (fault domains are unused here — the
/// sweep is failure-free — but `racked` keeps the cluster shape honest).
const RACK_SIZE: usize = 8;
/// Checkpoint interval far past every cell's horizon: the run carries the
/// checkpointing *mode* (replica slots, master bookkeeping) but spends its
/// event budget purely on data movement.
const NO_CHECKPOINTS_SECS: u64 = 100_000;

/// One grid cell: a cluster, a topology width and a load.
#[derive(Debug, Clone, Copy)]
struct ScaleSpec {
    /// Worker nodes in the cluster.
    workers: usize,
    /// Standby nodes (replica slots only; never activated here).
    standby: usize,
    /// Parallelism of each of the three operators (tasks = 3 × width).
    width: usize,
    /// Tuples per source task per batch.
    rate: usize,
    /// Simulated run length in seconds (= batches at the 1 s interval).
    duration_secs: u64,
}

/// A deterministic source: `rate` key-only tuples per batch, keys mixed
/// from (task, batch, index) so no two tuples collide across the run.
struct ScaleSource {
    per_batch: usize,
    task: u64,
}

impl SourceGen for ScaleSource {
    fn batch(&mut self, batch: u64) -> Vec<Tuple> {
        (0..self.per_batch as u64)
            .map(|i| Tuple::key_only((self.task << 40) ^ (batch << 20) ^ i))
            .collect()
    }
}

/// Builds a cell's scenario plus the strategy/config driving it.
fn build(spec: &ScaleSpec) -> (Scenario, Strategy, EngineConfig) {
    let width = spec.width;
    let rate = spec.rate;
    let mut q = QueryBuilder::new();
    let src = q.add_source(OperatorSpec::source("S", width, rate as f64), move |task| {
        Box::new(ScaleSource {
            per_batch: rate,
            task: task as u64,
        })
    });
    let o1 = q.add_operator(OperatorSpec::map("O1", width, SELECTIVITY), move |_| {
        Box::new(SyntheticOp::new(WINDOW_BATCHES, SELECTIVITY))
    });
    let o2 = q.add_operator(OperatorSpec::map("O2", width, SELECTIVITY), move |_| {
        Box::new(SyntheticOp::new(WINDOW_BATCHES, SELECTIVITY))
    });
    q.connect(src, o1, Partitioning::OneToOne)
        .expect("scale chain is acyclic");
    q.connect(o1, o2, Partitioning::OneToOne)
        .expect("scale chain is acyclic");
    let query = q.build().expect("scale topology is valid");

    let cluster =
        Cluster::racked(spec.workers, spec.standby, RACK_SIZE).expect("positive rack size");
    let graph = TaskGraph::new(query.topology().clone());
    let placement = RoundRobin
        .place(&graph, &cluster)
        .expect("wide chain fits the swept cluster");
    let scenario = Scenario {
        query,
        placement,
        // Failure-free: there is no kill set to speak of.
        worker_kill_set: Vec::new(),
        placement_strategy: "RoundRobin".to_string(),
        policy: None,
    };

    let n_tasks = scenario.graph().n_tasks();
    let strategy = Strategy::Checkpoint {
        interval_secs: NO_CHECKPOINTS_SECS,
    };
    let mut config = strategy.config(n_tasks, SimDuration::from_secs(WINDOW_BATCHES), SEED);
    // The default 30 ms per-batch overhead is calibrated for ~1 task per
    // node (README §Design notes); the big cells here pack ~26 tasks per
    // node and would saturate on overhead alone. Scale it down so load
    // stays proportional to tuples, which is what the sweep measures.
    config.costs.batch_overhead = SimDuration::from_millis(2);
    (scenario, strategy, config)
}

/// The swept clusters. Quick keeps one paper-scale cluster; full adds a
/// hundreds-of-nodes cell with ~10⁴ tasks.
fn cells(quick: bool) -> Vec<ScaleSpec> {
    let grids: &[(usize, usize, usize, usize, u64)] = if quick {
        &[(96, 12, 96, 150, 10)]
    } else {
        &[(96, 12, 96, 150, 12), (384, 48, 3334, 100, 12)]
    };
    grids
        .iter()
        .map(
            |&(workers, standby, width, rate, duration_secs)| ScaleSpec {
                workers,
                standby,
                width,
                rate,
                duration_secs,
            },
        )
        .collect()
}

pub fn run(ctx: &RunCtx) -> Vec<Figure> {
    let mut fig = Figure::new(
        "scale_sweep",
        "Event-loop throughput at scale, by cluster size",
        "cluster",
        "count",
    );
    fig.note(
        "Deterministic run outputs only. Wall-clock events/sec and \
         tuples/sec are in the --json report's timed section.",
    );
    let mut events = Series::new("events");
    let mut tuples = Series::new("tuples moved");
    // Cells run sequentially on purpose (not via `ctx.map`): each cell's
    // wall clock feeds the JSON throughput numbers, and concurrent cells
    // would contend for the same cores.
    for spec in cells(ctx.quick) {
        let (scenario, strategy, config) = build(&spec);
        let n_tasks = scenario.graph().n_tasks();
        let tick = format!("{}w/{}t", spec.workers, n_tasks);
        let driven = drive(
            ctx,
            &format!("workers:{} tasks:{}", spec.workers, n_tasks),
            &scenario,
            &strategy,
            config,
            &FailureTrace::new(),
            spec.duration_secs,
        );
        events.push(&tick, driven.report.events as f64);
        tuples.push(&tick, driven.report.tuples_moved as f64);
    }
    fig.series.push(events);
    fig.series.push(tuples);
    vec![fig]
}
