//! `wide_steady` — event-bound steady state. `S(3334) → O1(3334) → O2(3334)`
//! over `OneToOne` edges on a 384 + 48 node racked cluster, 100 tuples per
//! source per batch, 12 simulated seconds, no failure: about 50 tuples per
//! event over ten thousand tasks, so the scheduler, lane grouping, per-event
//! task scans, construction and teardown are the whole cost, and recovery,
//! the control plane, the planner and obs do nothing.

use super::{fingerprint, mix, run_once, whole_run, Outcome, RunInputs, Workload};
use crate::spans::{count, span};
use ppa_core::model::{OperatorSpec, Partitioning, TaskGraph};
use ppa_engine::{
    Cluster, CostModel, EngineConfig, FailureTrace, FtMode, Packed, Placement, PlacementStrategy,
    Query, QueryBuilder, RoundRobin, SourceGen, StaticPolicy, Tuple,
};
use ppa_sim::{Scheduler, SimDuration, SimTime};
use ppa_workloads::synthetic::SyntheticOp;

const WIDTH: usize = 3334;
const TUPLES_PER_BATCH: usize = 100;
const WINDOW_BATCHES: u64 = 4;
const SELECTIVITY: f64 = 0.5;
const HORIZON_SECS: u64 = 12;
/// Far past the horizon: the run carries the checkpointing mode's replica
/// slots and bookkeeping but spends its events on data movement.
const NO_CHECKPOINT_SECS: u64 = 100_000;

/// Key-only tuples, keys mixed from (seed, task, batch, index).
struct KeySource {
    seed: u64,
    task: u64,
}

impl SourceGen for KeySource {
    fn batch(&mut self, batch: u64) -> Vec<Tuple> {
        let base = mix(self.seed, (self.task << 20) ^ batch);
        (0..TUPLES_PER_BATCH as u64)
            .map(|i| Tuple::key_only(base.wrapping_add(i)))
            .collect()
    }
}

pub struct WideSteady {
    query: Query,
    graph: TaskGraph,
    cluster: Cluster,
    placement: Placement,
    config: EngineConfig,
    no_failures: FailureTrace,
}

impl Workload for WideSteady {
    fn setup(seed: u64) -> Self {
        let mut q = QueryBuilder::new();
        let src = q.add_source(
            OperatorSpec::source("S", WIDTH, TUPLES_PER_BATCH as f64),
            move |task| {
                Box::new(KeySource {
                    seed,
                    task: task as u64,
                })
            },
        );
        let o1 = q.add_operator(OperatorSpec::map("O1", WIDTH, SELECTIVITY), |_| {
            Box::new(SyntheticOp::new(WINDOW_BATCHES, SELECTIVITY))
        });
        let o2 = q.add_operator(OperatorSpec::map("O2", WIDTH, SELECTIVITY), |_| {
            Box::new(SyntheticOp::new(WINDOW_BATCHES, SELECTIVITY))
        });
        q.connect(src, o1, Partitioning::OneToOne)
            .expect("the chain is acyclic");
        q.connect(o1, o2, Partitioning::OneToOne)
            .expect("the chain is acyclic");
        let query = q.build().expect("the chain is a valid topology");

        let cluster = Cluster::racked(384, 48, 8).expect("rack size is positive");
        let graph = TaskGraph::new(query.topology().clone());
        let placement = span("engine.placement.place", || {
            RoundRobin
                .place(&graph, &cluster)
                .expect("the chain fits the cluster")
        });
        let config = EngineConfig {
            mode: FtMode::checkpoint(graph.n_tasks(), SimDuration::from_secs(NO_CHECKPOINT_SECS)),
            seed,
            // The default 30 ms per batch is calibrated for about one task
            // per node; at 26 tasks per node it alone would saturate them.
            costs: CostModel {
                batch_overhead: SimDuration::from_millis(2),
                ..CostModel::default()
            },
            ..EngineConfig::default()
        };
        WideSteady {
            query,
            graph,
            cluster,
            placement,
            config,
            no_failures: FailureTrace::new(),
        }
    }

    fn iterate(&mut self) -> Outcome {
        let mut out = Outcome::default();
        let inputs = RunInputs {
            query: &self.query,
            placement: &self.placement,
            config: &self.config,
            failures: &self.no_failures,
            phases: &whole_run(SimTime::from_secs(HORIZON_SECS)),
        };
        let print = run_once(&inputs, &mut StaticPolicy, None, |d| fingerprint(&d.report));
        out.fingerprint.push(print);
        out
    }

    fn ops_per_iteration(&self) -> u64 {
        // One op = one task processing one batch.
        self.graph.n_tasks() as u64 * HORIZON_SECS
    }

    fn probes(&mut self) {
        // `Packed` on the same 10 k-task graph. `DomainSpread` is quadratic
        // in tasks (minutes here); `corr_recovery` probes it on Fig. 6.
        span("engine.placement.place", || {
            Packed
                .place(&self.graph, &self.cluster)
                .expect("the chain fits the cluster")
        });

        // A bare scheduler fed as many events as one run processes, on the
        // run's batch-boundary timestamps.
        let events = self.ops_per_iteration();
        let per_batch = events / HORIZON_SECS;
        span("sim.scheduler.push_pop", || {
            let mut sched: Scheduler<u64> = Scheduler::new();
            let mut popped = 0u64;
            for batch in 0..HORIZON_SECS {
                for i in 0..per_batch {
                    sched.at(SimTime::from_secs(batch + 1), i);
                }
                while let Some((_, e)) = sched.next() {
                    std::hint::black_box(e);
                    popped += 1;
                }
            }
            assert_eq!(popped, events, "every scheduled event fires");
        });
        count("sim.scheduler.events", events as f64);
    }
}
