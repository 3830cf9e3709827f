//! Quickstart: build a tiny streaming query, run it on the simulated
//! cluster with PPA fault tolerance, kill a node, and watch it recover.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ppa::core::model::{OperatorSpec, Partitioning};
use ppa::engine::udf::{CountingSource, MapUdf};
use ppa::engine::{EngineConfig, FailureSpec, FtMode, Placement, QueryBuilder, Simulation, Tuple};
use ppa::sim::{SimDuration, SimTime};

fn main() {
    // 1. An executable query: 4 sources -> 2 filters -> 1 collector.
    let mut q = QueryBuilder::new();
    let sources = q.add_source(OperatorSpec::source("events", 4, 1_000.0), |task| {
        Box::new(CountingSource {
            per_batch: 1_000,
            seed: 7 + task as u64,
            key_space: 4096,
        })
    });
    let filters = q.add_operator(OperatorSpec::map("filter", 2, 0.5), |_| {
        Box::new(MapUdf::new(|t: &Tuple| {
            t.key.is_multiple_of(2).then(|| t.clone())
        }))
    });
    let collect = q.add_operator(OperatorSpec::map("collect", 1, 1.0), |_| {
        Box::new(MapUdf::new(|t: &Tuple| Some(t.clone())))
    });
    q.connect(sources, filters, Partitioning::Merge).unwrap();
    q.connect(filters, collect, Partitioning::Merge).unwrap();
    let query = q.build().unwrap();

    // 2. A cluster: one node per task plus one standby per task.
    let graph = ppa::core::model::TaskGraph::new(query.topology().clone());
    let n = graph.n_tasks();
    let placement = Placement::explicit((0..n).collect(), (n..2 * n).collect(), n, n)
        .expect("one node per task is a valid placement");

    // 3. PPA fault tolerance: checkpoint everything every 5 s.
    let config = EngineConfig {
        mode: FtMode::checkpoint(n, SimDuration::from_secs(5)),
        ..EngineConfig::default()
    };

    // 4. Kill the node hosting the first filter task at t = 12 s.
    let filter_task = 4; // tasks 0..4 are the sources
    let failure = FailureSpec {
        at: SimTime::from_secs(12),
        nodes: vec![filter_task],
    };

    let report = Simulation::run(
        &query,
        placement,
        config,
        vec![failure],
        SimDuration::from_secs(40),
    );

    // 5. What happened?
    println!("simulated {} events", report.events);
    for r in &report.recoveries() {
        println!(
            "task {} failed at {}, detected at {}, recovered {} after detection",
            r.task,
            r.failed_at,
            r.detected_at,
            r.latency().map_or("never".into(), |l| l.to_string()),
        );
    }
    let tentative = report.sink.iter().filter(|s| s.tentative).count();
    println!(
        "sink emitted {} batches ({} tentative while the filter was down)",
        report.sink.len(),
        tentative
    );
    let last = report.sink.last().expect("sink produced output");
    println!(
        "final batch {} carried {} tuples (all keys even: {})",
        last.batch,
        last.tuples.len(),
        last.tuples.iter().all(|t| t.key % 2 == 0),
    );
}
