//! # ppa — Passive and Partially Active fault tolerance for MPSPEs
//!
//! Facade crate re-exporting the PPA workspace: a from-scratch Rust
//! reproduction of *"Tolerating Correlated Failures in Massively Parallel
//! Stream Processing Engines"* (Su & Zhou, ICDE 2016).
//!
//! * [`core`] — topology model, Output Fidelity metric, MC-trees and the
//!   DP / Greedy / Structure-Aware replication planners (§II–IV).
//! * [`sim`] — the deterministic discrete-event simulation kernel.
//! * [`engine`] — the Storm-like stream engine substrate with PPA fault
//!   tolerance: checkpoints, active replicas, heartbeat failure detection,
//!   recovery and tentative outputs (§V).
//! * [`workloads`] — the evaluation workloads: the synthetic Fig. 6 query,
//!   Q1 (top-k over access logs) and Q2 (traffic incident detection).
//! * [`faults`] — fault-domain trees, failure traces and generative
//!   failure processes.
//! * [`obs`] — deterministic observability: typed trace events, the
//!   metrics registry, and the JSONL / Chrome-trace / timeline exporters.
//!
//! See `README.md` for a guided tour and the quickstart below for a
//! runnable program (`cargo test` runs it).
//!
//! ## Quickstart
//!
//! Build a tiny streaming query, run it on the simulated cluster with
//! checkpoint fault tolerance, kill a node, and watch it recover:
//!
//! ```
//! use ppa::core::{OperatorSpec, Partitioning, TaskGraph, TaskIndex};
//! use ppa::engine::{CountingSource, MapUdf};
//! use ppa::engine::{EngineConfig, FailureSpec, FtMode, Placement, QueryBuilder, Simulation, Tuple};
//! use ppa::sim::{SimDuration, SimTime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. An executable query: 4 sources -> 2 filters -> 1 collector.
//! let mut q = QueryBuilder::new();
//! let sources = q.add_source(OperatorSpec::source("events", 4, 1_000.0), |task| {
//!     Box::new(CountingSource {
//!         per_batch: 1_000,
//!         seed: 7 + task as u64,
//!         key_space: 4096,
//!     })
//! });
//! let filters = q.add_operator(OperatorSpec::map("filter", 2, 0.5), |_| {
//!     Box::new(MapUdf::new(|t: &Tuple| t.key.is_multiple_of(2).then(|| t.clone())))
//! });
//! let collect = q.add_operator(OperatorSpec::map("collect", 1, 1.0), |_| {
//!     Box::new(MapUdf::new(|t: &Tuple| Some(t.clone())))
//! });
//! q.connect(sources, filters, Partitioning::Merge)?;
//! q.connect(filters, collect, Partitioning::Merge)?;
//! let query = q.build()?;
//!
//! // 2. A cluster: one node per task plus one standby per task.
//! let n = TaskGraph::new(query.topology().clone()).n_tasks();
//! let placement = Placement::explicit((0..n).collect(), (n..2 * n).collect(), n, n)?;
//!
//! // 3. PPA fault tolerance: checkpoint everything every 5 s.
//! let config = EngineConfig {
//!     mode: FtMode::checkpoint(n, SimDuration::from_secs(5)),
//!     ..EngineConfig::default()
//! };
//!
//! // 4. Kill the node hosting the first filter task at t = 12 s (tasks
//! //    0..4 are the sources).
//! let filter_task = 4;
//! let failure = FailureSpec {
//!     at: SimTime::from_secs(12),
//!     nodes: vec![filter_task],
//! };
//! let report = Simulation::run(&query, placement, config, vec![failure], SimDuration::from_secs(40));
//!
//! // 5. What happened? The filter task had one outage, and it recovered.
//! let outages = report.outages_of(TaskIndex(filter_task));
//! assert_eq!(outages.len(), 1);
//! let (failed, recovered) = (outages[0].failed_at, outages[0].recovered_at.ok_or("recovered")?);
//! // While it was down, the sink kept emitting batches, flagged tentative.
//! assert!(report
//!     .sink
//!     .iter()
//!     .any(|s| s.tentative && failed <= s.at && s.at < recovered));
//! // The filter lets only even keys through.
//! let last = report.sink.last().ok_or("sink produced output")?;
//! assert!(last.tuples.iter().all(|t| t.key % 2 == 0));
//! # Ok(())
//! # }
//! ```

pub use ppa_core as core;
pub use ppa_engine as engine;
pub use ppa_faults as faults;
pub use ppa_obs as obs;
pub use ppa_sim as sim;
pub use ppa_workloads as workloads;
