//! # ppa-engine — a Storm-like MPSPE substrate with PPA fault tolerance
//!
//! This crate implements §V of the paper as a deterministic discrete-event
//! simulation of a cluster (see README.md §Design notes for why the EC2/Storm testbed
//! is substituted this way):
//!
//! * **Batch dataflow** — input streams are cut into batches closed by
//!   batch-over punctuations; a task processes batch `b` only after every
//!   live upstream substream delivered or closed `b` (§V-B).
//! * **Passive replication** — periodic checkpoints (UDF state + output
//!   buffer) stored on standby nodes; upstream output buffers are trimmed on
//!   downstream checkpoints; recovery = restore + replay, with neighbour
//!   synchronization emerging from regenerated streams.
//! * **Active replication** — replicas co-process the same batches on
//!   standby nodes with outputs off; primaries periodically let replicas
//!   trim their output buffers; on failure the replica takes over after
//!   re-sending its buffered output, and downstream deduplicates by batch id.
//! * **Source replay (Storm baseline)** — no checkpoints; failed tasks
//!   restart empty and the sources replay the window's worth of batches
//!   through the topology, charging reprocessing CPU at every hop.
//! * **Tentative outputs** — once the master detects failures it proxies the
//!   batch-over punctuations of failed (non-replicated) tasks so downstream
//!   keeps producing degraded output; proxying stops at recovery.
//! * **Failure detection** — heartbeat scans every [`HEARTBEAT_INTERVAL`]
//!   (5 s, as in the paper); recovery latency is measured from detection
//!   to the instant the task's progress vector dominates its pre-failure
//!   progress (§VI).
//! * **Control plane** — every kind of fault injection (explicit specs,
//!   replayable traces, live generative processes) unifies
//!   behind a [`FaultFeed`], and [`Simulation::drive`] runs the event loop
//!   with a [`ControlPolicy`] in it: hooks observe live per-fault-domain
//!   health ([`HealthView`]) and respond with typed re-plan / migrate
//!   actions (§V-C's adaptation, closed over the placement subsystem).

mod approx;
mod chaos;
mod config;
mod control;
mod error;
mod feed;
mod placement;
mod query;
mod report;
mod runtime;
mod tuple;
mod udf;

pub use approx::DivergenceModel;
pub use chaos::{ChaosError, ChaosKind, ChaosSpec};
pub use config::{CostModel, EngineConfig, FtMode, HEARTBEAT_INTERVAL};
pub use control::{
    ActionOutcome, ActionRecord, ControlAction, ControlPolicy, DomainHealth, DomainHealthPolicy,
    DriveReport, HealthView, StaticPolicy,
};
pub use error::EngineError;
pub use feed::FaultFeed;
pub use placement::{
    plan_evacuation, Cluster, DomainSpread, Packed, Placement, PlacementError, PlacementStrategy,
    RoundRobin, TaskMove,
};
pub use query::{Query, QueryBuilder};
pub use report::{CpuStats, OutageRecord, RunReport, SinkBatch, TaskOutages, TaskRecovery};
pub use runtime::{FailureSpec, Simulation};
// Re-exported so engine users can build replayable failure scenarios
// without naming the faults crate explicitly.
pub use ppa_faults::FailureTrace;
// Re-exported so harnesses can attach sinks and read metrics without
// naming the obs crate explicitly.
pub use ppa_obs::{EngineEvent, MetricsRegistry, MetricsSnapshot, TraceSink, VecSink};
pub use tuple::{Chunk, Tuple, Value};
pub use udf::{BatchCtx, CountingSource, InputBatch, MapUdf, Output, SourceGen, Udf, WindowBuffer};
