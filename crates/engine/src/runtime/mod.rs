//! The simulated cluster runtime: batch dataflow, failure injection,
//! detection and the three recovery paths (active replica takeover,
//! checkpoint restore + replay, Storm-style source replay).
//!
//! One [`Simulation`] owns the whole cluster state and is driven by a
//! deterministic event loop (`ppa_sim::Scheduler`). Runtime slots `0..n`
//! hold the primary incarnation of each logical task (a checkpoint restore
//! reuses the slot, moving it to the standby node); slots `n..` hold active
//! replicas.
//!
//! Protocol summary (§V-B):
//! * every task ships exactly one `Data` message per (batch, downstream
//!   substream) — the message doubles as the batch-over punctuation;
//! * a batch is processed once every input substream has delivered it or
//!   had it closed by a master proxy punctuation; receivers drop batches
//!   below their substream cursor, which makes replica takeover and replay
//!   idempotent;
//! * upstream output buffers are trimmed by downstream checkpoints (and by
//!   primary→replica sync for replicas); checkpoints include the output
//!   buffer, so a restored task can re-serve its downstream immediately.

// The runtime's internal bookkeeping uses nested generic types whose shape
// is the documentation (batch id -> (payload, tentative), per-slot); naming
// each would add indirection without clarity.
#![allow(clippy::type_complexity)]

use crate::chaos::{ChaosError, ChaosKind, ChaosSpec};
use crate::config::{EngineConfig, FtMode};
use crate::control::{
    ActionOutcome, ActionRecord, ControlAction, ControlPolicy, DomainHealth, DriveReport,
    HealthView, StaticPolicy,
};
use crate::error::EngineError;
use crate::feed::FaultFeed;
use crate::placement::{move_counts, plan_evacuation, MoveRole, NodeId, Placement};
use crate::query::Query;
use crate::report::{
    CpuStats, Lifecycle, OutageRecord, RunReport, SinkBatch, TaskOutages, TaskRecovery,
};
use crate::tuple::Chunk;
use crate::udf::{SourceGen, Udf};
use ppa_core::model::{TaskGraph, TaskIndex};
use ppa_core::{AdaptivePlanner, StructureAwarePlanner, TaskSet};
use ppa_faults::FailureTrace;
use ppa_obs::metrics::LATENCY_BUCKETS_US;
use ppa_obs::{EngineEvent, MetricsRegistry, TraceSink};
use ppa_sim::{Scheduler, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::collections::VecDeque;

mod lane;

/// A failure injection: the listed nodes die at `at`.
#[derive(Debug, Clone)]
pub struct FailureSpec {
    pub at: SimTime,
    pub nodes: Vec<NodeId>,
}

/// Runtime slot index (primaries: `0..n_tasks`; replicas: `n_tasks..`).
type Rt = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Running,
    Dead,
    /// Checkpoint being loaded (or Storm restart pending).
    Restoring,
    /// Replaying the backlog until the pre-failure progress is reached.
    CatchingUp,
}

/// One downstream substream this task sends to.
#[derive(Debug, Clone)]
struct OutTarget {
    /// Output-stream index at the sender (one per downstream operator).
    stream: usize,
    /// Receiving logical task.
    to: TaskIndex,
    /// Flat substream index at the receiver identifying this sender.
    to_substream: usize,
}

/// Output buffered for one downstream substream.
type Buffered = (u64, Chunk, bool);

struct Checkpoint {
    /// `next_batch` at snapshot time.
    batch: u64,
    udf: Option<Box<dyn Udf>>,
    out_buffer: Vec<VecDeque<Buffered>>,
    closed: Vec<u64>,
    state_tuples: usize,
}

struct TaskRt {
    logical: TaskIndex,
    is_replica: bool,
    node: NodeId,
    status: Status,
    udf: Option<Box<dyn Udf>>,
    source: Option<Box<dyn SourceGen>>,
    /// (input-stream index, upstream logical task) per flat substream.
    sub_from: Vec<(usize, TaskIndex)>,
    /// Staged (not yet processed) data per flat substream.
    staged: Vec<BTreeMap<u64, (Chunk, bool)>>,
    /// Per substream: batches `< closed[s]` may be processed without data
    /// (closed by proxy punctuations).
    closed: Vec<u64>,
    /// Next batch to process (sources: next batch to generate).
    next_batch: u64,
    /// Whether processed batches are sent downstream (replicas start muted).
    outputs_enabled: bool,
    out_targets: Vec<OutTarget>,
    /// Precomputed route table over `out_targets`: one `(start, len)`
    /// span per output stream (targets of a stream are contiguous), so
    /// `emit` never re-derives the partition layout per batch.
    stream_spans: Vec<(usize, usize)>,
    out_buffer: Vec<VecDeque<Buffered>>,
    checkpoint: Option<Checkpoint>,
    /// Progress at the instant the hosting node failed.
    pre_failure_progress: Option<u64>,
    /// Sink outputs a muted replica produced; promoted at takeover so the
    /// record has no hole between the primary's death and the takeover.
    pending_sink: VecDeque<SinkBatch>,
    cpu: CpuStats,
    throughput: crate::report::TaskThroughput,
    /// Approximate mode: drift since the last shipped backup (idle — all
    /// zeros — under every other mode).
    divergence: crate::approx::DivergenceModel,
}

/// The per-stream `(start, len)` spans of a task's out-target list
/// (targets of one stream are contiguous by construction).
fn stream_spans_of(out_targets: &[OutTarget]) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < out_targets.len() {
        let stream = out_targets[i].stream;
        let start = i;
        while i < out_targets.len() && out_targets[i].stream == stream {
            i += 1;
        }
        spans.push((start, i - start));
    }
    spans
}

impl TaskRt {
    fn n_substreams(&self) -> usize {
        self.sub_from.len()
    }

    /// Current operator state size in tuples (0 for sources).
    fn state_tuples(&self) -> usize {
        self.udf.as_ref().map_or(0, |u| u.state_tuples())
    }

    /// Whether batch `b` can be processed.
    fn ready(&self, b: u64) -> bool {
        (0..self.n_substreams()).all(|s| self.staged[s].contains_key(&b) || self.closed[s] > b)
    }

    fn buffered_tuples(&self) -> usize {
        self.out_buffer
            .iter()
            .flat_map(|q| q.iter())
            .map(|(_, t, _)| t.len())
            .sum()
    }
}

enum Msg {
    Data {
        tuples: Chunk,
        degraded: bool,
        replay_for: Option<TaskIndex>,
    },
    /// Master-generated proxy punctuation closing batches `..=batch`.
    Proxy,
}

enum Event {
    SourceBatch {
        rt: Rt,
        batch: u64,
    },
    Deliver {
        to: Rt,
        substream: usize,
        batch: u64,
        msg: Msg,
    },
    Checkpoint {
        rt: Rt,
    },
    ReplicaSync,
    HeartbeatScan,
    Failure {
        idx: usize,
    },
    RestoreDone {
        rt: Rt,
    },
    TakeoverDone {
        logical: usize,
    },
    ProxyTick,
    /// Approximate mode: a task's drift crossed the error bound during
    /// batch processing; ship its state backup at that batch's CPU finish.
    ApproxShip {
        rt: Rt,
    },
    /// A registered chaos injection fires (index into `Simulation::chaos`).
    Chaos {
        idx: usize,
    },
}

/// The simulated cluster.
pub struct Simulation {
    graph: TaskGraph,
    placement: Placement,
    config: EngineConfig,
    sched: Scheduler<Event>,
    tasks: Vec<TaskRt>,
    /// Replica slot of each logical task, if actively replicated.
    replica_slot: Vec<Option<Rt>>,
    /// Node CPU horizon.
    node_busy: Vec<SimTime>,
    node_alive: Vec<bool>,
    failures: Vec<FailureSpec>,
    /// Per-task outage histories in first-failure order — the source of
    /// truth behind both the report's `outages` and its derived first-
    /// outage `recoveries` view.
    outages: Vec<TaskOutages>,
    /// Index into `outages` per logical task.
    outage_of: Vec<Option<usize>>,
    /// Lifecycle state of every logical task
    /// (`Healthy → Failed → Replaying → Recovered → ReFailed → …`).
    lifecycle: Vec<Lifecycle>,
    /// Monotone count of recovery setbacks: re-failures (a new outage
    /// record beyond a task's first), deaths that re-arm an open record
    /// mid-recovery, and pending takeovers lost to a muted replica's
    /// death. The policy-facing "something went backwards" signal —
    /// strictly more sensitive than comparing outage counts, which miss
    /// the re-arm cases.
    recovery_setbacks: usize,
    sink: Vec<SinkBatch>,
    events: u64,
    /// Tuples scheduled for delivery so far (replica copies included) —
    /// the denominator of the bench harness's tuples/sec figures.
    tuples_moved: u64,
    /// Portions of `events` / `tuples_moved` already flushed into the
    /// metrics registry (a repeated `drive` must not double-count).
    events_metered: u64,
    tuples_metered: u64,
    /// Fresh-UDF factories for Storm restarts, one per logical task.
    fresh_udf: Vec<Option<Box<dyn Fn() -> Box<dyn Udf>>>>,
    /// Spare source generators, one per source task — consumed when the
    /// control plane activates a source replica mid-run (generators are
    /// deterministic functions of the batch id, so a spare instance
    /// produces the identical stream).
    spare_sources: Vec<Option<Box<dyn SourceGen>>>,
    /// Storm-mode source buffer length in batches.
    storm_buffer_batches: Option<u64>,
    /// Storm-mode replay cones (sorted logical tasks with a path to the
    /// key), computed once when a target's replay starts; the graph never
    /// changes, so entries stay valid for late forwarded deliveries.
    replay_cones: BTreeMap<usize, Vec<TaskIndex>>,
    checkpoint_interval: Option<SimDuration>,
    /// Per-fault-domain time-decayed failure scores (when the placement
    /// carries a node → domain mapping) — the raw material of the
    /// control plane's [`HealthView`].
    domain_health: Option<DomainHealth>,
    /// The currently adopted active-replication plan (mutated by
    /// control-plane replans).
    active_plan: TaskSet,
    /// Whether the periodic replica-sync event is on the schedule.
    replica_sync_running: bool,
    /// Attached trace sink, if any; lifecycle transitions are recorded
    /// into it as typed [`EngineEvent`]s at their simulated instants.
    trace_sink: Option<Box<dyn TraceSink>>,
    /// Deterministic run metrics fed by the same transitions, snapshotted
    /// into the [`DriveReport`].
    metrics: MetricsRegistry,
    /// Per logical task: whether the currently open outage record has
    /// already produced tentative (proxied) output — the first proxy of a
    /// record emits `TentativeResumed`.
    proxied: Vec<bool>,
    /// Registered chaos injections (buggify points), fired by
    /// `Event::Chaos`. Empty for every non-chaos run.
    chaos: Vec<ChaosSpec>,
    /// Declared run horizon: when set, `inject*` and `inject_chaos`
    /// reject events scheduled past it (they would never fire).
    horizon: Option<SimTime>,
    /// Pending heartbeat-scan drops (armed by `ChaosKind::HeartbeatDrop`).
    heartbeat_drops: u32,
    /// Pending one-shot heartbeat delay (armed by
    /// `ChaosKind::HeartbeatDelay`): the next scan, and the cadence
    /// behind it, shifts by this much.
    heartbeat_delay: Option<SimDuration>,
    /// Per logical task: pending restore stall (armed by
    /// `ChaosKind::RestoreStall`), consumed by the task's next restore
    /// completion.
    restore_stall: Vec<Option<SimDuration>>,
    /// `FtMode::Approximate`'s error bound; `None` under every exact
    /// mode. Doubles as the gate on approximate-only metric flushes so
    /// exact runs stay byte-identical.
    approx_bound: Option<u64>,
    /// Portion of the tasks' skipped-backup counts already flushed into
    /// the metrics registry (same repeated-`drive` contract as
    /// `events_metered`).
    approx_skipped_metered: u64,
}

impl Simulation {
    /// Builds the cluster for `query` under `placement` and `config`.
    pub fn new(query: &Query, placement: Placement, config: EngineConfig) -> Self {
        let graph = TaskGraph::new(query.topology().clone());
        let n = graph.n_tasks();
        assert_eq!(
            placement.primary.len(),
            n,
            "placement must cover every task"
        );

        // Flat substream layout per receiving task.
        let sub_from: Vec<Vec<(usize, TaskIndex)>> = (0..n)
            .map(|t| {
                let mut subs = Vec::new();
                for (stream, istream) in graph.inputs(TaskIndex(t)).iter().enumerate() {
                    for &u in &istream.substreams {
                        subs.push((stream, u));
                    }
                }
                subs
            })
            .collect();

        // Out targets with precomputed receiver substream indices.
        let out_targets: Vec<Vec<OutTarget>> = (0..n)
            .map(|t| {
                let mut outs = Vec::new();
                for (stream, ostream) in graph.outputs(TaskIndex(t)).iter().enumerate() {
                    for &d in &ostream.targets {
                        let to_substream = sub_from[d.0]
                            .iter()
                            .position(|&(s, u)| {
                                u == TaskIndex(t) && graph.inputs(d)[s].edge == ostream.edge
                            })
                            .expect("substream layout mismatch");
                        outs.push(OutTarget {
                            stream,
                            to: d,
                            to_substream,
                        });
                    }
                }
                outs
            })
            .collect();

        let (plan, checkpoint_interval) = match &config.mode {
            FtMode::Ppa {
                plan,
                checkpoint_interval,
            } => (Some(plan.clone()), *checkpoint_interval),
            // Approximate ships backups on divergence, never on a timer.
            FtMode::Approximate { plan, .. } => (Some(plan.clone()), None),
            _ => (None, None),
        };
        let approx_bound = match &config.mode {
            FtMode::Approximate { error_bound, .. } => Some(*error_bound),
            _ => None,
        };
        let storm_buffer_batches = match &config.mode {
            FtMode::SourceReplay { buffer } => Some(config.batches_in(*buffer).max(1)),
            _ => None,
        };

        let mk_task = |t: usize, is_replica: bool, node: NodeId| -> TaskRt {
            let logical = TaskIndex(t);
            let op = graph.operator_of(logical);
            let local = graph.local_index(logical);
            let (udf, source): (Option<Box<dyn Udf>>, Option<Box<dyn SourceGen>>) =
                if query.is_source(op) {
                    (None, Some(query.make_source(op, local)))
                } else {
                    (Some(query.make_udf(op, local)), None)
                };
            TaskRt {
                logical,
                is_replica,
                node,
                status: Status::Running,
                udf,
                source,
                sub_from: sub_from[t].clone(),
                staged: vec![BTreeMap::new(); sub_from[t].len()],
                closed: vec![0; sub_from[t].len()],
                next_batch: 0,
                outputs_enabled: !is_replica,
                out_targets: out_targets[t].clone(),
                stream_spans: stream_spans_of(&out_targets[t]),
                out_buffer: vec![VecDeque::new(); out_targets[t].len()],
                checkpoint: None,
                pre_failure_progress: None,
                pending_sink: VecDeque::new(),
                cpu: CpuStats::default(),
                throughput: crate::report::TaskThroughput::default(),
                divergence: crate::approx::DivergenceModel::default(),
            }
        };

        let mut tasks: Vec<TaskRt> = (0..n)
            .map(|t| mk_task(t, false, placement.primary[t]))
            .collect();
        let mut replica_slot = vec![None; n];
        if let Some(plan) = &plan {
            for t in plan.iter() {
                let slot = tasks.len();
                tasks.push(mk_task(t.0, true, placement.standby[t.0]));
                replica_slot[t.0] = Some(slot);
            }
        }

        let fresh_udf: Vec<Option<Box<dyn Fn() -> Box<dyn Udf>>>> = (0..n)
            .map(|t| {
                let logical = TaskIndex(t);
                let op = graph.operator_of(logical);
                let local = graph.local_index(logical);
                if query.is_source(op) {
                    None
                } else {
                    // Rebuild a factory closure: Storm restarts need a fresh
                    // (empty-state) UDF. We capture one prototype snapshot;
                    // a fresh instance is a snapshot of the *initial* state.
                    let proto = query.make_udf(op, local);
                    Some(Box::new(move || proto.snapshot()) as Box<dyn Fn() -> Box<dyn Udf>>)
                }
            })
            .collect();

        // One spare generator per source task, for control-plane replica
        // activation (the query's factories are not storable, so spares
        // are instantiated up front; generation is pure per batch id).
        let spare_sources: Vec<Option<Box<dyn SourceGen>>> = (0..n)
            .map(|t| {
                let logical = TaskIndex(t);
                let op = graph.operator_of(logical);
                query
                    .is_source(op)
                    .then(|| query.make_source(op, graph.local_index(logical)))
            })
            .collect();

        let domain_health = placement
            .fault_domains()
            .map(|tree| DomainHealth::new(tree.n_domains(), config.health_half_life));
        let active_plan = plan.clone().unwrap_or_else(|| TaskSet::empty(n));

        let mut sim = Simulation {
            // The steady state keeps roughly one pending event per task
            // slot (plus periodic timers): pre-size the scheduler so the
            // heap and slot arena never grow mid-run.
            sched: Scheduler::with_capacity(2 * tasks.len() + 16),
            node_busy: vec![SimTime::ZERO; placement.n_nodes()],
            node_alive: vec![true; placement.n_nodes()],
            failures: Vec::new(),
            outages: Vec::new(),
            outage_of: vec![None; n],
            lifecycle: vec![Lifecycle::Healthy; n],
            recovery_setbacks: 0,
            sink: Vec::new(),
            events: 0,
            tuples_moved: 0,
            events_metered: 0,
            tuples_metered: 0,
            tasks,
            replica_slot,
            graph,
            placement,
            fresh_udf,
            spare_sources,
            storm_buffer_batches,
            replay_cones: BTreeMap::new(),
            checkpoint_interval,
            domain_health,
            active_plan,
            replica_sync_running: false,
            trace_sink: None,
            metrics: MetricsRegistry::new(),
            proxied: vec![false; n],
            chaos: Vec::new(),
            horizon: None,
            heartbeat_drops: 0,
            heartbeat_delay: None,
            restore_stall: vec![None; n],
            approx_bound,
            approx_skipped_metered: 0,
            config,
        };
        sim.bootstrap();
        sim
    }

    fn bootstrap(&mut self) {
        let b = self.config.batch_interval;
        // First batch of every source task materializes at t = B.
        for t in 0..self.graph.n_tasks() {
            if self.tasks[t].source.is_some() {
                self.sched
                    .at(SimTime::ZERO + b, Event::SourceBatch { rt: t, batch: 0 });
                if let Some(slot) = self.replica_slot[t] {
                    self.sched
                        .at(SimTime::ZERO + b, Event::SourceBatch { rt: slot, batch: 0 });
                }
            }
        }
        // Heartbeat scans.
        self.sched.at(
            SimTime::ZERO + self.config.heartbeat_interval,
            Event::HeartbeatScan,
        );
        // Proxy ticks (only meaningful in PPA with tentative outputs).
        if self.config.tentative_outputs {
            self.sched.at(SimTime::ZERO + b, Event::ProxyTick);
        }
        // Checkpoints, staggered per task so correlated recovery sees
        // asynchronous checkpoint ages (§V-B's synchronization effect).
        if let Some(interval) = self.checkpoint_interval {
            for t in 0..self.graph.n_tasks() {
                let offset = SimDuration::from_micros(
                    (t as u64).wrapping_mul(2_654_435_761) % interval.as_micros().max(1),
                );
                self.sched.at(
                    SimTime::ZERO + interval + offset,
                    Event::Checkpoint { rt: t },
                );
            }
        }
        // Replica syncs.
        if self.replica_slot.iter().any(Option::is_some) {
            self.sched.at(
                SimTime::ZERO + self.config.replica_sync_interval,
                Event::ReplicaSync,
            );
            self.replica_sync_running = true;
        }
    }

    /// Registers a failure injection (before or during a run). Malformed
    /// specs — a node the cluster does not have, an instant before the
    /// simulation's current time, a node that is already dead at injection
    /// time (e.g. the node an activated replica died on) — surface as
    /// typed [`EngineError`]s instead of panicking deep inside the event
    /// loop or silently short-circuiting at fire time. (Events injected
    /// while their nodes are still alive may still find them dead when
    /// they fire — an earlier event killed them first — and those are
    /// skipped, so replayed traces with overlapping kill sets stay valid.)
    pub fn inject(&mut self, spec: FailureSpec) -> Result<(), EngineError> {
        let now = self.sched.now();
        if spec.at < now {
            return Err(EngineError::EventInPast { at: spec.at, now });
        }
        if let Some(horizon) = self.horizon {
            if spec.at > horizon {
                return Err(EngineError::EventPastHorizon {
                    at: spec.at,
                    horizon,
                });
            }
        }
        let n_nodes = self.placement.n_nodes();
        if let Some(&node) = spec.nodes.iter().find(|&&n| n >= n_nodes) {
            return Err(EngineError::NodeOutOfRange { node, n_nodes });
        }
        if let Some(&node) = spec.nodes.iter().find(|&&n| !self.node_alive[n]) {
            return Err(EngineError::NodeAlreadyDead { node });
        }
        let at = spec.at;
        self.failures.push(spec);
        let idx = self.failures.len() - 1;
        self.sched.at(at, Event::Failure { idx });
        Ok(())
    }

    /// Registers the failure of a whole fault domain at `at`: the kill set
    /// is expanded through the placement's own node → domain mapping, so
    /// callers name the blast radius (a rack, a zone) instead of
    /// pre-expanding node lists. `Err` if the placement carries no
    /// fault-domain hierarchy.
    pub fn inject_domain(
        &mut self,
        at: SimTime,
        domain: ppa_faults::DomainId,
    ) -> Result<(), EngineError> {
        let nodes = self.placement.nodes_in_domain(domain)?;
        self.inject(FailureSpec { at, nodes })
    }

    /// Registers every event of a failure trace — the replay half of the
    /// `ppa-faults` subsystem. A trace is just an ordered, normalized
    /// sequence of [`FailureSpec`]-shaped events, so replaying the same
    /// trace twice yields identical runs.
    pub fn inject_trace(&mut self, trace: &FailureTrace) -> Result<(), EngineError> {
        for event in trace.events() {
            self.inject(FailureSpec {
                at: event.at,
                nodes: event.nodes.clone(),
            })?;
        }
        Ok(())
    }

    /// Declares the run's horizon: from here on, `inject*` and
    /// [`Simulation::inject_chaos`] reject events scheduled past it with
    /// [`EngineError::EventPastHorizon`] instead of silently accepting
    /// events that would never fire. Opt-in — harnesses that extend a
    /// run with repeated `drive` calls leave it unset.
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = Some(horizon);
    }

    /// Registers a chaos injection (buggify point). The same validation
    /// discipline as [`Simulation::inject`]: malformed specs — an instant
    /// before the current virtual time or past the declared horizon, a
    /// task the query does not have — surface as typed [`ChaosError`]s at
    /// injection time. A run whose chaos schedule is empty is
    /// byte-identical to a run made before this subsystem existed.
    pub fn inject_chaos(&mut self, spec: ChaosSpec) -> Result<(), ChaosError> {
        let now = self.sched.now();
        if spec.at < now {
            return Err(EngineError::EventInPast { at: spec.at, now }.into());
        }
        if let Some(horizon) = self.horizon {
            if spec.at > horizon {
                return Err(EngineError::EventPastHorizon {
                    at: spec.at,
                    horizon,
                }
                .into());
            }
        }
        let n_tasks = self.graph.n_tasks();
        if let Some(task) = spec.kind.task() {
            if task >= n_tasks {
                return Err(ChaosError::TaskOutOfRange { task, n_tasks });
            }
        }
        let at = spec.at;
        self.chaos.push(spec);
        let idx = self.chaos.len() - 1;
        self.sched.at(at, Event::Chaos { idx });
        Ok(())
    }

    /// Fires one registered chaos injection: arms the targeted buggify
    /// state (consumed by the heartbeat / restore paths) or perturbs the
    /// run directly.
    fn on_chaos(&mut self, idx: usize) {
        self.metrics.inc("engine.chaos.fired");
        match self.chaos[idx].kind.clone() {
            ChaosKind::HeartbeatDrop { scans } => {
                self.heartbeat_drops = self.heartbeat_drops.saturating_add(scans);
            }
            ChaosKind::HeartbeatDelay { by } => {
                let total = self.heartbeat_delay.unwrap_or(SimDuration::ZERO) + by;
                self.heartbeat_delay = Some(total);
            }
            ChaosKind::HeartbeatDuplicate => {
                // An extra scan outside the cadence: detection must be
                // idempotent under it.
                self.heartbeat_scan();
            }
            ChaosKind::RestoreStall { task, by } => {
                let stall = self.restore_stall[task].unwrap_or(SimDuration::ZERO) + by;
                self.restore_stall[task] = Some(stall);
            }
            ChaosKind::RestoreVoid { task } => {
                // Losing the restore target mid-load is exactly a death
                // of the restoring incarnation: the open outage is
                // re-armed (detection void, setback counted) and the
                // stale scheduled completion will find the task no
                // longer `Restoring` and void itself.
                if self.tasks[task].status == Status::Restoring {
                    let now = self.sched.now();
                    self.tasks[task].status = Status::Dead;
                    self.open_outage(task, now);
                }
            }
        }
    }

    /// Runs the simulation until virtual time `until` and returns the report.
    pub fn run_until(&mut self, until: SimTime) -> RunReport {
        while self.step_until(until).is_some() {}
        self.report_at(until)
    }

    /// The report of everything measured so far, ended at `until`.
    fn report_at(&self, until: SimTime) -> RunReport {
        RunReport {
            // The backward-compatible one-failure-per-task view: each
            // task's FIRST outage, in first-failure order (identical to
            // the historical `recoveries` for single-failure runs).
            recoveries: self
                .outages
                .iter()
                .map(|o| {
                    let first = &o.records[0];
                    TaskRecovery {
                        task: o.task,
                        via_replica: first.via_replica,
                        failed_at: first.failed_at,
                        detected_at: first.detected_at,
                        recovered_at: first.recovered_at,
                    }
                })
                .collect(),
            outages: self.outages.clone(),
            sink: self.sink.clone(),
            cpu: self.tasks[..self.graph.n_tasks()]
                .iter()
                .map(|t| t.cpu)
                .collect(),
            throughput: self.tasks[..self.graph.n_tasks()]
                .iter()
                .map(|t| t.throughput)
                .collect(),
            events: self.events,
            tuples_moved: self.tuples_moved,
            ended_at: until,
        }
    }

    /// Convenience: build, inject, run. A thin wrapper over
    /// [`Simulation::drive`] with a [`StaticPolicy`] (parity-tested
    /// byte-identical to the historical direct implementation).
    pub fn run(
        query: &Query,
        placement: Placement,
        config: EngineConfig,
        failures: Vec<FailureSpec>,
        duration: SimDuration,
    ) -> RunReport {
        let mut sim = Simulation::new(query, placement, config);
        sim.drive(
            &FaultFeed::from_specs(failures),
            &mut StaticPolicy,
            SimTime::ZERO + duration,
        )
        .expect("failure specs must name nodes of this cluster")
        .report
    }

    /// Convenience: build, replay a failure trace, run. A thin wrapper
    /// over [`Simulation::drive`] with a [`StaticPolicy`].
    pub fn run_trace(
        query: &Query,
        placement: Placement,
        config: EngineConfig,
        trace: &FailureTrace,
        duration: SimDuration,
    ) -> RunReport {
        let mut sim = Simulation::new(query, placement, config);
        sim.drive(
            &FaultFeed::from_trace(trace.clone()),
            &mut StaticPolicy,
            SimTime::ZERO + duration,
        )
        .expect("trace events must name nodes of this cluster")
        .report
    }

    /// The control-plane run loop: resolves `feed` against the placement
    /// into one ordered failure trace, injects it, and runs the event
    /// loop until `until` with `policy` in the loop — its failure hook
    /// fires right after every failure event, its epoch hook at every
    /// `epoch_interval` boundary, and the returned [`ControlAction`]s are
    /// applied immediately (migration/activation state shipping is
    /// charged at the hook's virtual time).
    ///
    /// With a [`StaticPolicy`] (no hooks, no actions) the produced
    /// [`RunReport`] is byte-identical to the legacy `run`/`run_trace`
    /// paths — the policy sits outside the event stream until it acts.
    pub fn drive(
        &mut self,
        feed: &FaultFeed,
        policy: &mut dyn ControlPolicy,
        until: SimTime,
    ) -> Result<DriveReport, EngineError> {
        let trace = feed.resolve(&self.placement)?;
        self.inject_trace(&trace)?;
        let mut actions: Vec<ActionRecord> = Vec::new();
        let mut control_cpu = SimDuration::ZERO;
        // A zero interval could never advance past `until`; treat it as
        // "no epoch hook" rather than hanging the loop.
        let epoch = policy.epoch_interval().filter(|e| !e.is_zero());
        let mut next_epoch = epoch.map(|e| SimTime::ZERO + e);
        loop {
            let deadline = match next_epoch {
                Some(e) if e < until => e,
                _ => until,
            };
            while let Some(failure) = self.step_until(deadline) {
                if failure {
                    let now = self.sched.now();
                    let acts = policy.on_failure(&self.health_view(now));
                    self.apply_actions(now, acts, &mut actions, &mut control_cpu);
                }
            }
            match next_epoch {
                Some(e) if e < until => {
                    let scores: Vec<(usize, f64)> = self
                        .domain_health
                        .as_ref()
                        .map(|h| h.snapshot(e).into_iter().enumerate().collect())
                        .unwrap_or_default();
                    self.note(e, EngineEvent::EpochHealthSnapshot { scores });
                    let acts = policy.on_epoch(&self.health_view(e));
                    self.apply_actions(e, acts, &mut actions, &mut control_cpu);
                    next_epoch = Some(e + epoch.expect("next_epoch implies an interval"));
                }
                _ => break,
            }
        }
        // Flush throughput counters into the metrics registry as deltas,
        // so a repeated drive over the same simulation never double-adds.
        self.metrics
            .add("engine.events.processed", self.events - self.events_metered);
        self.events_metered = self.events;
        self.metrics.add(
            "engine.tuples.moved",
            self.tuples_moved - self.tuples_metered,
        );
        self.tuples_metered = self.tuples_moved;
        // Approximate-only: flush the tasks' skipped-backup tallies. Gated
        // on the mode so exact runs never grow a zero-valued extra metric
        // (their DriveReports must stay byte-identical to pre-approximate
        // builds).
        if self.approx_bound.is_some() {
            let skipped: u64 = self.tasks.iter().map(|t| t.divergence.skipped()).sum();
            self.metrics.add(
                "engine.approx.backups_skipped",
                skipped - self.approx_skipped_metered,
            );
            self.approx_skipped_metered = skipped;
        }
        Ok(DriveReport {
            report: self.report_at(until),
            actions,
            control_cpu,
            metrics: self.metrics.snapshot(),
            trace,
        })
    }

    /// The cluster's health as a policy sees it at `at`: the placement's
    /// fault-domain tree, every domain's time-decayed failure score, and
    /// every task's lifecycle state + outage count — so policies observe
    /// re-failures as first-class events, not just node deaths.
    pub fn health_view(&self, at: SimTime) -> HealthView<'_> {
        HealthView::new(
            at,
            self.placement.fault_domains(),
            self.domain_health
                .as_ref()
                .map(|h| h.snapshot(at))
                .unwrap_or_default(),
            self.lifecycle.clone(),
            self.outage_of
                .iter()
                .map(|o| o.map_or(0, |i| self.outages[i].records.len()))
                .collect(),
            self.recovery_setbacks,
        )
    }

    /// The currently adopted active-replication plan.
    pub fn active_plan(&self) -> &TaskSet {
        &self.active_plan
    }

    /// The lifecycle state of every logical task, indexed by task.
    pub fn lifecycles(&self) -> &[Lifecycle] {
        &self.lifecycle
    }

    /// Attaches a trace sink: every subsequent lifecycle transition is
    /// recorded into it as a typed [`EngineEvent`] at its simulated
    /// instant. Replaces any previously attached sink.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace_sink = Some(sink);
    }

    /// Detaches and returns the attached trace sink, if any — the way a
    /// harness gets its buffered events back after a drive.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace_sink.take()
    }

    /// A name-ordered snapshot of the run's metrics so far.
    pub fn metrics_snapshot(&self) -> ppa_obs::MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Records one lifecycle transition: always into the metrics
    /// registry, and into the trace sink when one is attached. `at` is
    /// the transition's *semantic* instant — a recovery completes at a
    /// CPU horizon that can run ahead of the event-loop clock.
    fn note(&mut self, at: SimTime, event: EngineEvent) {
        match &event {
            EngineEvent::FailureInjected { nodes } => {
                self.metrics.inc("engine.failures.waves");
                self.metrics
                    .add("engine.failures.nodes_killed", nodes.len() as u64);
            }
            EngineEvent::OutageOpened { refail, .. } => {
                self.metrics.inc("engine.outages.opened");
                if *refail {
                    self.metrics.inc("engine.outages.refails");
                    self.metrics.inc("engine.recovery.setbacks");
                }
            }
            EngineEvent::RecoverySetback { .. } => {
                self.metrics.inc("engine.recovery.setbacks");
            }
            EngineEvent::OutageDetected { .. } => self.metrics.inc("engine.outages.detected"),
            EngineEvent::RestoreStarted { .. } => self.metrics.inc("engine.restores.started"),
            EngineEvent::RestoreDone { .. } => self.metrics.inc("engine.recoveries.via_restore"),
            EngineEvent::RestoreVoided { .. } => self.metrics.inc("engine.restores.voided"),
            EngineEvent::ReplicaActivated { .. } => {
                self.metrics.inc("engine.recoveries.via_replica");
            }
            EngineEvent::TentativeResumed { .. } => self.metrics.inc("engine.tentative.resumed"),
            EngineEvent::ApproxBackupShipped { .. } => {
                self.metrics.inc("engine.approx.backups_shipped");
            }
            EngineEvent::ApproxRecovery { divergence, .. } => {
                self.metrics
                    .add("engine.approx.divergence_at_recovery", *divergence);
            }
            EngineEvent::ReplanAdopted { plan_size, .. } => {
                self.metrics.inc("engine.control.replans");
                self.metrics
                    .set_gauge("engine.plan.active_replicas", *plan_size as f64);
            }
            EngineEvent::MigrationScheduled { .. } => self.metrics.inc("engine.control.migrations"),
            EngineEvent::ControlNoEffect { .. } => self.metrics.inc("engine.control.no_effect"),
            EngineEvent::EpochHealthSnapshot { scores } => {
                self.metrics.inc("engine.epochs");
                for &(_, score) in scores {
                    self.metrics
                        .max_gauge("engine.health.max_domain_score", score);
                }
            }
        }
        if let Some(sink) = self.trace_sink.as_mut() {
            sink.record(at, &event);
        }
    }

    // ------------------------------------------------------------------
    // Outage bookkeeping: the replica lifecycle state machine
    // ------------------------------------------------------------------

    /// The current (most recent) outage record of task `t`.
    fn current_outage(&self, t: usize) -> Option<&OutageRecord> {
        self.outage_of[t].and_then(|i| self.outages[i].records.last())
    }

    fn current_outage_mut(&mut self, t: usize) -> Option<&mut OutageRecord> {
        let i = self.outage_of[t]?;
        self.outages[i].records.last_mut()
    }

    /// Opens (or re-arms) an outage for task `t`: a healthy or recovered
    /// task gets a fresh record (`Failed` / `ReFailed`); a task dying
    /// again mid-recovery keeps its open record but loses its detection —
    /// the master must re-detect and restart the recovery path.
    fn open_outage(&mut self, t: usize, now: SimTime) {
        let idx = match self.outage_of[t] {
            Some(i) => i,
            None => {
                let i = self.outages.len();
                self.outages.push(TaskOutages {
                    task: TaskIndex(t),
                    records: Vec::new(),
                });
                self.outage_of[t] = Some(i);
                i
            }
        };
        let records = &mut self.outages[idx].records;
        let (rearmed, refail) = match records.last_mut() {
            Some(last) if last.open() => {
                // Died again mid-recovery: the outage continues, but the
                // recovery path (and any pending takeover) is void.
                last.detected_at = SimTime::MAX;
                last.via_replica = false;
                (true, false)
            }
            _ => {
                records.push(OutageRecord {
                    via_replica: false,
                    failed_at: now,
                    detected_at: SimTime::MAX,
                    recovered_at: None,
                    fidelity_floor: None,
                });
                (false, records.len() > 1)
            }
        };
        let n_records = records.len();
        if rearmed || refail {
            self.recovery_setbacks += 1;
        }
        self.lifecycle[t] = if n_records > 1 {
            Lifecycle::ReFailed
        } else {
            Lifecycle::Failed
        };
        if rearmed {
            self.note(now, EngineEvent::RecoverySetback { task: t });
        } else {
            // A fresh record: its first proxied output is still to come.
            self.proxied[t] = false;
            self.note(now, EngineEvent::OutageOpened { task: t, refail });
        }
    }

    /// Marks task `t`'s current outage recovered at `at` (idempotent per
    /// outage) and moves its lifecycle to `Recovered`. The single funnel
    /// every recovery path closes through, so exactly one closing event
    /// (`ReplicaActivated` or `RestoreDone`) is recorded per record.
    fn mark_recovered(&mut self, t: usize, at: SimTime) {
        let mut closed = None;
        if let Some(rec) = self.current_outage_mut(t) {
            if rec.recovered_at.is_none() {
                rec.recovered_at = Some(at);
                closed = Some((rec.via_replica, rec.failed_at));
            }
            self.lifecycle[t] = Lifecycle::Recovered;
        }
        if let Some((via_replica, failed_at)) = closed {
            self.metrics.observe(
                "engine.recovery.latency_us",
                LATENCY_BUCKETS_US,
                at.since(failed_at).as_micros(),
            );
            let event = if via_replica {
                EngineEvent::ReplicaActivated { task: t }
            } else {
                EngineEvent::RestoreDone { task: t }
            };
            self.note(at, event);
        }
    }

    /// The task graph the simulation runs.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The placement the cluster currently runs under — control-plane
    /// migrations rewrite it, so mid-`drive` this reflects where tasks
    /// actually are (including the node → fault-domain mapping).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    // ------------------------------------------------------------------
    // Control plane: applying policy actions
    // ------------------------------------------------------------------

    fn apply_actions(
        &mut self,
        at: SimTime,
        acts: Vec<ControlAction>,
        out: &mut Vec<ActionRecord>,
        control_cpu: &mut SimDuration,
    ) {
        for act in acts {
            let outcome = match act {
                ControlAction::Replan { budget } => self.apply_replan(budget, at, control_cpu),
                ControlAction::MigrateTasks { domains } => {
                    self.apply_migration(&domains, at, control_cpu)
                }
            };
            if let ActionOutcome::NoEffect { action, reason } = &outcome {
                let (action, reason) = (*action, *reason);
                self.note(at, EngineEvent::ControlNoEffect { action, reason });
            }
            out.push(ActionRecord { at, outcome });
        }
    }

    /// Reserves control-plane work on `node` starting no earlier than the
    /// acting hook's virtual time `at` (an epoch boundary can lie between
    /// events, past the scheduler clock — the shipped state must not
    /// complete before the decision that ordered it).
    fn reserve_from(&mut self, node: NodeId, work: SimDuration, at: SimTime) -> SimTime {
        let start = self.node_busy[node].max(self.sched.now()).max(at);
        let finish = start + work;
        self.node_busy[node] = finish;
        finish
    }

    /// Re-plans active replication through `AdaptivePlanner::step` (§V-C
    /// hysteresis) against a context derived from the placement's
    /// *current* node → domain mapping, then reconciles running replicas
    /// with the adopted plan: replicas that fell out are torn down, and
    /// every planned task without a live replica gets one established —
    /// including re-establishing replicas the failures destroyed, which
    /// is what lets a drive recover tasks whose primary *and* standby
    /// died together.
    fn apply_replan(
        &mut self,
        budget: usize,
        at: SimTime,
        control_cpu: &mut SimDuration,
    ) -> ActionOutcome {
        if !matches!(
            self.config.mode,
            FtMode::Ppa { .. } | FtMode::Approximate { .. }
        ) {
            return ActionOutcome::NoEffect {
                action: "replan",
                reason: "replication plans only exist under FtMode::Ppa",
            };
        }
        let cx = match self.placement.plan_context(self.graph.topology()) {
            Ok(cx) => cx,
            Err(_) => {
                return ActionOutcome::NoEffect {
                    action: "replan",
                    reason: "placement carries no fault-domain mapping to plan against",
                }
            }
        };
        // Live health enters the objective: alongside the hypothetical
        // per-domain failure sets, the *currently dead* tasks form one
        // more candidate set — a plan that abandons an already-down task
        // is scored as losing it, so replans keep covering the actual
        // outage while re-hedging the surviving domains. A task in an
        // open outage counts as dead even while its restore is replaying:
        // a re-failed task (its activated replica died) is in exactly
        // this position, and the replan is what re-establishes its way
        // back.
        let n = self.graph.n_tasks();
        let dead = TaskSet::from_tasks(
            n,
            (0..n)
                .filter(|&t| {
                    self.tasks[t].status == Status::Dead
                        || self.current_outage(t).is_some_and(OutageRecord::open)
                })
                .map(TaskIndex),
        );
        let cx = if dead.is_empty() {
            cx
        } else {
            let mut sets = cx.failure_sets().unwrap_or_default().to_vec();
            sets.push(dead.clone());
            cx.with_failure_sets(sets)
        };
        let planner = AdaptivePlanner::new(StructureAwarePlanner::default());
        let step = match planner.step(&cx, &self.active_plan, budget) {
            Ok(step) => step,
            Err(_) => {
                return ActionOutcome::NoEffect {
                    action: "replan",
                    reason: "planner rejected the placement-derived context",
                }
            }
        };
        let mut adopted = step.plan.tasks;
        let mut deactivated = 0;
        for t in step.deactivate.iter() {
            if self.deactivate_replica(t.0) {
                deactivated += 1;
            } else if self.replica_slot[t.0].is_some() {
                // Kept (e.g. a dead task's only way back): the adopted
                // plan must reflect what actually runs.
                adopted.insert(t);
            }
        }
        let mut activated = 0;
        for t in adopted.iter() {
            if self.activate_replica(t.0, at, control_cpu) {
                activated += 1;
            }
        }
        self.active_plan = adopted;
        self.note(
            at,
            EngineEvent::ReplanAdopted {
                activated,
                deactivated,
                plan_size: self.active_plan.len(),
            },
        );
        ActionOutcome::Replanned {
            activated,
            deactivated,
        }
    }

    /// Evacuates primaries and standbys off `domains` per
    /// [`plan_evacuation`], rewiring the running tasks and charging each
    /// move's state ship to the destination node.
    fn apply_migration(
        &mut self,
        domains: &[ppa_faults::DomainId],
        at: SimTime,
        control_cpu: &mut SimDuration,
    ) -> ActionOutcome {
        let moves = match plan_evacuation(&self.placement, domains, &self.node_alive) {
            Ok(moves) => moves,
            Err(_) => {
                return ActionOutcome::NoEffect {
                    action: "migrate",
                    reason: "placement carries no fault-domain mapping to evacuate",
                }
            }
        };
        let (planned_primaries, planned_standbys) = move_counts(&moves);
        let mut primaries = 0;
        let mut standbys = 0;
        for m in moves {
            let t = m.task.0;
            match m.role {
                MoveRole::Primary => {
                    // Only live incarnations move; a dead task's comeback
                    // is the recovery path's job.
                    if matches!(self.tasks[t].status, Status::Dead | Status::Restoring) {
                        continue;
                    }
                    let work = self.state_ship_work(self.tasks[t].state_tuples());
                    self.reserve_from(m.to, work, at);
                    *control_cpu += work;
                    self.tasks[t].node = m.to;
                    self.placement.primary[t] = m.to;
                    primaries += 1;
                }
                MoveRole::Standby => {
                    self.placement.standby[t] = m.to;
                    standbys += 1;
                    // A live muted replica follows its standby slot.
                    if let Some(slot) = self.replica_slot[t] {
                        if self.tasks[slot].status == Status::Running
                            && self.tasks[slot].node == m.from
                        {
                            let work = self.state_ship_work(self.tasks[slot].state_tuples());
                            self.reserve_from(m.to, work, at);
                            *control_cpu += work;
                            self.tasks[slot].node = m.to;
                        }
                    }
                }
            }
        }
        self.note(
            at,
            EngineEvent::MigrationScheduled {
                planned_primaries,
                planned_standbys,
                moved_primaries: primaries,
                moved_standbys: standbys,
            },
        );
        ActionOutcome::Migrated {
            primaries,
            standbys,
        }
    }

    /// CPU to ship `state` tuples of operator state to another node.
    fn state_ship_work(&self, state: usize) -> SimDuration {
        self.config.costs.state_load_per_tuple * state as u64 + self.config.costs.batch_overhead
    }

    /// Establishes an active replica for task `t` on its standby node,
    /// initialized from the live primary (state ship) or, when the
    /// primary is down, from its last checkpoint. Returns whether a new
    /// replica was created — `false` when one is already live or the
    /// standby node is dead.
    fn activate_replica(&mut self, t: usize, at: SimTime, control_cpu: &mut SimDuration) -> bool {
        let old_slot = self.replica_slot[t];
        if let Some(slot) = old_slot {
            if self.tasks[slot].status != Status::Dead {
                return false; // already live
            }
        }
        let standby = self.placement.standby[t];
        if !self.node_alive[standby] {
            return false;
        }
        let is_source = self.tasks[t].source.is_some();
        let source = if is_source {
            // The spare generator, or the one trapped in a previous
            // replica slot that died with its node (generation is a pure
            // function of the batch id, so reuse is safe).
            match self.spare_sources[t]
                .take()
                .or_else(|| old_slot.and_then(|slot| self.tasks[slot].source.take()))
            {
                Some(s) => Some(s),
                None => return false,
            }
        } else {
            None
        };

        // State to seed the replica with: the live primary's snapshot
        // (replica sync), else the last checkpoint (the §V-C "initialized
        // from their checkpoints" path), else a fresh empty UDF.
        let primary_alive = matches!(self.tasks[t].status, Status::Running | Status::CatchingUp);
        let (udf, next_batch, closed) = if is_source {
            // A source replica must pick up exactly where the stream
            // last materialized: a dead primary's in-flight batch would
            // otherwise be a permanent hole downstream (the task counts
            // as recovered, so nothing proxies the missing punctuation).
            let start = if primary_alive {
                self.tasks[t].next_batch
            } else {
                self.tasks[t]
                    .pre_failure_progress
                    .unwrap_or_else(|| self.current_batch())
            };
            (None, start, Vec::new())
        } else if primary_alive {
            let task = &self.tasks[t];
            (
                task.udf.as_ref().map(|u| u.snapshot()),
                task.next_batch,
                task.closed.clone(),
            )
        } else if let Some(cp) = &self.tasks[t].checkpoint {
            (
                cp.udf.as_ref().map(|u| u.snapshot()),
                cp.batch,
                cp.closed.clone(),
            )
        } else {
            (
                self.fresh_udf[t].as_ref().map(|f| f()),
                0,
                vec![0; self.tasks[t].n_substreams()],
            )
        };

        let state = udf.as_ref().map_or(0, |u| u.state_tuples());
        let work = self.state_ship_work(state);
        let finish = self.reserve_from(standby, work, at);
        *control_cpu += work;

        let logical = TaskIndex(t);
        let replica = TaskRt {
            logical,
            is_replica: true,
            node: standby,
            status: Status::Running,
            udf,
            source,
            sub_from: self.tasks[t].sub_from.clone(),
            staged: vec![BTreeMap::new(); self.tasks[t].n_substreams()],
            closed: if is_source { Vec::new() } else { closed },
            next_batch,
            outputs_enabled: false,
            out_targets: self.tasks[t].out_targets.clone(),
            stream_spans: self.tasks[t].stream_spans.clone(),
            out_buffer: vec![VecDeque::new(); self.tasks[t].out_targets.len()],
            checkpoint: None,
            pre_failure_progress: None,
            pending_sink: VecDeque::new(),
            cpu: CpuStats::default(),
            throughput: crate::report::TaskThroughput::default(),
            divergence: crate::approx::DivergenceModel::default(),
        };
        let slot = self.tasks.len();
        self.tasks.push(replica);
        self.replica_slot[t] = Some(slot);

        if is_source {
            // Regenerate the backlog immediately (deterministic per
            // batch id, muted into the output buffer — the takeover
            // flush re-serves it), then join the cadence at the next
            // batch boundary.
            let current = self.current_batch();
            for b in next_batch..current {
                self.generate_source_batch(slot, b, true);
            }
            let b = current.max(next_batch);
            let due = SimTime::ZERO + self.config.batch_interval * (b + 1);
            self.sched.at(
                due.max(self.sched.now()).max(at),
                Event::SourceBatch { rt: slot, batch: b },
            );
        } else {
            // Ask live upstreams to re-serve everything at or past the
            // replica's cursor so it can catch up (downstream primaries
            // deduplicate the copies they also receive).
            let at = finish + self.config.costs.network_latency;
            let upstreams: Vec<TaskIndex> =
                self.tasks[slot].sub_from.iter().map(|&(_, u)| u).collect();
            for u in upstreams {
                let sender = self.active_slot(u.0);
                if matches!(
                    self.tasks[sender].status,
                    Status::Running | Status::CatchingUp
                ) {
                    self.resend_buffered(sender, logical, next_batch, at);
                }
            }
        }

        // Keep the replica-sync trims flowing.
        if !self.replica_sync_running {
            self.sched
                .after(self.config.replica_sync_interval, Event::ReplicaSync);
            self.replica_sync_running = true;
        }

        // A replica established for a dead, already-detected task is a
        // late takeover: schedule it once the state ship lands. This also
        // covers a task whose *previous* activated replica died — its
        // current (re-failure) outage, once detected, is closed by this
        // replica's takeover. A not-yet-detected outage waits for the
        // heartbeat scan, whose start_recovery finds this replica running.
        if self.tasks[t].status == Status::Dead
            && self.current_outage(t).is_some_and(OutageRecord::detected)
        {
            self.sched.at(finish, Event::TakeoverDone { logical: t });
        }
        true
    }

    /// Tears down task `t`'s muted replica (a replica that already took
    /// over is the task's active incarnation and is left alone, as is
    /// the muted replica of a dead primary — it is the task's only way
    /// back). Returns whether a replica was removed.
    fn deactivate_replica(&mut self, t: usize) -> bool {
        let Some(slot) = self.replica_slot[t] else {
            return false;
        };
        if self.tasks[slot].outputs_enabled {
            return false; // serving as the active incarnation
        }
        if self.tasks[t].status == Status::Dead && self.tasks[slot].status == Status::Running {
            return false; // the dead primary's pending takeover path
        }
        let task = &mut self.tasks[slot];
        task.status = Status::Dead;
        for s in &mut task.staged {
            s.clear();
        }
        for q in &mut task.out_buffer {
            q.clear();
        }
        task.pending_sink.clear();
        if let Some(source) = task.source.take() {
            self.spare_sources[t] = Some(source);
        }
        self.replica_slot[t] = None;
        true
    }

    // ------------------------------------------------------------------
    // CPU accounting
    // ------------------------------------------------------------------

    /// Reserves `work` on `node` starting no earlier than now; returns the
    /// completion instant.
    fn reserve(&mut self, node: NodeId, work: SimDuration) -> SimTime {
        let start = self.node_busy[node].max(self.sched.now());
        let finish = start + work;
        self.node_busy[node] = finish;
        finish
    }

    // ------------------------------------------------------------------
    // The event loop
    // ------------------------------------------------------------------

    /// What a data-plane handler in [`lane`] works against for slot `rt`:
    /// the context, the task and its node's CPU horizon.
    fn lane(&mut self, rt: Rt) -> (lane::LaneCtx<'_>, &mut TaskRt, &mut SimTime) {
        let task = &mut self.tasks[rt];
        let busy = &mut self.node_busy[task.node];
        let cx = lane::LaneCtx {
            graph: &self.graph,
            config: &self.config,
            replica_slot: &self.replica_slot,
            storm_buffer_batches: self.storm_buffer_batches,
            replay_cones: &self.replay_cones,
            sched: &mut self.sched,
            sink: &mut self.sink,
            tuples_moved: &mut self.tuples_moved,
        };
        (cx, task, busy)
    }

    /// Fires the next event at or before `deadline`. Returns `None` when
    /// nothing fires, else whether a failure event fired (the
    /// control-plane hook trigger).
    fn step_until(&mut self, deadline: SimTime) -> Option<bool> {
        let (_, ev) = self.sched.next_until(deadline)?;
        self.events += 1;
        let failure = matches!(ev, Event::Failure { .. });
        self.handle(ev);
        Some(failure)
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::SourceBatch { rt, batch } => self.on_source_batch(rt, batch),
            Event::Deliver {
                to,
                substream,
                batch,
                msg,
            } => self.on_deliver(to, substream, batch, msg),
            Event::Checkpoint { rt } => self.on_checkpoint(rt),
            Event::ReplicaSync => self.on_replica_sync(),
            Event::HeartbeatScan => self.on_heartbeat(),
            Event::Failure { idx } => self.on_failure(idx),
            Event::RestoreDone { rt } => self.on_restore_done(rt),
            Event::TakeoverDone { logical } => self.on_takeover_done(logical),
            Event::ProxyTick => self.on_proxy_tick(),
            Event::ApproxShip { rt } => self.on_approx_ship(rt),
            Event::Chaos { idx } => self.on_chaos(idx),
        }
    }

    // ------------------------------------------------------------------
    // Sources
    // ------------------------------------------------------------------

    fn on_source_batch(&mut self, rt: Rt, batch: u64) {
        let (mut cx, task, busy) = self.lane(rt);
        lane::source_batch(&mut cx, rt, task, busy, batch);
    }

    /// Generates one source batch; `regen` marks catch-up regeneration.
    fn generate_source_batch(&mut self, rt: Rt, batch: u64, regen: bool) {
        let (mut cx, task, busy) = self.lane(rt);
        lane::generate(&mut cx, task, busy, batch, regen);
    }

    // ------------------------------------------------------------------
    // Delivery + processing
    // ------------------------------------------------------------------

    fn on_deliver(&mut self, to: Rt, substream: usize, batch: u64, msg: Msg) {
        let (mut cx, task, busy) = self.lane(to);
        let caught_up = lane::deliver(&mut cx, task, busy, substream, batch, msg);
        self.close_catch_up(to, caught_up);
    }

    /// Processes as many consecutive ready batches as possible.
    fn try_process(&mut self, rt: Rt) {
        let (mut cx, task, busy) = self.lane(rt);
        let caught_up = lane::try_process(&mut cx, task, busy);
        self.close_catch_up(rt, caught_up);
    }

    /// Closes slot `rt`'s outage if its handler completed the catch-up.
    fn close_catch_up(&mut self, rt: Rt, caught_up: Option<SimTime>) {
        if let Some(at) = caught_up {
            self.mark_recovered(self.tasks[rt].logical.0, at);
        }
    }

    // ------------------------------------------------------------------
    // Checkpoints
    // ------------------------------------------------------------------

    fn on_checkpoint(&mut self, rt: Rt) {
        if let Some(interval) = self.checkpoint_interval {
            self.sched.after(interval, Event::Checkpoint { rt });
        }
        if self.tasks[rt].status != Status::Running {
            return;
        }
        self.ship_state_backup(rt);
    }

    /// Approximate mode: batch processing saw the task's drift cross the
    /// error bound at a batch boundary and scheduled this ship. A ship that
    /// arrives after the task died (or after an earlier ship already
    /// consumed the arm) is stale and must *not* fire — the unconsumed
    /// drift is exactly the divergence a lossy recovery will forfeit.
    fn on_approx_ship(&mut self, rt: Rt) {
        if self.tasks[rt].status != Status::Running || !self.tasks[rt].divergence.is_armed() {
            return;
        }
        self.ship_state_backup(rt);
        let drift = self.tasks[rt].divergence.shipped();
        let task = self.tasks[rt].logical.0;
        self.note(
            self.sched.now(),
            EngineEvent::ApproxBackupShipped {
                task,
                divergence: drift,
            },
        );
    }

    /// Bills and takes one state backup of slot `rt`: the body shared by
    /// interval checkpoints and divergence-triggered approximate ships
    /// (same CPU charge, same snapshot contents, same upstream trims).
    fn ship_state_backup(&mut self, rt: Rt) {
        let state_tuples = self.tasks[rt].udf.as_ref().map_or(0, |u| u.state_tuples());
        // Delta checkpoints serialize only what changed since the last
        // snapshot; a sliding window turns over ~interval×rate tuples, so
        // the billable size is the state growth plus churn, capped by the
        // full state.
        let billable = if self.config.costs.delta_checkpoints {
            let prev = self.tasks[rt]
                .checkpoint
                .as_ref()
                .map_or(0, |cp| cp.state_tuples);
            let interval_batches = self
                .checkpoint_interval
                .map_or(1, |i| self.config.batches_in(i).max(1));
            // Mean per-batch inflow from the task's own throughput counter.
            let batches = self.tasks[rt].next_batch.max(1);
            let per_batch = self.tasks[rt].throughput.tuples_in / batches;
            let churn = (per_batch * interval_batches) as usize;
            state_tuples.min(state_tuples.saturating_sub(prev) + churn)
        } else {
            state_tuples
        };
        let work = self.config.costs.checkpoint_base
            + self.config.costs.checkpoint_per_state_tuple * billable as u64;
        let node = self.tasks[rt].node;
        let _finish = self.reserve(node, work);
        self.tasks[rt].cpu.checkpoint += work;

        let task = &self.tasks[rt];
        let cp = Checkpoint {
            batch: task.next_batch,
            udf: task.udf.as_ref().map(|u| u.snapshot()),
            out_buffer: task.out_buffer.clone(),
            closed: task.closed.clone(),
            state_tuples,
        };
        let ack_batch = task.next_batch;
        let logical = task.logical;
        self.tasks[rt].checkpoint = Some(cp);

        // Upstream buffer trimming: everything this checkpoint covers can be
        // dropped from the buffers feeding this task (§V-B).
        let upstreams: Vec<TaskIndex> = self.tasks[rt].sub_from.iter().map(|&(_, u)| u).collect();
        for u in upstreams {
            self.trim_buffers_for(u.0, logical, ack_batch);
            if let Some(slot) = self.replica_slot[u.0] {
                self.trim_buffers_for(slot, logical, ack_batch);
            }
        }
    }

    /// Drops `target`-bound buffered batches below `ack_batch` on slot `rt`.
    fn trim_buffers_for(&mut self, rt: Rt, target: TaskIndex, ack_batch: u64) {
        let task = &mut self.tasks[rt];
        for (k, tgt) in task.out_targets.iter().enumerate() {
            if tgt.to != target {
                continue;
            }
            while let Some((b, _, _)) = task.out_buffer[k].front() {
                if *b < ack_batch {
                    task.out_buffer[k].pop_front();
                } else {
                    break;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Replica sync
    // ------------------------------------------------------------------

    fn on_replica_sync(&mut self) {
        self.sched
            .after(self.config.replica_sync_interval, Event::ReplicaSync);
        for t in 0..self.graph.n_tasks() {
            let Some(slot) = self.replica_slot[t] else {
                continue;
            };
            if self.tasks[t].status != Status::Running
                || self.tasks[slot].status != Status::Running
                || self.tasks[slot].outputs_enabled
            {
                continue; // primary dead / replica activated: no more trims
            }
            // The primary's sent progress lets the replica trim its muted
            // output buffer (§V-B "Active Replication").
            let ack = self.tasks[t].next_batch;
            let task = &mut self.tasks[slot];
            for q in &mut task.out_buffer {
                while let Some((b, _, _)) = q.front() {
                    if *b < ack {
                        q.pop_front();
                    } else {
                        break;
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Failure, detection, recovery
    // ------------------------------------------------------------------

    fn on_failure(&mut self, idx: usize) {
        let now = self.sched.now();
        // Only nodes actually killed by *this* event enter the record —
        // nodes an earlier trace event already took down are not listed.
        let killed: Vec<NodeId> = self.failures[idx]
            .nodes
            .clone()
            .into_iter()
            .filter(|&n| self.node_alive[n])
            .collect();
        if killed.is_empty() {
            return;
        }
        self.note(
            now,
            EngineEvent::FailureInjected {
                nodes: killed.clone(),
            },
        );
        for node in killed {
            self.node_alive[node] = false;
            self.record_domain_failure(node, now);
            for rt in 0..self.tasks.len() {
                if self.tasks[rt].node != node || self.tasks[rt].status == Status::Dead {
                    continue;
                }
                let progress = {
                    let task = &mut self.tasks[rt];
                    task.status = Status::Dead;
                    task.pre_failure_progress = Some(task.next_batch);
                    for s in &mut task.staged {
                        s.clear();
                    }
                    task.next_batch
                };
                let logical = self.tasks[rt].logical.0;
                if !self.tasks[rt].is_replica {
                    // The primary incarnation died: a first failure, a
                    // checkpoint-restored task dying again (fresh
                    // outage), or a death mid-restore (the open outage
                    // is re-armed for re-detection).
                    self.open_outage(logical, now);
                } else if self.replica_slot[logical] == Some(rt) {
                    if self.tasks[rt].outputs_enabled {
                        // An *activated* replica died: the logical task
                        // is headless again. Open a fresh outage measured
                        // against the replica's progress — re-detection,
                        // re-proxying and a fresh recovery latency follow
                        // instead of the task silently counting as
                        // recovered forever.
                        self.tasks[logical].pre_failure_progress = Some(progress);
                        self.open_outage(logical, now);
                    } else if self.tasks[logical].status == Status::Dead
                        && self
                            .current_outage(logical)
                            .is_some_and(|rec| rec.open() && rec.detected())
                    {
                        // A muted replica with a pending takeover died
                        // mid-recovery (the primary is still down and no
                        // restore is in flight): fall straight back to
                        // the passive path — the scheduled takeover will
                        // find the slot dead and do nothing.
                        if let Some(rec) = self.current_outage_mut(logical) {
                            rec.via_replica = false;
                        }
                        self.recovery_setbacks += 1;
                        self.note(now, EngineEvent::RecoverySetback { task: logical });
                        self.start_recovery(logical);
                    }
                }
            }
        }
    }

    /// Bumps the time-decayed failure score of every proper fault domain
    /// containing `node` (no-op without a node → domain mapping).
    fn record_domain_failure(&mut self, node: NodeId, at: SimTime) {
        let Some(health) = &mut self.domain_health else {
            return;
        };
        let Some(tree) = self.placement.fault_domains() else {
            return;
        };
        let mut domain = tree.domain_of(node);
        while let Some(d) = domain {
            if tree.parent_of(d).is_none() {
                break; // the root is not a proper domain
            }
            health.record(d, at);
            domain = tree.parent_of(d);
        }
    }

    fn on_heartbeat(&mut self) {
        // Buggify: a delayed master shifts this scan (and the cadence
        // behind it); a dropped scan keeps the cadence but skips the
        // scan body — detection of any open outage arrives late.
        if let Some(by) = self.heartbeat_delay.take() {
            self.sched.after(by, Event::HeartbeatScan);
            return;
        }
        self.sched
            .after(self.config.heartbeat_interval, Event::HeartbeatScan);
        if self.heartbeat_drops > 0 {
            self.heartbeat_drops -= 1;
            return;
        }
        self.heartbeat_scan();
    }

    /// The scan body: detect every task whose current outage is still
    /// undetected and start its recovery. Idempotent, so a duplicated
    /// scan (`ChaosKind::HeartbeatDuplicate`) is safe by construction.
    fn heartbeat_scan(&mut self) {
        let now = self.sched.now();
        for t in 0..self.graph.n_tasks() {
            if self.tasks[t].status != Status::Dead {
                continue;
            }
            // Detect the task's *current* outage — a re-failed task (its
            // activated replica died) re-enters here with a fresh record.
            let undetected = self
                .current_outage(t)
                .is_some_and(|rec| rec.open() && !rec.detected());
            if !undetected {
                continue; // never failed, already detected, or recovered
            }
            let mut failed_at = None;
            if let Some(rec) = self.current_outage_mut(t) {
                rec.detected_at = now;
                failed_at = Some(rec.failed_at);
            }
            if let Some(failed) = failed_at {
                self.metrics.observe(
                    "engine.outage.detection_us",
                    LATENCY_BUCKETS_US,
                    now.since(failed).as_micros(),
                );
            }
            self.note(now, EngineEvent::OutageDetected { task: t });
            self.start_recovery(t);
        }
    }

    fn start_recovery(&mut self, t: usize) {
        match &self.config.mode {
            FtMode::None => { /* stays dead */ }
            // Approximate recovers through the same machinery: replica
            // takeover when a live replica exists (lossless), else a
            // restore of the last shipped snapshot on the standby —
            // identical load cost; the completion path diverges in
            // `on_restore_done` (no replay, lossy jump to the frontier).
            FtMode::Ppa { .. } | FtMode::Approximate { .. } => {
                // Replica takeover if a live replica exists.
                if let Some(slot) = self.replica_slot[t] {
                    if self.tasks[slot].status == Status::Running {
                        let buffered = self.tasks[slot].buffered_tuples();
                        let work = self.config.costs.resend_per_tuple * buffered as u64
                            + self.config.costs.batch_overhead;
                        let node = self.tasks[slot].node;
                        let finish = self.reserve(node, work);
                        if let Some(rec) = self.current_outage_mut(t) {
                            rec.via_replica = true;
                        }
                        self.lifecycle[t] = Lifecycle::Replaying;
                        self.sched.at(finish, Event::TakeoverDone { logical: t });
                        return;
                    }
                }
                // Checkpoint restore on the standby node.
                if !self.config.passive_recovery {
                    return; // held down for steady-state tentative sampling
                }
                let Some(standby) = self.recovery_node(t) else {
                    return; // nowhere alive to restore — the outage stays open
                };
                let state = self.tasks[t]
                    .checkpoint
                    .as_ref()
                    .map_or(0, |cp| cp.state_tuples);
                let work = self.config.costs.state_load_per_tuple * state as u64
                    + self.config.costs.batch_overhead;
                self.tasks[t].status = Status::Restoring;
                self.tasks[t].node = standby;
                self.lifecycle[t] = Lifecycle::Replaying;
                let finish = self.reserve(standby, work);
                self.sched.at(finish, Event::RestoreDone { rt: t });
                let now = self.sched.now();
                self.note(
                    now,
                    EngineEvent::RestoreStarted {
                        task: t,
                        node: standby,
                    },
                );
            }
            FtMode::SourceReplay { .. } => {
                if !self.config.passive_recovery {
                    return;
                }
                let Some(standby) = self.recovery_node(t) else {
                    return; // nowhere alive to restart — the outage stays open
                };
                self.tasks[t].status = Status::Restoring;
                self.tasks[t].node = standby;
                self.lifecycle[t] = Lifecycle::Replaying;
                let work = self.config.costs.batch_overhead;
                let finish = self.reserve(standby, work);
                self.sched.at(finish, Event::RestoreDone { rt: t });
                let now = self.sched.now();
                self.note(
                    now,
                    EngineEvent::RestoreStarted {
                        task: t,
                        node: standby,
                    },
                );
            }
        }
    }

    /// The node a passive recovery restores task `t` onto: its configured
    /// standby, or — when the standby is dead too (e.g. it hosted the
    /// activated replica that just died) — the least-loaded *alive*
    /// standby-range node, standing in for the master re-assigning the
    /// task. `None` when every candidate is dead: the outage stays open
    /// instead of the task "recovering" on a dead machine (which would
    /// also make it unkillable for the rest of the run).
    fn recovery_node(&self, t: usize) -> Option<NodeId> {
        let standby = self.placement.standby[t];
        if self.node_alive[standby] {
            return Some(standby);
        }
        (self.placement.n_workers..self.placement.n_nodes())
            .filter(|&n| self.node_alive[n])
            .min_by_key(|&n| (self.node_busy[n], n))
    }

    fn on_restore_done(&mut self, rt: Rt) {
        // Buggify: a stalled state load hangs the completion; the task
        // stays `Restoring` (and its outage open) for the stall.
        if self.tasks[rt].status == Status::Restoring {
            let logical = self.tasks[rt].logical.0;
            if let Some(by) = self.restore_stall[logical].take() {
                self.sched.after(by, Event::RestoreDone { rt });
                return;
            }
        }
        // A restore whose target died again mid-load is void — the open
        // outage was re-armed and the re-detection path owns the task now
        // (resurrecting it here would run it on a dead node).
        if self.tasks[rt].status != Status::Restoring {
            let logical = self.tasks[rt].logical.0;
            let now = self.sched.now();
            self.note(now, EngineEvent::RestoreVoided { task: logical });
            return;
        }
        match &self.config.mode {
            FtMode::Ppa { .. } => self.restore_from_checkpoint(rt),
            FtMode::Approximate { .. } => self.restore_approximate(rt),
            FtMode::SourceReplay { .. } => self.restore_storm(rt),
            FtMode::None => {}
        }
    }

    fn restore_from_checkpoint(&mut self, rt: Rt) {
        let now = self.sched.now();
        let is_source = self.tasks[rt].source.is_some();
        {
            let task = &mut self.tasks[rt];
            match task.checkpoint.clone_parts() {
                Some((batch, udf, out_buffer, closed)) => {
                    task.next_batch = batch;
                    if let Some(u) = udf {
                        task.udf = Some(u);
                    }
                    task.out_buffer = out_buffer;
                    task.closed = closed;
                }
                None => {
                    // Never checkpointed: restart from scratch.
                    task.next_batch = 0;
                    for q in &mut task.out_buffer {
                        q.clear();
                    }
                    for c in &mut task.closed {
                        *c = 0;
                    }
                    if let Some(f) = &self.fresh_udf[task.logical.0] {
                        task.udf = Some(f());
                    }
                }
            }
            for s in &mut task.staged {
                s.clear();
            }
            task.status = Status::CatchingUp;
        }

        if is_source {
            // Regenerate every missed batch (deterministic per batch id),
            // then the task is caught up.
            let current = self.current_batch();
            let from = self.tasks[rt].next_batch;
            for b in from..current {
                self.generate_source_batch(rt, b, true);
            }
            self.tasks[rt].status = Status::Running;
            let logical = self.tasks[rt].logical;
            let at = self.node_busy[self.tasks[rt].node].max(now);
            self.mark_recovered(logical.0, at);
            return;
        }

        // Re-serve downstream from the restored output buffer.
        self.flush_out_buffer(rt, now + self.config.costs.network_latency);

        // Ask live upstream incarnations to replay everything at or past our
        // restore cursor; dead upstreams will re-serve on their own restore.
        let logical = self.tasks[rt].logical;
        let cursor = self.tasks[rt].next_batch;
        let upstreams: Vec<TaskIndex> = self.tasks[rt].sub_from.iter().map(|&(_, u)| u).collect();
        for u in upstreams {
            let sender = self.active_slot(u.0);
            if self.tasks[sender].status == Status::Running
                || self.tasks[sender].status == Status::CatchingUp
            {
                self.resend_buffered(
                    sender,
                    logical,
                    cursor,
                    now + self.config.costs.network_latency,
                );
            }
        }
        self.try_process(rt);
    }

    /// Approximate mode's lossy restore: load the last shipped snapshot
    /// (already billed when `RestoreDone` was scheduled), then jump
    /// straight to the stream frontier *without* replaying the gap. The
    /// batches between the snapshot and the frontier are forfeited; one
    /// cumulative proxy per out-edge closes them downstream so healthy
    /// consumers never stall waiting for output that will never come.
    /// The forfeited fidelity is quantified into the outage record's
    /// `fidelity_floor` and an `ApproxRecovery` event before the
    /// `RestoreDone` that closes the outage.
    fn restore_approximate(&mut self, rt: Rt) {
        let now = self.sched.now();
        let is_source = self.tasks[rt].source.is_some();
        {
            let task = &mut self.tasks[rt];
            match task.checkpoint.clone_parts() {
                Some((batch, udf, out_buffer, closed)) => {
                    task.next_batch = batch;
                    if let Some(u) = udf {
                        task.udf = Some(u);
                    }
                    task.out_buffer = out_buffer;
                    task.closed = closed;
                }
                None => {
                    // Never shipped: restart from scratch (the whole
                    // prefix is the forfeited gap).
                    task.next_batch = 0;
                    for q in &mut task.out_buffer {
                        q.clear();
                    }
                    for c in &mut task.closed {
                        *c = 0;
                    }
                    if let Some(f) = &self.fresh_udf[task.logical.0] {
                        task.udf = Some(f());
                    }
                }
            }
            for s in &mut task.staged {
                s.clear();
            }
            task.status = Status::CatchingUp;
        }

        if is_source {
            // Sources are deterministic per batch id: regeneration *is*
            // exact, so they recover precisely like the exact path and
            // forfeit nothing.
            let current = self.current_batch();
            let from = self.tasks[rt].next_batch;
            for b in from..current {
                self.generate_source_batch(rt, b, true);
            }
            self.tasks[rt].status = Status::Running;
            self.tasks[rt].divergence.reset();
            let logical = self.tasks[rt].logical;
            let at = self.node_busy[self.tasks[rt].node].max(now);
            self.mark_recovered(logical.0, at);
            return;
        }

        let logical = self.tasks[rt].logical;
        let frontier = self.current_batch();
        let snapshot_batch = self.tasks[rt].next_batch;
        let skipped = frontier.saturating_sub(snapshot_batch);
        {
            let task = &mut self.tasks[rt];
            task.next_batch = task.next_batch.max(frontier);
            // The forfeited gap will never arrive from upstream either:
            // close it so `ready` never waits on it.
            for c in &mut task.closed {
                *c = (*c).max(frontier);
            }
            task.status = Status::Running;
        }
        let divergence = self.tasks[rt].divergence.pending();
        self.tasks[rt].divergence.reset();

        // Re-serve downstream from the restored output buffer (batches the
        // snapshot still covers; dedup makes this idempotent), and close
        // the forfeited gap with one cumulative proxy per out-edge —
        // `Msg::Proxy` at batch `frontier - 1` unblocks consumers through
        // the frontier.
        let deliver_at = now + self.config.costs.network_latency;
        self.flush_out_buffer(rt, deliver_at);
        if frontier > 0 {
            let targets: Vec<(TaskIndex, usize)> = self.tasks[rt]
                .out_targets
                .iter()
                .map(|tgt| (tgt.to, tgt.to_substream))
                .collect();
            for (to, substream) in targets {
                self.sched.at(
                    deliver_at,
                    Event::Deliver {
                        to: to.0,
                        substream,
                        batch: frontier - 1,
                        msg: Msg::Proxy,
                    },
                );
                if let Some(slot) = self.replica_slot[to.0] {
                    self.sched.at(
                        deliver_at,
                        Event::Deliver {
                            to: slot,
                            substream,
                            batch: frontier - 1,
                            msg: Msg::Proxy,
                        },
                    );
                }
            }
        }

        // Live upstreams re-serve from the frontier on: the jump needs no
        // older input, only what the resumed task will actually process.
        let upstreams: Vec<TaskIndex> = self.tasks[rt].sub_from.iter().map(|&(_, u)| u).collect();
        for u in upstreams {
            let sender = self.active_slot(u.0);
            if self.tasks[sender].status == Status::Running
                || self.tasks[sender].status == Status::CatchingUp
            {
                self.resend_buffered(sender, logical, frontier, deliver_at);
            }
        }

        // Quantify the loss: of the batch intervals the outage spans, the
        // forfeited gap is the part whose exact output is gone for good.
        // Conservative floor in permille — the realized fidelity can only
        // be higher.
        let failed_batch = self
            .current_outage(logical.0)
            .map_or(0, |rec| rec.failed_at.as_micros())
            / self.config.batch_interval.as_micros();
        let total = frontier.saturating_sub(failed_batch).max(1);
        let forfeited = skipped.min(total);
        let floor = (1000 * (total - forfeited) / total) as u16;
        if let Some(rec) = self.current_outage_mut(logical.0) {
            rec.fidelity_floor = Some(floor);
        }
        self.note(
            now,
            EngineEvent::ApproxRecovery {
                task: logical.0,
                divergence,
                skipped_batches: skipped,
                fidelity_floor: floor,
            },
        );
        // `now` is the restore's own CPU-reserved completion instant, and
        // the frontier jump is pure bookkeeping: progress dominates here,
        // not after whatever other restores are queued on this standby.
        self.mark_recovered(logical.0, now);
        self.try_process(rt);
    }

    fn restore_storm(&mut self, rt: Rt) {
        let now = self.sched.now();
        let w = self.storm_buffer_batches.unwrap_or(1);
        let logical = self.tasks[rt].logical;
        let is_source = self.tasks[rt].source.is_some();
        {
            let task = &mut self.tasks[rt];
            let pre = task.pre_failure_progress.unwrap_or(0);
            task.next_batch = pre.saturating_sub(w);
            for q in &mut task.out_buffer {
                q.clear();
            }
            for s in &mut task.staged {
                s.clear();
            }
            for c in &mut task.closed {
                *c = task.next_batch;
            }
            if let Some(f) = &self.fresh_udf[logical.0] {
                task.udf = Some(f());
            }
            task.status = Status::CatchingUp;
        }
        if is_source {
            let current = self.current_batch();
            let from = self.tasks[rt].next_batch;
            for b in from..current {
                self.generate_source_batch(rt, b, true);
            }
            self.tasks[rt].status = Status::Running;
            let at = self.node_busy[self.tasks[rt].node].max(now);
            self.mark_recovered(logical.0, at);
            return;
        }
        // Sources replay their buffered window through the topology toward
        // this task; hops forward with reprocessing charges.
        let graph = &self.graph;
        self.replay_cones
            .entry(logical.0)
            .or_insert_with(|| lane::upstream_cone(graph, logical));
        let cursor = self.tasks[rt].next_batch;
        let deliver_at = now + self.config.costs.network_latency;
        let live_sources: Vec<Rt> = self.replay_cones[&logical.0]
            .iter()
            .map(|u| u.0)
            .filter(|&s| {
                self.tasks[s].source.is_some()
                    && !matches!(self.tasks[s].status, Status::Dead | Status::Restoring)
            })
            .collect();
        for s in live_sources {
            self.resend_buffered_replay(s, logical, cursor, deliver_at);
        }
    }

    /// Re-sends slot `rt`'s buffered batches `>= cursor` on the out targets
    /// `keep` selects, to the primary and replica incarnation of each — the
    /// buffered chunks themselves, not copies. `replay_for` flags a Storm
    /// replay, which hops forward and is never tentative.
    fn resend(
        &mut self,
        rt: Rt,
        cursor: u64,
        at: SimTime,
        replay_for: Option<TaskIndex>,
        keep: impl Fn(&lane::LaneCtx<'_>, TaskIndex) -> bool,
    ) {
        let (mut cx, task, _) = self.lane(rt);
        for (k, tgt) in task.out_targets.iter().enumerate() {
            if !keep(&cx, tgt.to) {
                continue;
            }
            for (b, tuples, degraded) in task.out_buffer[k].iter().filter(|e| e.0 >= cursor) {
                let degraded = *degraded && replay_for.is_none();
                let (to, sub, tuples) = (tgt.to, tgt.to_substream, tuples.clone());
                lane::deliver_to(&mut cx, to, sub, *b, tuples, degraded, replay_for, at);
            }
        }
    }

    /// Normal replay after a checkpoint restore: batches `>= cursor`
    /// addressed to `target`.
    fn resend_buffered(&mut self, rt: Rt, target: TaskIndex, cursor: u64, at: SimTime) {
        self.resend(rt, cursor, at, None, |_, to| to == target);
    }

    /// Storm replay: batches `>= cursor` along every edge inside the cone
    /// (or directly to the target).
    fn resend_buffered_replay(&mut self, rt: Rt, target: TaskIndex, cursor: u64, at: SimTime) {
        self.resend(rt, cursor, at, Some(target), |cx, to| {
            to == target || cx.replay_cones[&target.0].binary_search(&to).is_ok()
        });
    }

    /// Flushes a slot's entire output buffer downstream (dedup makes this
    /// idempotent); used at replica takeover and checkpoint restore.
    fn flush_out_buffer(&mut self, rt: Rt, at: SimTime) {
        self.resend(rt, 0, at, None, |_, _| true);
    }

    fn on_takeover_done(&mut self, logical: usize) {
        let Some(slot) = self.replica_slot[logical] else {
            return;
        };
        if self.tasks[slot].status != Status::Running {
            return; // replica died in the meantime
        }
        let now = self.sched.now();
        self.tasks[slot].outputs_enabled = true;
        self.flush_out_buffer(slot, now + self.config.costs.network_latency);
        // Backfill sink records the muted replica produced after the
        // primary stopped recording.
        let cut = self.tasks[logical].pre_failure_progress.unwrap_or(0);
        let pending = std::mem::take(&mut self.tasks[slot].pending_sink);
        self.sink
            .extend(pending.into_iter().filter(|s| s.batch >= cut));
        if let Some(rec) = self.current_outage_mut(logical) {
            rec.via_replica = true;
        }
        self.mark_recovered(logical, now);
    }

    // ------------------------------------------------------------------
    // Tentative outputs (proxy punctuations)
    // ------------------------------------------------------------------

    fn on_proxy_tick(&mut self) {
        self.sched
            .after(self.config.batch_interval, Event::ProxyTick);
        if !matches!(
            self.config.mode,
            FtMode::Ppa { .. } | FtMode::Approximate { .. }
        ) {
            return;
        }
        let frontier = self.current_batch().saturating_sub(1);
        let at = self.sched.now() + self.config.costs.network_latency;
        for t in 0..self.graph.n_tasks() {
            // Proxy only failed, detected, not-yet-recovered tasks without a
            // live activated replica.
            if self.tasks[t].status == Status::Running {
                continue;
            }
            if let Some(slot) = self.replica_slot[t] {
                if self.tasks[slot].status == Status::Running {
                    continue; // replica continues the stream
                }
            }
            // Proxy the task's *current* outage: a re-failed task (its
            // activated replica died) is proxied again once re-detected,
            // exactly like a first failure.
            let Some(rec) = self.current_outage(t) else {
                continue;
            };
            if !rec.detected() || !rec.open() {
                continue;
            }
            let targets: Vec<(TaskIndex, usize)> = self.tasks[t]
                .out_targets
                .iter()
                .map(|tgt| (tgt.to, tgt.to_substream))
                .collect();
            if !self.proxied[t] && !targets.is_empty() {
                // The first proxy of this outage record: tentative
                // (degraded) output starts flowing downstream.
                self.proxied[t] = true;
                let now = self.sched.now();
                self.note(now, EngineEvent::TentativeResumed { task: t });
            }
            for (to, substream) in targets {
                self.sched.at(
                    at,
                    Event::Deliver {
                        to: to.0,
                        substream,
                        batch: frontier,
                        msg: Msg::Proxy,
                    },
                );
                if let Some(slot) = self.replica_slot[to.0] {
                    self.sched.at(
                        at,
                        Event::Deliver {
                            to: slot,
                            substream,
                            batch: frontier,
                            msg: Msg::Proxy,
                        },
                    );
                }
            }
        }
    }

    /// The most recent batch id whose interval has fully elapsed.
    fn current_batch(&self) -> u64 {
        self.sched.now().as_micros() / self.config.batch_interval.as_micros()
    }

    /// The slot currently acting for a logical task (an activated replica,
    /// or the primary slot otherwise).
    fn active_slot(&self, logical: usize) -> Rt {
        if let Some(slot) = self.replica_slot[logical] {
            if self.tasks[slot].outputs_enabled && self.tasks[slot].status == Status::Running {
                return slot;
            }
        }
        logical
    }
}

/// Helper on `Option<Checkpoint>` to clone its parts without fighting the
/// borrow checker inside `restore_from_checkpoint`.
trait CheckpointParts {
    #[allow(clippy::type_complexity)]
    fn clone_parts(&self)
        -> Option<(u64, Option<Box<dyn Udf>>, Vec<VecDeque<Buffered>>, Vec<u64>)>;
}

impl CheckpointParts for Option<Checkpoint> {
    fn clone_parts(
        &self,
    ) -> Option<(u64, Option<Box<dyn Udf>>, Vec<VecDeque<Buffered>>, Vec<u64>)> {
        self.as_ref().map(|cp| {
            (
                cp.batch,
                cp.udf.as_ref().map(|u| u.snapshot()),
                cp.out_buffer.clone(),
                cp.closed.clone(),
            )
        })
    }
}

impl Clone for Checkpoint {
    fn clone(&self) -> Self {
        Checkpoint {
            batch: self.batch,
            udf: self.udf.as_ref().map(|u| u.snapshot()),
            out_buffer: self.out_buffer.clone(),
            closed: self.closed.clone(),
            state_tuples: self.state_tuples,
        }
    }
}

#[cfg(test)]
mod tests;
