//! The simulated cluster runtime: batch dataflow, failure injection,
//! detection and the recovery paths (active replica takeover, checkpoint
//! restore + replay, approximate lossy restore, Storm-style source
//! replay).
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
//!   buffer, so a restored task can re-serve its downstream immediately;
//! * a buffer keeps only what nobody can rebuild: a source buffers weak
//!   handles to the chunks it emitted and regenerates a batch on re-serve
//!   once no delivery, checkpoint or downstream buffer holds it, and a
//!   dead incarnation's buffers go with its node.
//!
//! Module map:
//! * this file — the cluster state, the one way in ([`FaultFeed`] →
//!   [`Simulation::drive`]; [`Simulation::run`] is `new` + `drive` +
//!   [`StaticPolicy`]), the event loop and dispatch, failure and
//!   detection, backups, and the application of control-plane actions.
//!   The outage books are an [`OutageFold`] fed every emitted
//!   [`EngineEvent`]: each transition's call site picks its event from
//!   the fold's current record, and the fold writes the
//!   [`OutageRecord`] fields that event implies;
//! * `lane` — the data plane: source generation, delivery, batch
//!   processing, emit;
//! * `recovery` — detection → close: the one passive restore
//!   (`Simulation::restore`, the shared recovery steps in a fixed
//!   sequence; a family is three choices on it, read off [`Backup`]),
//!   replica takeover, proxy punctuations.

#![expect(
    clippy::type_complexity,
    reason = "the runtime's internal bookkeeping uses nested generic types whose shape is the documentation (batch id -> (payload, tentative), per-slot); naming each would add indirection without clarity"
)]

use crate::chaos::{ChaosError, ChaosKind, ChaosSpec};
use crate::config::{EngineConfig, FtMode, HEALTH_HALF_LIFE, HEARTBEAT_INTERVAL};
use crate::control::{
    ActionOutcome, ActionRecord, ControlAction, ControlPolicy, DomainHealth, DriveReport,
    HealthView, StaticPolicy,
};
use crate::error::EngineError;
use crate::feed::FaultFeed;
use crate::placement::{move_counts, plan_evacuation, MoveRole, NodeId, Placement};
use crate::query::{Incarnation, Query};
use crate::report::{CpuStats, OutageRecord, RunReport, SinkBatch, TaskOutages};
use crate::tuple::{Chunk, WeakChunk};
use crate::udf::{SourceGen, Udf};
use ppa_core::{AdaptivePlanner, StructureAwarePlanner, TaskSet};
use ppa_core::{TaskGraph, TaskIndex};
use ppa_obs::{EngineEvent, MetricsRegistry, OutageFold, TraceSink};
use ppa_sim::{Scheduler, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::collections::VecDeque;

mod lane;
mod recovery;

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

/// What an output buffer holds of one batch for one downstream substream.
/// Every reader of its tuples goes through `lane::held_chunk`.
#[derive(Clone)]
enum Held {
    /// A non-source task's output: only this buffer can re-serve it.
    Tuples(Chunk),
    /// A source's output and its length in tuples. The generator rebuilds
    /// the batch from its id, so the buffer keeps a handle that reaches
    /// the chunk only while a delivery, checkpoint, downstream buffer or
    /// sink record still holds it (a muted slot's reaches nothing). Lives
    /// only in a slot that owns its generator.
    Source(WeakChunk, u32),
}

impl Held {
    /// Tuples held, whether or not they are still in memory.
    fn len(&self) -> usize {
        match self {
            Held::Tuples(chunk) => chunk.len(),
            Held::Source(_, len) => *len as usize,
        }
    }
}

/// Output buffered for one downstream substream: (batch, held, degraded).
type Buffered = (u64, Held, bool);

// A source entry's length rides in the enum's padding beside its tag.
const _: () = assert!(size_of::<Buffered>() == 32);

/// Drops the buffered batches below `ack` off the front of `queue`.
fn trim_below(queue: &mut VecDeque<Buffered>, ack: u64) {
    while let Some((b, _, _)) = queue.front() {
        if *b < ack {
            queue.pop_front();
        } else {
            break;
        }
    }
}

struct Checkpoint {
    /// `next_batch` at snapshot time.
    batch: u64,
    udf: Option<Box<dyn Udf>>,
    out_buffer: Vec<VecDeque<Buffered>>,
    closed: Vec<u64>,
    state_tuples: usize,
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
    pending_sink: Vec<SinkBatch>,
    cpu: CpuStats,
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
    /// A running slot at batch 0 with empty buffers; replicas start muted.
    fn new(
        logical: TaskIndex,
        is_replica: bool,
        node: NodeId,
        (udf, source): Incarnation,
        sub_from: Vec<(usize, TaskIndex)>,
        out_targets: Vec<OutTarget>,
    ) -> TaskRt {
        TaskRt {
            logical,
            is_replica,
            node,
            status: Status::Running,
            udf,
            source,
            staged: vec![BTreeMap::new(); sub_from.len()],
            closed: vec![0; sub_from.len()],
            sub_from,
            next_batch: 0,
            outputs_enabled: !is_replica,
            stream_spans: stream_spans_of(&out_targets),
            out_buffer: vec![VecDeque::new(); out_targets.len()],
            out_targets,
            checkpoint: None,
            pre_failure_progress: None,
            pending_sink: Vec::new(),
            cpu: CpuStats::default(),
            divergence: crate::approx::DivergenceModel::default(),
        }
    }

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

    /// Drops what the incarnation holds in memory — staged input, output
    /// buffers, stashed sink records — when it dies or is torn down. No
    /// reader touches a dead slot's memory, every restore rewinds it, and
    /// a slot that loses its generator keeps no source entry it could not
    /// rebuild.
    fn forget(&mut self) {
        self.staged.iter_mut().for_each(BTreeMap::clear);
        self.out_buffer.iter_mut().for_each(VecDeque::clear);
        self.pending_sink.clear();
    }

    fn buffered_tuples(&self) -> usize {
        self.out_buffer
            .iter()
            .flat_map(|q| q.iter())
            .map(|(_, held, _)| held.len())
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
        nodes: Vec<NodeId>,
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
    /// A registered chaos injection fires.
    Chaos {
        kind: ChaosKind,
    },
}

/// The run's recovery family, read off [`FtMode`] once in
/// [`Simulation::new`]: the only value in the runtime that says which
/// family is running. It fixes how task state is backed up and the three
/// choices [`Simulation::restore`] makes — where to rewind, which cursor
/// to resume from and who re-serves the gap.
#[derive(Debug, Clone, Copy)]
enum Backup {
    /// No fault tolerance (`FtMode::None`): a failed task stays dead.
    None,
    /// PPA: a checkpoint per task every interval; restore rewinds to it
    /// and upstreams re-serve the gap. `None` is pure active
    /// replication, whose fallback restore starts from scratch.
    Checkpoint(Option<SimDuration>),
    /// Storm: no task state; sources keep this many batches and replay
    /// them through the task's upstream cone.
    SourceBuffer(u64),
    /// Approximate: a task ships when its drift crosses this error bound,
    /// never on a timer, and restore forfeits the gap to the frontier.
    /// Doubles as the gate on approximate-only metric flushes so exact
    /// runs stay byte-identical.
    Divergence(u64),
}

/// Armed chaos (buggify) state, consumed by the heartbeat and restore
/// paths. Idle for every non-chaos run.
#[derive(Default)]
struct Buggify {
    /// Pending heartbeat-scan drops (`ChaosKind::HeartbeatDrop`).
    heartbeat_drops: u32,
    /// Pending one-shot heartbeat delay (`ChaosKind::HeartbeatDelay`):
    /// the next scan, and the cadence behind it, shifts by this much.
    heartbeat_delay: Option<SimDuration>,
    /// Per logical task: pending restore stall
    /// (`ChaosKind::RestoreStall`), consumed by the task's next restore
    /// completion.
    restore_stall: BTreeMap<usize, SimDuration>,
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
    /// The outage books: every emitted event folded through the
    /// lifecycle state machine — the report's outage histories.
    outages: OutageFold,
    sink: Vec<SinkBatch>,
    events: u64,
    /// Tuples scheduled for delivery so far (replica copies included) —
    /// the denominator of the bench harness's tuples/sec figures.
    tuples_moved: u64,
    /// A pristine (empty-state) UDF per non-source task; a restart from
    /// scratch runs a snapshot of it.
    fresh_udf: Vec<Option<Box<dyn Udf>>>,
    /// Spare source generators, one per source task — consumed when the
    /// control plane activates a source replica mid-run (generators are
    /// deterministic functions of the batch id, so a spare instance
    /// produces the identical stream).
    spare_sources: Vec<Option<Box<dyn SourceGen>>>,
    backup: Backup,
    /// Storm-mode replay cones (sorted logical tasks with a path to the
    /// key), computed once when a target's replay starts; the graph never
    /// changes, so entries stay valid for late forwarded deliveries.
    replay_cones: BTreeMap<usize, TaskSet>,
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
    /// Declared run horizon: when set, failure and chaos events scheduled
    /// past it are rejected (they would never fire).
    horizon: Option<SimTime>,
    buggify: Buggify,
    /// How far [`Simulation::drive`] has run: the latest `until` so far.
    driven_to: SimTime,
}

/// The flat substream layout per receiving task — (input-stream index,
/// upstream task) per substream — and every task's out targets with the
/// receiver-side substream index precomputed.
fn wiring(graph: &TaskGraph) -> (Vec<Vec<(usize, TaskIndex)>>, Vec<Vec<OutTarget>>) {
    let n = graph.n_tasks();
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
    let out_targets = (0..n)
        .map(|t| {
            let mut outs = Vec::new();
            for (stream, ostream) in graph.outputs(TaskIndex(t)).iter().enumerate() {
                for &d in &ostream.targets {
                    #[expect(
                        clippy::expect_used,
                        reason = "inputs and outputs are two views of the same edge list, built together by TaskGraph::new; a target without the matching input is a bug there, not an input error"
                    )]
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
    (sub_from, out_targets)
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
        let (sub_from, out_targets) = wiring(&graph);
        let (plan, backup) = match &config.mode {
            FtMode::None => (None, Backup::None),
            FtMode::SourceReplay { buffer } => (
                None,
                Backup::SourceBuffer(config.batches_in(*buffer).max(1)),
            ),
            FtMode::Ppa {
                plan,
                checkpoint_interval,
            } => (Some(plan), Backup::Checkpoint(*checkpoint_interval)),
            FtMode::Approximate { error_bound } => (None, Backup::Divergence(*error_bound)),
        };

        // The operator state or generator of one incarnation of task `t`.
        let instantiate = |t: usize| {
            let logical = TaskIndex(t);
            query.instantiate(graph.operator_of(logical), graph.local_index(logical))
        };
        let mk_task = |t: usize, is_replica: bool, node: NodeId| {
            TaskRt::new(
                TaskIndex(t),
                is_replica,
                node,
                instantiate(t),
                sub_from[t].clone(),
                out_targets[t].clone(),
            )
        };
        let mut tasks: Vec<TaskRt> = (0..n)
            .map(|t| mk_task(t, false, placement.primary[t]))
            .collect();
        let mut replica_slot = vec![None; n];
        for t in plan.into_iter().flat_map(TaskSet::iter) {
            replica_slot[t.0] = Some(tasks.len());
            tasks.push(mk_task(t.0, true, placement.standby[t.0]));
        }
        // One more incarnation per task, kept aside (the query's
        // factories are not storable): the pristine UDF behind restarts
        // from scratch, the spare generator behind source-replica
        // activation.
        let (fresh_udf, spare_sources) = (0..n).map(instantiate).unzip();

        let mut sim = Simulation {
            // The steady state keeps roughly one pending event per task
            // slot (plus periodic timers): pre-size the scheduler so the
            // heap and slot arena never grow mid-run.
            sched: Scheduler::with_capacity(2 * tasks.len() + 16),
            node_busy: vec![SimTime::ZERO; placement.n_nodes()],
            node_alive: vec![true; placement.n_nodes()],
            outages: OutageFold::new(),
            sink: Vec::new(),
            events: 0,
            tuples_moved: 0,
            tasks,
            replica_slot,
            fresh_udf,
            spare_sources,
            backup,
            replay_cones: BTreeMap::new(),
            domain_health: placement
                .fault_domains()
                .map(|tree| DomainHealth::new(tree.n_domains(), HEALTH_HALF_LIFE)),
            active_plan: plan.cloned().unwrap_or_else(|| TaskSet::empty(n)),
            replica_sync_running: false,
            trace_sink: None,
            metrics: MetricsRegistry::new(),
            horizon: None,
            buggify: Buggify::default(),
            driven_to: SimTime::ZERO,
            graph,
            placement,
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
        // Heartbeat scans and proxy ticks.
        self.sched
            .at(SimTime::ZERO + HEARTBEAT_INTERVAL, Event::HeartbeatScan);
        self.sched.at(SimTime::ZERO + b, Event::ProxyTick);
        // Checkpoints, staggered per task so correlated recovery sees
        // asynchronous checkpoint ages (§V-B's synchronization effect).
        if let Backup::Checkpoint(Some(interval)) = self.backup {
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

    /// The window every injected event must fall in: not before the
    /// simulation's current time (it would rewrite history), not past a
    /// declared horizon (it would never fire).
    fn check_window(&self, at: SimTime) -> Result<(), EngineError> {
        let now = self.sched.now();
        if at < now {
            return Err(EngineError::EventInPast { at, now });
        }
        match self.horizon {
            Some(horizon) if at > horizon => Err(EngineError::EventPastHorizon { at, horizon }),
            _ => Ok(()),
        }
    }

    /// Schedules one resolved failure event (its nodes already checked
    /// against the cluster size by [`FaultFeed::resolve`]). An instant
    /// outside the window or a node that is already dead at injection
    /// time (e.g. the node an activated replica died on) surfaces as a
    /// typed [`EngineError`] instead of silently short-circuiting at fire
    /// time. (Events injected while their nodes are still alive may still
    /// find them dead when they fire — an earlier event killed them first
    /// — and those are skipped, so replayed traces with overlapping kill
    /// sets stay valid.)
    fn inject(&mut self, at: SimTime, nodes: Vec<NodeId>) -> Result<(), EngineError> {
        self.check_window(at)?;
        if let Some(&node) = nodes.iter().find(|&&n| !self.node_alive[n]) {
            return Err(EngineError::NodeAlreadyDead { node });
        }
        self.sched.at(at, Event::Failure { nodes });
        Ok(())
    }

    /// Declares the run's horizon: from here on, failure events fed to
    /// [`Simulation::drive`] and [`Simulation::inject_chaos`] are rejected
    /// with [`EngineError::EventPastHorizon`] when scheduled past it,
    /// instead of silently accepted and never fired. Opt-in — harnesses
    /// that extend a run with repeated `drive` calls leave it unset.
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = Some(horizon);
    }

    /// Registers a chaos injection (buggify point). The same validation
    /// discipline as failure events: malformed specs — an instant before
    /// the current virtual time or past the declared horizon, a task the
    /// query does not have — surface as typed [`ChaosError`]s at
    /// injection time. A run whose chaos schedule is empty is
    /// byte-identical to a run made before this subsystem existed.
    pub fn inject_chaos(&mut self, spec: ChaosSpec) -> Result<(), ChaosError> {
        self.check_window(spec.at)?;
        let n_tasks = self.graph.n_tasks();
        if let Some(task) = spec.kind.task().filter(|&task| task >= n_tasks) {
            return Err(ChaosError::TaskOutOfRange { task, n_tasks });
        }
        self.sched.at(spec.at, Event::Chaos { kind: spec.kind });
        Ok(())
    }

    /// Fires one chaos injection: arms the targeted buggify state
    /// (consumed by the heartbeat / restore paths) or perturbs the run
    /// directly.
    fn on_chaos(&mut self, kind: ChaosKind) {
        self.metrics.inc("engine.chaos.fired");
        match kind {
            ChaosKind::HeartbeatDrop { scans } => {
                self.buggify.heartbeat_drops = self.buggify.heartbeat_drops.saturating_add(scans);
            }
            ChaosKind::HeartbeatDelay { by } => {
                *self
                    .buggify
                    .heartbeat_delay
                    .get_or_insert(SimDuration::ZERO) += by;
            }
            ChaosKind::HeartbeatDuplicate => {
                // An extra scan outside the cadence: detection must be
                // idempotent under it.
                self.heartbeat_scan();
            }
            ChaosKind::RestoreStall { task, by } => {
                *self.buggify.restore_stall.entry(task).or_default() += by;
            }
            ChaosKind::RestoreVoid { task } => {
                // Losing the restore target mid-load is exactly a death
                // of the restoring incarnation: the open outage is
                // re-armed (detection void, setback counted) and the
                // stale scheduled completion will find the task no
                // longer `Restoring` and void itself.
                if self.tasks[task].status == Status::Restoring {
                    self.tasks[task].status = Status::Dead;
                    self.fail_task(task);
                }
            }
        }
    }

    /// The report of everything measured so far, ended at `until`.
    fn report_at(&self, until: SimTime) -> RunReport {
        let primaries = &self.tasks[..self.graph.n_tasks()];
        RunReport {
            outages: self
                .outages
                .histories()
                .map(|(task, records)| TaskOutages {
                    task: TaskIndex(task),
                    records: records.to_vec(),
                })
                .collect(),
            sink: self.sink.clone(),
            cpu: primaries.iter().map(|t| t.cpu).collect(),
            events: self.events,
            tuples_moved: self.tuples_moved,
            ended_at: until,
        }
    }

    /// Convenience: build, feed, run to `duration` with nobody at the
    /// controls — [`Simulation::new`] + [`Simulation::drive`] with a
    /// [`StaticPolicy`]. Anything a [`FaultFeed`] converts from is a
    /// `feed`: a list of [`FailureSpec`]s, a `&FailureTrace`.
    #[expect(
        clippy::expect_used,
        reason = "the build-and-run convenience hands back a bare RunReport; a caller whose feed or config may be malformed calls drive and gets the typed error"
    )]
    pub fn run(
        query: &Query,
        placement: Placement,
        config: EngineConfig,
        feed: impl Into<FaultFeed>,
        duration: SimDuration,
    ) -> RunReport {
        let mut sim = Simulation::new(query, placement, config);
        sim.drive(&feed.into(), &mut StaticPolicy, SimTime::ZERO + duration)
            .expect("the feed must name live nodes of this cluster, inside the run window, and no interval may be zero")
            .report
    }

    /// The run loop, and the one way a failure gets in: resolves `feed`
    /// against the placement into one ordered failure trace, schedules
    /// it, and runs the event loop until `until` with `policy` in the
    /// loop — its failure hook fires right after every failure event, its
    /// epoch hook at every multiple of its `epoch_interval`, and the
    /// returned [`ControlAction`]s are applied immediately
    /// (migration/activation state shipping is charged at the hook's
    /// virtual time). With a [`StaticPolicy`] (no hooks, no actions) the
    /// policy sits outside the event stream altogether.
    ///
    /// A simulation may be driven again to a later `until`, with a new
    /// feed (mid-run injection) or an empty one: consecutive calls
    /// process the events, fire the epochs and count the metrics one call
    /// to the last `until` would.
    ///
    /// A configuration with a zero interval is rejected with
    /// [`EngineError::ZeroInterval`] before any event runs.
    pub fn drive(
        &mut self,
        feed: &FaultFeed,
        policy: &mut dyn ControlPolicy,
        until: SimTime,
    ) -> Result<DriveReport, EngineError> {
        if let Some(field) = self.config.zero_interval() {
            return Err(EngineError::ZeroInterval { field });
        }
        let trace = feed.resolve(&self.placement)?;
        for event in trace.events() {
            self.inject(event.at, event.nodes.clone())?;
        }
        let mut actions: Vec<ActionRecord> = Vec::new();
        let mut control_cpu = SimDuration::ZERO;
        // The next epoch boundary and the interval behind it. This call's
        // first boundary is the first one not before the previous call's
        // `until`: a boundary a call ends on exactly is left to the next
        // call, which fires it after that instant's events, where one
        // drive would. A zero interval could never advance past `until`;
        // treat it as "no epoch hook" rather than hanging the loop.
        let mut epoch = policy
            .epoch_interval()
            .filter(|interval| !interval.is_zero())
            .map(|interval| {
                let passed = self.driven_to.as_micros().div_ceil(interval.as_micros());
                (SimTime::ZERO + interval * passed.max(1), interval)
            });
        loop {
            let boundary = epoch.filter(|&(e, _)| e < until);
            let deadline = boundary.map_or(until, |(e, _)| e);
            while let Some(failure) = self.step_until(deadline) {
                if failure {
                    let now = self.sched.now();
                    let acts = policy.on_failure(&self.health_view(now));
                    self.apply_actions(now, acts, &mut actions, &mut control_cpu);
                }
            }
            let Some((e, interval)) = boundary else {
                break;
            };
            let scores: Vec<(usize, f64)> = self
                .domain_health
                .as_ref()
                .map(|h| h.snapshot(e).into_iter().enumerate().collect())
                .unwrap_or_default();
            self.note(e, EngineEvent::EpochHealthSnapshot { scores });
            let acts = policy.on_epoch(&self.health_view(e));
            self.apply_actions(e, acts, &mut actions, &mut control_cpu);
            epoch = Some((e + interval, interval));
        }
        self.driven_to = self.driven_to.max(until);
        // Approximate-only: the tasks' skipped-backup tallies, the one
        // counter no event explains. Gated on the mode so exact runs never
        // grow a zero-valued extra metric (their drive reports must stay
        // byte-identical to pre-approximate builds).
        if let Backup::Divergence(_) = self.backup {
            let skipped = self.tasks.iter().map(|t| t.divergence.skipped()).sum();
            self.meter("engine.approx.backups_skipped", skipped);
        }
        Ok(DriveReport {
            report: self.report_at(until),
            actions,
            control_cpu,
            metrics: self.metrics.snapshot(),
        })
    }

    /// Brings the monotone counter `name` up to `total`: the registry
    /// already holds what earlier drives flushed, so a repeated drive
    /// adds only the difference and nothing is counted twice.
    fn meter(&mut self, name: &'static str, total: u64) {
        self.metrics.add(name, total - self.metrics.counter(name));
    }

    /// The cluster's health as a policy sees it at `at`: the placement's
    /// fault-domain tree, every domain's time-decayed failure score, and
    /// the recovery-setback count — so policies observe re-failures as
    /// first-class events, not just node deaths.
    fn health_view(&self, at: SimTime) -> HealthView<'_> {
        HealthView::new(
            self.placement.fault_domains(),
            self.domain_health
                .as_ref()
                .map(|h| h.snapshot(at))
                .unwrap_or_default(),
            self.metrics.counter("engine.recovery.setbacks") as usize,
        )
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

    /// Records one lifecycle transition: into the outage books and the
    /// metrics registry, and into the trace sink when one is attached.
    /// `at` is the transition's *semantic* instant — a recovery completes
    /// at a CPU horizon that can run ahead of the event-loop clock. Every
    /// call site picks its event from the books' current state, so no
    /// transition may break a lifecycle rule.
    fn note(&mut self, at: SimTime, event: EngineEvent) {
        let broken = self.outages.apply(at, &event);
        debug_assert!(broken.is_empty(), "{event:?} at {at}: {broken:?}");
        self.metrics.record(&event);
        if let Some(sink) = self.trace_sink.as_mut() {
            sink.record(at, &event);
        }
    }

    /// Task `t`'s active incarnation just died: a healthy or recovered
    /// task opens a fresh outage record; a task dying again mid-recovery
    /// keeps its open record but loses its detection and any pending
    /// recovery path — the master must re-detect it.
    fn fail_task(&mut self, t: usize) {
        let now = self.sched.now();
        let event = match self.outages.current(t) {
            Some(rec) if rec.open() => EngineEvent::RecoverySetback { task: t },
            last => EngineEvent::OutageOpened {
                task: t,
                refail: last.is_some(),
            },
        };
        self.note(now, event);
    }

    /// Closes task `t`'s current outage at `at` — by replica `takeover`,
    /// else by restore. Every recovery path ends here; a second close of
    /// the same record is a no-op, so each record has exactly one closing
    /// event.
    fn mark_recovered(&mut self, t: usize, at: SimTime, takeover: bool) {
        if !self.outages.current(t).is_some_and(OutageRecord::open) {
            return;
        }
        let event = if takeover {
            EngineEvent::ReplicaActivated { task: t }
        } else {
            EngineEvent::RestoreDone { task: t }
        };
        self.note(at, event);
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
        lane::reserve(&mut self.node_busy[node], self.sched.now().max(at), work)
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
        if !matches!(self.backup, Backup::Checkpoint(_) | Backup::Divergence(_)) {
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
                        || self.outages.current(t).is_some_and(OutageRecord::open)
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
        let planner = AdaptivePlanner::new(StructureAwarePlanner);
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
                self.fresh_udf[t].as_ref().map(|fresh| fresh.snapshot()),
                0,
                vec![0; self.tasks[t].n_substreams()],
            )
        };

        let state = udf.as_ref().map_or(0, |u| u.state_tuples());
        let work = self.state_ship_work(state);
        let finish = self.reserve_from(standby, work, at);
        *control_cpu += work;

        let mut replica = TaskRt::new(
            TaskIndex(t),
            true,
            standby,
            (udf, source),
            self.tasks[t].sub_from.clone(),
            self.tasks[t].out_targets.clone(),
        );
        replica.closed = closed;
        replica.next_batch = next_batch;
        let slot = self.tasks.len();
        self.tasks.push(replica);
        self.replica_slot[t] = Some(slot);

        if is_source {
            // Regenerate the backlog immediately (muted into the output
            // buffer — the takeover flush re-serves it), then join the
            // cadence at the next batch boundary.
            self.regenerate_source(slot);
            let b = self.current_batch().max(next_batch);
            let due = SimTime::ZERO + self.config.batch_interval * (b + 1);
            self.sched.at(
                due.max(self.sched.now()).max(at),
                Event::SourceBatch { rt: slot, batch: b },
            );
        } else {
            // Catch up from live upstreams (downstream primaries
            // deduplicate the copies they also receive).
            let at = finish + self.config.costs.network_latency;
            self.reserve_from_upstreams(slot, next_batch, at);
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
            && self.outages.current(t).is_some_and(OutageRecord::detected)
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
        task.forget();
        if let Some(source) = task.source.take() {
            self.spare_sources[t] = Some(source);
        }
        self.replica_slot[t] = None;
        true
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
            backup: self.backup,
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
            Event::Failure { nodes } => self.on_failure(nodes),
            Event::RestoreDone { rt } => self.on_restore_done(rt),
            Event::TakeoverDone { logical } => self.on_takeover_done(logical),
            Event::ProxyTick => self.on_proxy_tick(),
            Event::ApproxShip { rt } => self.on_approx_ship(rt),
            Event::Chaos { kind } => self.on_chaos(kind),
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
            self.mark_recovered(self.tasks[rt].logical.0, at, false);
        }
    }

    // ------------------------------------------------------------------
    // Checkpoints
    // ------------------------------------------------------------------

    fn on_checkpoint(&mut self, rt: Rt) {
        if let Backup::Checkpoint(Some(interval)) = self.backup {
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
        let state_tuples = self.tasks[rt].state_tuples();
        let work = self.config.costs.checkpoint_base
            + self.config.costs.checkpoint_per_state_tuple * state_tuples as u64;
        let node = self.tasks[rt].node;
        let _finish = self.reserve_from(node, work, self.sched.now());
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
        for u in self.upstreams_of(rt) {
            self.trim_buffers_for(u.0, logical, ack_batch);
            if let Some(slot) = self.replica_slot[u.0] {
                self.trim_buffers_for(slot, logical, ack_batch);
            }
        }
    }

    /// The upstream logical task behind each input substream of slot `rt`.
    fn upstreams_of(&self, rt: Rt) -> Vec<TaskIndex> {
        self.tasks[rt].sub_from.iter().map(|&(_, u)| u).collect()
    }

    /// Drops `target`-bound buffered batches below `ack_batch` on slot `rt`.
    fn trim_buffers_for(&mut self, rt: Rt, target: TaskIndex, ack_batch: u64) {
        let task = &mut self.tasks[rt];
        for (k, tgt) in task.out_targets.iter().enumerate() {
            if tgt.to == target {
                trim_below(&mut task.out_buffer[k], ack_batch);
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
            // output buffer (§V-B "Active Replication") and its sink
            // stash: a takeover backfills only from the primary's cut on,
            // and the cut is at least this ack.
            let ack = self.tasks[t].next_batch;
            let replica = &mut self.tasks[slot];
            for q in &mut replica.out_buffer {
                trim_below(q, ack);
            }
            replica.pending_sink.retain(|s| s.batch >= ack);
        }
    }

    // ------------------------------------------------------------------
    // Failure, detection, recovery
    // ------------------------------------------------------------------

    fn on_failure(&mut self, mut killed: Vec<NodeId>) {
        let now = self.sched.now();
        // Only nodes actually killed by *this* event enter the record —
        // nodes an earlier trace event already took down are not listed.
        killed.retain(|&n| self.node_alive[n]);
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
                    task.forget();
                    task.next_batch
                };
                let logical = self.tasks[rt].logical.0;
                if !self.tasks[rt].is_replica {
                    // The primary incarnation died: a first failure, a
                    // checkpoint-restored task dying again (fresh
                    // outage), or a death mid-restore (the open outage
                    // is re-armed for re-detection).
                    self.fail_task(logical);
                } else if self.replica_slot[logical] == Some(rt) {
                    if self.tasks[rt].outputs_enabled {
                        // An *activated* replica died: the logical task
                        // is headless again. Open a fresh outage measured
                        // against the replica's progress — re-detection,
                        // re-proxying and a fresh recovery latency follow
                        // instead of the task silently counting as
                        // recovered forever.
                        self.tasks[logical].pre_failure_progress = Some(progress);
                        self.fail_task(logical);
                    } else if self.tasks[logical].status == Status::Dead
                        && self.outages.awaiting_recovery(logical)
                    {
                        // A muted replica with a pending takeover died
                        // mid-recovery (the primary is still down and no
                        // restore is in flight): the same re-arm as any
                        // death mid-recovery. The next heartbeat scan
                        // re-detects the task onto the passive path; the
                        // scheduled takeover finds the slot dead and does
                        // nothing.
                        self.fail_task(logical);
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
        if let Some(by) = self.buggify.heartbeat_delay.take() {
            self.sched.after(by, Event::HeartbeatScan);
            return;
        }
        self.sched.after(HEARTBEAT_INTERVAL, Event::HeartbeatScan);
        if self.buggify.heartbeat_drops > 0 {
            self.buggify.heartbeat_drops -= 1;
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
            // An already-detected record is skipped, which makes a
            // repeated scan a no-op.
            if !self
                .outages
                .current(t)
                .is_some_and(|rec| rec.open() && !rec.detected())
            {
                continue;
            }
            self.note(now, EngineEvent::OutageDetected { task: t });
            self.start_recovery(t);
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

#[cfg(test)]
mod tests;
