//! The data-plane half of the event loop: source generation, delivery
//! and batch processing.
//!
//! A handler touches only what it is passed — the receiving task's
//! [`TaskRt`], its node's CPU horizon and the [`LaneCtx`] — and schedules,
//! records sink output and counts tuples through the context in call
//! order, so sequence numbers (and with them every same-instant
//! tie-break) follow the handler's own control flow. The outage books are
//! out of its reach: a handler that completes a catch-up hands the
//! instant back and the simulation closes the outage.
//!
//! Broken internal invariants degrade to `debug_assert!` + a safe early
//! return instead of unwinding mid-run.

use super::{trim_below, Backup, Event, Held, Msg, Rt, Status, TaskRt};
use crate::config::EngineConfig;
use crate::report::SinkBatch;
use crate::tuple::{route, Chunk, Tuple, WeakChunk};
use crate::udf::{BatchCtx, InputBatch, Output};
use ppa_core::{TaskGraph, TaskIndex, TaskSet};
use ppa_sim::{Scheduler, SimDuration, SimTime};
use std::collections::BTreeMap;

/// The simulation state a data-plane handler works against, besides the
/// task and CPU horizon it is handed (built by `Simulation::lane`).
pub(super) struct LaneCtx<'a> {
    pub(crate) graph: &'a TaskGraph,
    pub(crate) config: &'a EngineConfig,
    pub(crate) replica_slot: &'a [Option<Rt>],
    pub(crate) backup: Backup,
    /// Storm-mode replay cones per recovering target: the target and
    /// every logical task with a path to it; filled before the target's
    /// first replay send.
    pub(crate) replay_cones: &'a BTreeMap<usize, TaskSet>,
    pub(crate) sched: &'a mut Scheduler<Event>,
    /// Sink records produced by active sink incarnations.
    pub(crate) sink: &'a mut Vec<SinkBatch>,
    /// Tuples scheduled for delivery (including replica copies).
    pub(crate) tuples_moved: &'a mut u64,
}

/// Reserves `work` on a node CPU horizon, starting no earlier than `now`;
/// returns the finish instant.
pub(super) fn reserve(busy: &mut SimTime, now: SimTime, work: SimDuration) -> SimTime {
    let start = (*busy).max(now);
    let finish = start + work;
    *busy = finish;
    finish
}

/// [`Event::SourceBatch`]: cadence + generation.
pub(super) fn source_batch(
    cx: &mut LaneCtx<'_>,
    rt: Rt,
    task: &mut TaskRt,
    busy: &mut SimTime,
    batch: u64,
) {
    // A replica slot the control plane deactivated is orphaned: stop
    // its cadence instead of ticking an event stream forever.
    if task.is_replica && cx.replica_slot[task.logical.0] != Some(rt) {
        return;
    }
    // Always keep the cadence going; a dead source skips generation.
    cx.sched.after(
        cx.config.batch_interval,
        Event::SourceBatch {
            rt,
            batch: batch + 1,
        },
    );

    if task.status != Status::Running {
        return;
    }
    generate(cx, task, busy, batch, false);
}

/// Generates one source batch; `regen` marks catch-up regeneration
/// (restore paths call this bare, with no cadence rescheduling).
///
/// A muted slot sends nothing, so it draws no tuples: it charges its CPU
/// from the batch length and buffers handles that reach nothing, which a
/// takeover's re-serve regenerates. Only a stream that bins the batch
/// across several targets needs the tuples, for each bin's count.
pub(super) fn generate(
    cx: &mut LaneCtx<'_>,
    task: &mut TaskRt,
    busy: &mut SimTime,
    batch: u64,
    regen: bool,
) {
    let Some(source) = task.source.as_mut() else {
        debug_assert!(false, "generate_source_batch on a non-source task");
        return;
    };
    let muted = !task.outputs_enabled && task.stream_spans.iter().all(|&(_, len)| len == 1);
    let (len, whole) = if muted {
        (source.batch_len(batch), None)
    } else {
        let tuples = source.batch(batch);
        (tuples.len(), Some(Chunk::from(tuples)))
    };
    let cost = if regen {
        cx.config.costs.replay_per_tuple
    } else {
        cx.config.costs.source_per_tuple
    };
    let work = cost * len as u64;
    let finish = reserve(busy, cx.sched.now(), work);
    task.cpu.processing += work;
    task.next_batch = task.next_batch.max(batch + 1);
    match whole {
        Some(whole) => emit(cx, task, batch, whole, false, finish),
        None => {
            for queue in &mut task.out_buffer {
                let held = Held::Source(WeakChunk::dangling(), tuple_count(len));
                queue.push_back((batch, held, false));
            }
        }
    }
    trim_storm_buffer(cx, task);
}

/// Partitions `whole` across the task's out targets, buffers the parts and
/// (if outputs are enabled) schedules deliveries at `finish + latency`.
/// A source buffers weak handles (see [`Held::Source`]).
///
/// The route table (`TaskRt::stream_spans`) is precomputed at task
/// construction; single-target streams forward the whole batch as the one
/// shared chunk with no per-tuple work at all, and multi-target streams
/// bin each tuple exactly once.
fn emit(
    cx: &mut LaneCtx<'_>,
    task: &mut TaskRt,
    batch: u64,
    whole: Chunk,
    degraded: bool,
    finish: SimTime,
) {
    let deliver_at = finish + cx.config.costs.network_latency;
    let mut send = |task: &mut TaskRt, k: usize, part: Chunk| {
        let held = if task.source.is_some() {
            Held::Source(part.downgrade(), tuple_count(part.len()))
        } else {
            Held::Tuples(part.clone())
        };
        task.out_buffer[k].push_back((batch, held, degraded));
        if task.outputs_enabled {
            let (to, to_substream) = (task.out_targets[k].to, task.out_targets[k].to_substream);
            deliver_to(
                cx,
                to,
                to_substream,
                batch,
                part,
                degraded,
                None,
                deliver_at,
            );
        }
    };
    for i in 0..task.stream_spans.len() {
        let (start, len) = task.stream_spans[i];
        if len == 1 {
            send(task, start, whole.clone());
        } else {
            for (j, bin) in bins(&whole, len).into_iter().enumerate() {
                send(task, start + j, bin.into());
            }
        }
    }
}

/// `whole` binned by key across a multi-target stream's `n` targets.
fn bins(whole: &[Tuple], n: usize) -> Vec<Vec<Tuple>> {
    let mut bins: Vec<Vec<Tuple>> = vec![Vec::new(); n];
    for t in whole {
        bins[route(t.key, n)].push(t.clone());
    }
    bins
}

/// A source chunk's length as [`Held::Source`] stores it (a batch is far
/// below 2^32 tuples; the count only prices a takeover's re-send).
fn tuple_count(len: usize) -> u32 {
    u32::try_from(len).unwrap_or(u32::MAX)
}

/// The chunk entry `i` of out-target `k`'s buffer re-serves: a held
/// chunk, the source chunk its weak handle still reaches, or else the
/// batch regenerated and routed exactly as [`emit`] routed it. The entry
/// then points at the regenerated chunk, so a second re-serve shares it
/// while the first one's delivery still holds it.
pub(super) fn held_chunk(task: &mut TaskRt, k: usize, i: usize) -> Chunk {
    let (batch, held, _) = &task.out_buffer[k][i];
    let batch = *batch;
    match held {
        Held::Tuples(chunk) => return chunk.clone(),
        Held::Source(weak, _) => {
            if let Some(chunk) = weak.upgrade() {
                return chunk;
            }
        }
    }
    let span = task
        .stream_spans
        .iter()
        .find(|&&(start, len)| (start..start + len).contains(&k));
    let (Some(source), Some(&(start, len))) = (task.source.as_mut(), span) else {
        debug_assert!(false, "a source entry in a slot without its generator");
        return Chunk::default();
    };
    let whole = source.batch(batch);
    let part = if len == 1 {
        Chunk::from(whole)
    } else {
        Chunk::from(bins(&whole, len).swap_remove(k - start))
    };
    task.out_buffer[k][i].1 = Held::Source(part.downgrade(), tuple_count(part.len()));
    part
}

/// Schedules a Data delivery to the primary slot and replica slot (if
/// any) of a logical task.
#[expect(clippy::too_many_arguments, reason = "the fields of one Deliver event")]
pub(super) fn deliver_to(
    cx: &mut LaneCtx<'_>,
    to: TaskIndex,
    substream: usize,
    batch: u64,
    tuples: Chunk,
    degraded: bool,
    replay_for: Option<TaskIndex>,
    at: SimTime,
) {
    *cx.tuples_moved += tuples.len() as u64;
    cx.sched.at(
        at,
        Event::Deliver {
            to: to.0,
            substream,
            batch,
            msg: Msg::Data {
                tuples: tuples.clone(),
                degraded,
                replay_for,
            },
        },
    );
    if let Some(slot) = cx.replica_slot[to.0] {
        *cx.tuples_moved += tuples.len() as u64;
        cx.sched.at(
            at,
            Event::Deliver {
                to: slot,
                substream,
                batch,
                msg: Msg::Data {
                    tuples,
                    degraded,
                    replay_for,
                },
            },
        );
    }
}

/// [`Event::Deliver`]. Returns the instant the task's catch-up completed,
/// if this delivery completed it.
pub(super) fn deliver(
    cx: &mut LaneCtx<'_>,
    task: &mut TaskRt,
    busy: &mut SimTime,
    substream: usize,
    batch: u64,
    msg: Msg,
) -> Option<SimTime> {
    match task.status {
        // Memory of dead/loading incarnations is gone; upstream buffers
        // (or checkpointed buffers) re-serve these batches after restore.
        Status::Dead | Status::Restoring => return None,
        Status::Running | Status::CatchingUp => {}
    }
    match msg {
        Msg::Proxy => {
            let c = &mut task.closed[substream];
            *c = (*c).max(batch + 1);
        }
        Msg::Data {
            tuples,
            degraded,
            replay_for,
        } => {
            // Storm replay forwarding: a hop that already processed this
            // batch recharges reprocessing CPU and forwards its own
            // buffered output toward the recovering task.
            if let Some(target) = replay_for {
                if task.logical != target && batch < task.next_batch {
                    forward_replay(cx, task, busy, batch, tuples.len(), target);
                    return None;
                }
            }
            if batch < task.next_batch
                || batch < task.closed[substream]
                || task.staged[substream].contains_key(&batch)
            {
                return None; // duplicate
            }
            task.staged[substream].insert(batch, (tuples, degraded));
        }
    }
    try_process(cx, task, busy)
}

/// Storm-mode hop forwarding: charge replay CPU, forward the hop's own
/// buffered output for this batch along edges toward `target`.
fn forward_replay(
    cx: &mut LaneCtx<'_>,
    task: &mut TaskRt,
    busy: &mut SimTime,
    batch: u64,
    in_tuples: usize,
    target: TaskIndex,
) {
    let work = cx.config.costs.replay_per_tuple * in_tuples as u64 + cx.config.costs.batch_overhead;
    let finish = reserve(busy, cx.sched.now(), work);
    task.cpu.processing += work;
    let deliver_at = finish + cx.config.costs.network_latency;
    let Some(cone) = cx.replay_cones.get(&target.0) else {
        debug_assert!(
            false,
            "replay delivery for a target whose replay never started"
        );
        return;
    };
    for k in 0..task.out_targets.len() {
        let (to, to_substream) = (task.out_targets[k].to, task.out_targets[k].to_substream);
        if !cone.contains(to) {
            continue;
        }
        if let Some(i) = task.out_buffer[k].iter().position(|(b, _, _)| *b == batch) {
            let tuples = held_chunk(task, k, i);
            deliver_to(
                cx,
                to,
                to_substream,
                batch,
                tuples,
                false,
                Some(target),
                deliver_at,
            );
        }
    }
}

/// Processes as many consecutive ready batches as possible (deliveries
/// and restore paths). Returns the instant the task's catch-up completed,
/// if one of the batches completed it — at most one can, because the
/// task is `Running` from then on.
pub(super) fn try_process(
    cx: &mut LaneCtx<'_>,
    task: &mut TaskRt,
    busy: &mut SimTime,
) -> Option<SimTime> {
    let mut caught_up = None;
    loop {
        let b = task.next_batch;
        if !task.ready(b) {
            return caught_up;
        }
        caught_up = caught_up.or(process_batch(cx, task, busy, b));
    }
}

fn process_batch(
    cx: &mut LaneCtx<'_>,
    task: &mut TaskRt,
    busy: &mut SimTime,
    b: u64,
) -> Option<SimTime> {
    if task.udf.is_none() {
        // Never reached for well-formed graphs (sources have no inputs,
        // so nothing is delivered to them); advance the cursor anyway so
        // `try_process` cannot spin.
        debug_assert!(false, "process_batch on a task without a UDF");
        task.next_batch = b + 1;
        return None;
    }
    // Gather this batch's chunk per flat substream; the streams' inputs
    // borrow them in place.
    let mut degraded = false;
    let mut total_in = 0usize;
    let mut chunks: Vec<Chunk> = Vec::with_capacity(task.n_substreams());
    for s in 0..task.n_substreams() {
        match task.staged[s].remove(&b) {
            Some((tuples, d)) => {
                degraded |= d;
                total_in += tuples.len();
                chunks.push(tuples);
            }
            None => {
                // Closed by proxy: missing contribution.
                debug_assert!(task.closed[s] > b);
                degraded = true;
                chunks.push(Chunk::default());
            }
        }
        // Drop any stale staged batches below the cursor.
        while let Some((&k, _)) = task.staged[s].iter().next() {
            if k <= b {
                task.staged[s].remove(&k);
            } else {
                break;
            }
        }
    }

    // CPU charge.
    let catching_up = task.status == Status::CatchingUp;
    let per_tuple = if catching_up {
        cx.config.costs.replay_per_tuple
    } else {
        cx.config.costs.process_per_tuple
    };
    let work = cx.config.costs.batch_overhead + per_tuple * total_in as u64;
    let finish = reserve(busy, cx.sched.now(), work);
    task.cpu.processing += work;

    // Run the UDF.
    let mut out = Output::new();
    {
        let op = cx.graph.operator_of(task.logical);
        let ctx = BatchCtx {
            batch: b,
            now: finish,
            task_local: cx.graph.local_index(task.logical),
            parallelism: cx.graph.topology().operator(op).parallelism,
        };
        // Flat substreams are laid out stream by stream.
        let mut rest = chunks.as_slice();
        let inputs: Vec<InputBatch<'_>> = cx
            .graph
            .inputs(task.logical)
            .iter()
            .enumerate()
            .map(|(stream, input)| {
                let n = input.substreams.len().min(rest.len());
                let (head, tail) = rest.split_at(n);
                rest = tail;
                InputBatch::new(stream, head)
            })
            .collect();
        if let Some(udf) = task.udf.as_mut() {
            udf.on_batch(&ctx, &inputs, &mut out);
        }
        task.next_batch = b + 1;
    }
    let out = out.into_chunk();

    // Recovery completion check: progress vector dominated. Handed back
    // (not applied here) because the outage books are the simulation's.
    let mut caught_up = None;
    if catching_up {
        if let Some(pre) = task.pre_failure_progress {
            if task.next_batch >= pre {
                task.status = Status::Running;
                caught_up = Some(finish);
            }
        }
    }

    // Approximate mode: every absorbed input tuple is one unit of state
    // drift. The first batch that pushes the drift across the error
    // bound arms a backup ship at this batch's CPU finish; replicas and
    // catch-up replay never ship (a replica's primary owns the drift,
    // and catch-up reprocesses tuples already counted).
    if let Backup::Divergence(error_bound) = cx.backup {
        if !task.is_replica && !catching_up && task.divergence.absorb(total_in as u64, error_bound)
        {
            cx.sched
                .at(finish, Event::ApproxShip { rt: task.logical.0 });
        }
    }

    // Sink collection: active incarnations record directly; muted sink
    // replicas stash records so a takeover can backfill the gap between
    // the primary's death and its own activation (replica sync trims the
    // stash below the primary's progress).
    if cx.graph.is_sink_task(task.logical) {
        let record = SinkBatch {
            task: task.logical,
            batch: b,
            at: finish,
            tentative: degraded,
            tuples: out.clone(),
        };
        if task.outputs_enabled {
            cx.sink.push(record);
        } else {
            task.pending_sink.push(record);
        }
    }

    emit(cx, task, b, out, degraded, finish);
    trim_storm_buffer(cx, task);
    caught_up
}

/// Storm mode keeps only the replay window (plus a safety margin so a
/// recovering task's oldest needed batch is still forwardable by hops
/// whose cursors run slightly ahead) in output buffers.
fn trim_storm_buffer(cx: &LaneCtx<'_>, task: &mut TaskRt) {
    if let Backup::SourceBuffer(w) = cx.backup {
        let min_keep = task.next_batch.saturating_sub(w + 5);
        for q in &mut task.out_buffer {
            trim_below(q, min_keep);
        }
    }
}
