//! Recovery: what happens between an outage's detection and its close.
//!
//! The three passive families — checkpoint restore + replay, AF-Stream's
//! lossy restore and Storm's source replay — are one recovery at three
//! strengths: rewind to a backup, re-serve the gap, resume. They run
//! through one executor, [`Simulation::restore`], a fixed sequence of the
//! shared steps below (`rewind`, `resume_source`, `flush_out_buffer`,
//! `forfeit_to_frontier`, `reserve_from_upstreams`,
//! `replay_from_sources`); a family is three choices on that path —
//! where to rewind, which cursor to resume from, who re-serves the gap —
//! each read off the run's [`Backup`]. The steps schedule in a fixed
//! order (a consumer's primary before its replica, targets in
//! `out_targets` order, upstreams in `sub_from` order), which is what
//! keeps same-instant tie-breaks stable. Active replication's takeover
//! and the master's proxy punctuations (tentative output while an outage
//! is open) live here too.

use super::{lane, Backup, Checkpoint, Event, Msg, Rt, Simulation, Status};
use crate::placement::NodeId;
use ppa_core::{TaskIndex, TaskSet};
use ppa_obs::EngineEvent;
use ppa_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

impl Simulation {
    /// Starts the recovery of freshly detected task `t`: replica takeover
    /// when a live replica exists (lossless under every replicating
    /// mode), else the passive restore, billed for the checkpoint it
    /// loads (none under Storm: its load is the bare batch overhead).
    pub(super) fn start_recovery(&mut self, t: usize) {
        if let Backup::None = self.backup {
            return; // stays dead
        }
        if let Some(slot) = self.replica_slot[t] {
            if self.tasks[slot].status == Status::Running {
                let buffered = self.tasks[slot].buffered_tuples();
                let work = self.config.costs.resend_per_tuple * buffered as u64
                    + self.config.costs.batch_overhead;
                let finish = self.reserve_from(self.tasks[slot].node, work, self.sched.now());
                self.sched.at(finish, Event::TakeoverDone { logical: t });
                return;
            }
        }
        let state = self.tasks[t]
            .checkpoint
            .as_ref()
            .map_or(0, |cp| cp.state_tuples);
        self.begin_restore(t, self.state_ship_work(state));
    }

    /// Schedules task `t`'s passive restore, `work` of loading, on its
    /// recovery node — unless passive recovery is held down (steady-state
    /// tentative sampling) or no node is left alive, in which case the
    /// outage stays open.
    fn begin_restore(&mut self, t: usize, work: SimDuration) {
        if !self.config.passive_recovery {
            return;
        }
        let Some(standby) = self.recovery_node(t) else {
            return;
        };
        self.tasks[t].status = Status::Restoring;
        self.tasks[t].node = standby;
        let finish = self.reserve_from(standby, work, self.sched.now());
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

    pub(super) fn on_restore_done(&mut self, rt: Rt) {
        let logical = self.tasks[rt].logical.0;
        // A restore whose target died again mid-load is void — the open
        // outage was re-armed and the re-detection path owns the task now
        // (resurrecting it here would run it on a dead node).
        if self.tasks[rt].status != Status::Restoring {
            let now = self.sched.now();
            self.note(now, EngineEvent::RestoreVoided { task: logical });
            return;
        }
        // Buggify: a stalled state load hangs the completion; the task
        // stays `Restoring` (and its outage open) for the stall.
        if let Some(by) = self.buggify.restore_stall.remove(&logical) {
            self.sched.after(by, Event::RestoreDone { rt });
            return;
        }
        self.restore(rt);
    }

    /// The one passive restore, once slot `rt`'s load has finished:
    /// 1. rewind — to the last snapshot (or scratch), or under Storm to
    ///    scratch one replay window before the failure;
    /// 2. a source resumes by regeneration and is done;
    /// 3. flush the restored output buffer downstream;
    /// 4. choose the cursor — the rewound `next_batch`, or under
    ///    approximate mode the stream frontier (`forfeit_to_frontier`);
    /// 5. have the gap from the cursor on re-served — by the upstreams,
    ///    or under Storm by the live sources of the upstream cone;
    /// 6. process whatever is ready; the outage closes when the replay
    ///    catches up (approximate mode closed it at step 4).
    fn restore(&mut self, rt: Rt) {
        let (snapshot, scratch) = match self.backup {
            Backup::SourceBuffer(window) => {
                let pre = self.tasks[rt].pre_failure_progress.unwrap_or(0);
                (None, pre.saturating_sub(window))
            }
            _ => (self.tasks[rt].checkpoint.clone(), 0),
        };
        self.rewind(rt, snapshot, scratch);
        if self.tasks[rt].source.is_some() {
            // Regeneration is exact: a source forfeits nothing.
            return self.resume_source(rt);
        }
        let at = self.sched.now() + self.config.costs.network_latency;
        self.flush_out_buffer(rt, at);
        let cursor = match self.backup {
            Backup::Divergence(_) => self.forfeit_to_frontier(rt, at),
            _ => self.tasks[rt].next_batch,
        };
        match self.backup {
            Backup::SourceBuffer(_) => self.replay_from_sources(rt, cursor, at),
            _ => self.reserve_from_upstreams(rt, cursor, at),
        }
        self.try_process(rt);
    }

    // ------------------------------------------------------------------
    // The shared steps
    // ------------------------------------------------------------------

    /// Rewind: slot `rt` goes back to `snapshot` — or, with none, to an
    /// empty operator at batch `scratch` — drops what it had staged and
    /// is `CatchingUp`.
    fn rewind(&mut self, rt: Rt, snapshot: Option<Checkpoint>, scratch: u64) {
        let task = &mut self.tasks[rt];
        match snapshot {
            Some(cp) => {
                task.next_batch = cp.batch;
                if cp.udf.is_some() {
                    task.udf = cp.udf;
                }
                task.out_buffer = cp.out_buffer;
                task.closed = cp.closed;
            }
            None => {
                task.next_batch = scratch;
                task.out_buffer.iter_mut().for_each(VecDeque::clear);
                task.closed.fill(scratch);
                if let Some(fresh) = &self.fresh_udf[task.logical.0] {
                    task.udf = Some(fresh.snapshot());
                }
            }
        }
        task.staged.iter_mut().for_each(BTreeMap::clear);
        task.status = Status::CatchingUp;
    }

    /// Regenerates every batch source slot `rt` has missed up to the
    /// stream frontier. Generation is deterministic per batch id, so this
    /// is exact under every mode.
    pub(super) fn regenerate_source(&mut self, rt: Rt) {
        for b in self.tasks[rt].next_batch..self.current_batch() {
            self.generate_source_batch(rt, b, true);
        }
    }

    /// Re-serve and resume for a rewound source: once its missed batches
    /// are regenerated it is caught up, at its node's CPU horizon.
    fn resume_source(&mut self, rt: Rt) {
        self.regenerate_source(rt);
        self.tasks[rt].status = Status::Running;
        let at = self.node_busy[self.tasks[rt].node].max(self.sched.now());
        self.mark_recovered(self.tasks[rt].logical.0, at, false);
    }

    /// Asks the live incarnation of every upstream of slot `rt` to
    /// re-serve its buffered batches `>= cursor`, arriving at `at`; dead
    /// upstreams re-serve on their own restore.
    pub(super) fn reserve_from_upstreams(&mut self, rt: Rt, cursor: u64, at: SimTime) {
        let logical = self.tasks[rt].logical;
        for u in self.upstreams_of(rt) {
            let sender = self.active_slot(u.0);
            if matches!(
                self.tasks[sender].status,
                Status::Running | Status::CatchingUp
            ) {
                self.resend(sender, cursor, at, None, |_, to| to == logical);
            }
        }
    }

    /// A master proxy punctuation for task `t`: closes its batches
    /// `..= batch` at every consumer, arriving at `at`.
    fn send_proxy(&mut self, t: usize, batch: u64, at: SimTime) {
        for k in 0..self.tasks[t].out_targets.len() {
            let tgt = &self.tasks[t].out_targets[k];
            let (to, substream) = (tgt.to.0, tgt.to_substream);
            for to in std::iter::once(to).chain(self.replica_slot[to]) {
                self.sched.at(
                    at,
                    Event::Deliver {
                        to,
                        substream,
                        batch,
                        msg: Msg::Proxy,
                    },
                );
            }
        }
    }

    /// Re-sends slot `rt`'s buffered batches `>= cursor` on the out targets
    /// `keep` selects, to the primary and replica incarnation of each — the
    /// buffered chunks themselves, not copies, or a source's regenerated
    /// batches (see [`lane::held_chunk`]). `replay_for` flags a Storm
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
        for k in 0..task.out_targets.len() {
            let (to, sub) = (task.out_targets[k].to, task.out_targets[k].to_substream);
            if !keep(&cx, to) {
                continue;
            }
            for i in 0..task.out_buffer[k].len() {
                let (b, _, degraded) = task.out_buffer[k][i];
                if b < cursor {
                    continue;
                }
                let degraded = degraded && replay_for.is_none();
                let tuples = lane::held_chunk(task, k, i);
                lane::deliver_to(&mut cx, to, sub, b, tuples, degraded, replay_for, at);
            }
        }
    }

    /// Flushes a slot's entire output buffer downstream (dedup makes this
    /// idempotent); used at replica takeover and restore.
    fn flush_out_buffer(&mut self, rt: Rt, at: SimTime) {
        self.resend(rt, 0, at, None, |_, _| true);
    }

    /// Approximate mode's cursor: a jump straight to the stream frontier
    /// *without* replaying the gap. The batches between the snapshot and
    /// the frontier are forfeited; one cumulative proxy per out-edge
    /// (`Msg::Proxy` at batch `frontier - 1`, arriving at `at`) closes them
    /// downstream so healthy consumers never stall waiting for output
    /// that will never come. It follows the flush, or it would close
    /// batches the flush re-serves and consumers would drop them as
    /// duplicates. The loss is noted as an `ApproxRecovery` event — the
    /// drift forfeited and the batches skipped — and the outage closes
    /// at `now`, the restore's own CPU-reserved completion instant: the
    /// jump is pure bookkeeping, so progress dominates here, not after
    /// whatever other restores are queued on this standby.
    fn forfeit_to_frontier(&mut self, rt: Rt, at: SimTime) -> u64 {
        let now = self.sched.now();
        let logical = self.tasks[rt].logical.0;
        let frontier = self.current_batch();
        let task = &mut self.tasks[rt];
        let skipped = frontier.saturating_sub(task.next_batch);
        task.next_batch = task.next_batch.max(frontier);
        // The forfeited gap will never arrive from upstream either:
        // close it so `ready` never waits on it.
        for c in &mut task.closed {
            *c = (*c).max(frontier);
        }
        task.status = Status::Running;
        let divergence = task.divergence.pending();
        task.divergence.reset();
        if frontier > 0 {
            self.send_proxy(logical, frontier - 1, at);
        }
        self.note(
            now,
            EngineEvent::ApproxRecovery {
                task: logical,
                divergence,
                skipped_batches: skipped,
            },
        );
        self.mark_recovered(logical, now, false);
        frontier
    }

    /// Storm's re-serve: the live sources of slot `rt`'s upstream cone
    /// replay their buffered batches `>= cursor` toward it along every
    /// edge inside the cone (the target included), hops forwarding with
    /// reprocessing charges.
    fn replay_from_sources(&mut self, rt: Rt, cursor: u64, at: SimTime) {
        let logical = self.tasks[rt].logical;
        let graph = &self.graph;
        self.replay_cones.entry(logical.0).or_insert_with(|| {
            graph.upstream_closure(&TaskSet::from_tasks(graph.n_tasks(), [logical]))
        });
        let live_sources: Vec<Rt> = self.replay_cones[&logical.0]
            .iter()
            .map(|u| u.0)
            .filter(|&s| {
                self.tasks[s].source.is_some()
                    && !matches!(self.tasks[s].status, Status::Dead | Status::Restoring)
            })
            .collect();
        for s in live_sources {
            self.resend(s, cursor, at, Some(logical), |cx, to| {
                cx.replay_cones[&logical.0].contains(to)
            });
        }
    }

    // ------------------------------------------------------------------
    // Active replication: takeover
    // ------------------------------------------------------------------

    pub(super) fn on_takeover_done(&mut self, logical: usize) {
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
        self.mark_recovered(logical, now, true);
    }

    // ------------------------------------------------------------------
    // Tentative outputs (proxy punctuations)
    // ------------------------------------------------------------------

    pub(super) fn on_proxy_tick(&mut self) {
        self.sched
            .after(self.config.batch_interval, Event::ProxyTick);
        if !matches!(self.backup, Backup::Checkpoint(_) | Backup::Divergence(_)) {
            return;
        }
        let frontier = self.current_batch().saturating_sub(1);
        let now = self.sched.now();
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
            if !self.outages.awaiting_recovery(t) {
                continue;
            }
            // The first proxy of this outage record: tentative (degraded)
            // output starts flowing downstream.
            if !self.tasks[t].out_targets.is_empty() && !self.outages.tentative(t) {
                self.note(now, EngineEvent::TentativeResumed { task: t });
            }
            self.send_proxy(t, frontier, now + self.config.costs.network_latency);
        }
    }
}
