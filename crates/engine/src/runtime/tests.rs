//! End-to-end protocol tests for the simulated cluster: dataflow, batch
//! gating, checkpoint restore, replica takeover, Storm replay, tentative
//! outputs, determinism.

use super::*;
use crate::config::{CostModel, EngineConfig, FtMode};
use crate::control::{ControlAction, DriveReport, HealthView};
use crate::placement::Placement;
use crate::query::{Query, QueryBuilder};
use crate::tuple::Tuple;
use crate::udf::{BatchCtx, CountingSource, InputBatch, Output, Udf, WindowBuffer};
use ppa_core::TaskSet;
use ppa_core::{OperatorSpec, Partitioning};
use ppa_faults::FailureTrace;
use std::error::Error;

type TestResult = Result<(), Box<dyn Error>>;

/// A stateful pass-through pricing a sliding window of its input — the
/// shape of the paper's synthetic operators (state grows with window×rate).
#[derive(Clone)]
struct WindowedPass {
    window_batches: u64,
    buf: WindowBuffer,
}

impl WindowedPass {
    fn new(window_batches: u64) -> Self {
        WindowedPass {
            window_batches,
            buf: WindowBuffer::new(),
        }
    }
}

impl Udf for WindowedPass {
    fn on_batch(&mut self, ctx: &BatchCtx, inputs: &[InputBatch<'_>], out: &mut Output) {
        for i in inputs {
            out.extend(i.iter().cloned());
        }
        let tuples = inputs.iter().map(InputBatch::len).sum();
        self.buf.push(ctx.batch, tuples, self.window_batches);
    }

    fn snapshot(&self) -> Box<dyn Udf> {
        Box::new(self.clone())
    }

    fn state_tuples(&self) -> usize {
        self.buf.len_tuples()
    }
}

/// A mid that emits one tuple per batch, keyed by its window's tuple
/// count once the batch is in: a window a restore rebuilt short shows in
/// the output.
#[derive(Clone)]
struct WindowTotal(WindowedPass);

impl Udf for WindowTotal {
    fn on_batch(&mut self, ctx: &BatchCtx, inputs: &[InputBatch<'_>], out: &mut Output) {
        let WindowTotal(pass) = self;
        let tuples = inputs.iter().map(InputBatch::len).sum();
        pass.buf.push(ctx.batch, tuples, pass.window_batches);
        out.push(Tuple::key_only(pass.buf.len_tuples() as u64));
    }

    fn snapshot(&self) -> Box<dyn Udf> {
        Box::new(self.clone())
    }

    fn state_tuples(&self) -> usize {
        self.0.state_tuples()
    }
}

/// source(2 tasks) -> mid(2, one-to-one) -> sink(1, merge).
fn chain_query(per_batch: usize, window_batches: u64) -> Result<Query, Box<dyn Error>> {
    chain_with_mid(per_batch, window_batches, |w| {
        Box::new(WindowedPass::new(w))
    })
}

/// [`chain_query`] with `mid(window_batches)` as the mid operator.
fn chain_with_mid(
    per_batch: usize,
    window_batches: u64,
    mid: fn(u64) -> Box<dyn Udf>,
) -> Result<Query, Box<dyn Error>> {
    let mut q = QueryBuilder::new();
    let s = q.add_source(
        OperatorSpec::source("src", 2, per_batch as f64),
        move |task| {
            Box::new(CountingSource {
                per_batch,
                seed: 1000 + task as u64,
                key_space: 256,
            })
        },
    );
    let m = q.add_operator(OperatorSpec::map("mid", 2, 1.0), move |_| {
        mid(window_batches)
    });
    let k = q.add_operator(OperatorSpec::map("sink", 1, 1.0), move |_| {
        Box::new(WindowedPass::new(window_batches))
    });
    q.connect(s, m, Partitioning::OneToOne)?;
    q.connect(m, k, Partitioning::Merge)?;
    Ok(q.build()?)
}

/// source(12) -> mid(12, one-to-one) -> sink(1, merge): twelve identical
/// stateful mids, for aggregate-migration accounting.
fn wide_query(per_batch: usize, window_batches: u64) -> Result<Query, Box<dyn Error>> {
    let mut q = QueryBuilder::new();
    let s = q.add_source(
        OperatorSpec::source("src", 12, per_batch as f64),
        move |task| {
            Box::new(CountingSource {
                per_batch,
                seed: 2000 + task as u64,
                key_space: 256,
            })
        },
    );
    let m = q.add_operator(OperatorSpec::map("mid", 12, 1.0), move |_| {
        Box::new(WindowedPass::new(window_batches))
    });
    let k = q.add_operator(OperatorSpec::map("sink", 1, 1.0), move |_| {
        Box::new(WindowedPass::new(window_batches))
    });
    q.connect(s, m, Partitioning::OneToOne)?;
    q.connect(m, k, Partitioning::Merge)?;
    Ok(q.build()?)
}

fn one_task_per_node(q: &Query) -> Result<Placement, Box<dyn Error>> {
    let graph = ppa_core::TaskGraph::new(q.topology().clone());
    let n = graph.n_tasks();
    Ok(Placement::explicit(
        (0..n).collect(),
        (n..2 * n).collect(),
        n,
        n,
    )?)
}

fn base_config(mode: FtMode) -> EngineConfig {
    EngineConfig {
        mode,
        ..EngineConfig::default()
    }
}

/// Drives `sim` on to `secs` with nobody at the controls, feeding it
/// `failures` first — a mid-run injection when `sim` has run before.
fn drive_to(
    sim: &mut Simulation,
    secs: u64,
    failures: Vec<FailureSpec>,
) -> Result<RunReport, EngineError> {
    let until = SimTime::from_secs(secs);
    Ok(sim
        .drive(&failures.into(), &mut StaticPolicy, until)?
        .report)
}

/// One node killed at `secs`.
fn kill(secs: u64, node: usize) -> FailureSpec {
    FailureSpec {
        at: SimTime::from_secs(secs),
        nodes: vec![node],
    }
}

/// Node hosting the primary of task `t` under one-task-per-node placement.
fn node_of(t: usize) -> usize {
    t
}

#[test]
fn data_flows_to_the_sink() -> TestResult {
    let q = chain_query(100, 5)?;
    let report = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::None),
        vec![],
        SimDuration::from_secs(10),
    );
    assert!(!report.sink.is_empty());
    // Every sink batch merges both sources via the two mids: 200 tuples.
    for s in &report.sink {
        assert_eq!(s.tuples.len(), 200, "batch {}", s.batch);
        assert!(!s.tentative);
    }
    // Batches are recorded in order without gaps.
    let batches: Vec<u64> = report.sink.iter().map(|s| s.batch).collect();
    let expect: Vec<u64> = (0..batches.len() as u64).collect();
    assert_eq!(batches, expect);
    Ok(())
}

#[test]
fn runs_are_deterministic() -> TestResult {
    let digest = |rep: &RunReport| -> Vec<(u64, usize, bool)> {
        rep.sink
            .iter()
            .map(|s| (s.batch, s.tuples.len(), s.tentative))
            .collect()
    };
    let q = chain_query(50, 5)?;
    let a = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::checkpoint(5, SimDuration::from_secs(5))),
        vec![FailureSpec {
            at: SimTime::from_secs(12),
            nodes: vec![node_of(2)],
        }],
        SimDuration::from_secs(40),
    );
    let q2 = chain_query(50, 5)?;
    let b = Simulation::run(
        &q2,
        one_task_per_node(&q2)?,
        base_config(FtMode::checkpoint(5, SimDuration::from_secs(5))),
        vec![FailureSpec {
            at: SimTime::from_secs(12),
            nodes: vec![node_of(2)],
        }],
        SimDuration::from_secs(40),
    );
    assert_eq!(digest(&a), digest(&b));
    assert_eq!(a.events, b.events);
    Ok(())
}

#[test]
fn checkpoint_recovery_restores_progress() -> TestResult {
    let q = chain_query(100, 10)?;
    // Kill the node hosting mid task 0 (task index 2) at t=14s.
    let report = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::checkpoint(5, SimDuration::from_secs(5))),
        vec![FailureSpec {
            at: SimTime::from_secs(14),
            nodes: vec![node_of(2)],
        }],
        SimDuration::from_secs(60),
    );
    assert_eq!(report.recoveries().len(), 1);
    let r = &report.recoveries()[0];
    assert_eq!(r.task, TaskIndex(2));
    assert!(!r.via_replica);
    // Detection on the next 5s heartbeat boundary after the failure.
    assert_eq!(r.detected_at, SimTime::from_secs(15));
    let latency = r.latency().ok_or("must recover within the run")?;
    assert!(latency > SimDuration::ZERO);
    assert!(
        latency < SimDuration::from_secs(30),
        "recovery took {latency} — replay backlog too slow"
    );
    // After full recovery the sink produces complete batches again.
    let recovered_at = r.recovered_at.ok_or("recovered within the run")?;
    let late: Vec<_> = report
        .sink
        .iter()
        .filter(|s| s.at > recovered_at + SimDuration::from_secs(10))
        .collect();
    assert!(!late.is_empty());
    assert!(late.iter().all(|s| s.tuples.len() == 200 && !s.tentative));
    Ok(())
}

#[test]
fn tentative_outputs_flow_during_recovery() -> TestResult {
    let q = chain_query(100, 10)?;
    let report = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::checkpoint(5, SimDuration::from_secs(15))),
        vec![FailureSpec {
            at: SimTime::from_secs(21),
            nodes: vec![node_of(2)],
        }],
        SimDuration::from_secs(80),
    );
    // Between detection and recovery the sink keeps producing, flagged
    // tentative and with only half the data (one mid lost).
    let tentative: Vec<_> = report.sink.iter().filter(|s| s.tentative).collect();
    assert!(
        !tentative.is_empty(),
        "proxy punctuations must unblock the sink"
    );
    for s in &tentative {
        assert_eq!(s.tuples.len(), 100, "half the input is missing");
    }
    // The first tentative output arrives quickly after detection (≪ full
    // recovery — the conclusion's headline effect).
    let detected = report.recoveries()[0].detected_at;
    let first_tentative = report
        .first_tentative_after(detected)
        .ok_or("tentative output after detection")?;
    let recovered = report.recoveries()[0]
        .recovered_at
        .ok_or("recovered within the run")?;
    assert!(first_tentative < recovered);
    assert!(first_tentative.since(detected) < SimDuration::from_secs(3));
    Ok(())
}

#[test]
fn replica_takeover_is_fast() -> TestResult {
    let q = chain_query(100, 10)?;
    let n = 5;
    let report = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::active(n)),
        vec![FailureSpec {
            at: SimTime::from_secs(14),
            nodes: vec![node_of(2)],
        }],
        SimDuration::from_secs(40),
    );
    let r = &report.recoveries()[0];
    assert!(r.via_replica);
    let active_latency = r.latency().ok_or("takeover completes")?;
    assert!(
        active_latency < SimDuration::from_secs(1),
        "takeover should be near-instant, got {active_latency}"
    );
    // The sink never misses a batch: the replica backfills.
    let batches: Vec<u64> = {
        let mut b: Vec<u64> = report.sink.iter().map(|s| s.batch).collect();
        b.sort_unstable();
        b.dedup();
        b
    };
    let last = batches.last().copied().ok_or("sink produced batches")?;
    let expect: Vec<u64> = (0..last + 1).collect();
    assert_eq!(batches, expect, "no sink gaps across the takeover");
    Ok(())
}

#[test]
fn active_beats_checkpoint_on_latency() -> TestResult {
    let q = chain_query(100, 10)?;
    let active = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::active(5)),
        vec![FailureSpec {
            at: SimTime::from_secs(14),
            nodes: vec![node_of(2)],
        }],
        SimDuration::from_secs(60),
    );
    let q2 = chain_query(100, 10)?;
    let passive = Simulation::run(
        &q2,
        one_task_per_node(&q2)?,
        base_config(FtMode::checkpoint(5, SimDuration::from_secs(15))),
        vec![FailureSpec {
            at: SimTime::from_secs(14),
            nodes: vec![node_of(2)],
        }],
        SimDuration::from_secs(60),
    );
    let a = active.recoveries()[0].latency().ok_or("active recovers")?;
    let p = passive.recoveries()[0]
        .latency()
        .ok_or("passive recovers")?;
    assert!(a < p, "active {a} must beat passive {p}");
    Ok(())
}

#[test]
fn longer_checkpoint_interval_slows_recovery() -> TestResult {
    let lat = |interval: u64| -> Result<SimDuration, Box<dyn Error>> {
        let q = chain_query(100, 10)?;
        let rep = Simulation::run(
            &q,
            one_task_per_node(&q)?,
            base_config(FtMode::checkpoint(5, SimDuration::from_secs(interval))),
            vec![FailureSpec {
                at: SimTime::from_secs(33),
                nodes: vec![node_of(2)],
            }],
            SimDuration::from_secs(120),
        );
        Ok(rep.recoveries()[0].latency().ok_or("recovers")?)
    };
    let fast = lat(5)?;
    let slow = lat(30)?;
    assert!(
        slow > fast,
        "30s checkpoints ({slow}) must recover slower than 5s ({fast})"
    );
    Ok(())
}

#[test]
fn checkpoint_cpu_ratio_grows_with_frequency() -> TestResult {
    let ratio = |interval: u64| -> Result<f64, Box<dyn Error>> {
        let q = chain_query(200, 20)?;
        let rep = Simulation::run(
            &q,
            one_task_per_node(&q)?,
            base_config(FtMode::checkpoint(5, SimDuration::from_secs(interval))),
            vec![],
            SimDuration::from_secs(60),
        );
        // Mid task 0 (task 2) is a stateful windowed op.
        Ok(rep.cpu[2].checkpoint_ratio())
    };
    let frequent = ratio(1)?;
    let rare = ratio(15)?;
    assert!(
        frequent > rare,
        "1s interval ({frequent}) must cost more than 15s ({rare})"
    );
    assert!(frequent > 0.0 && rare > 0.0);
    Ok(())
}

#[test]
fn storm_source_replay_recovers() -> TestResult {
    let q = chain_query(100, 8)?;
    let report = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::SourceReplay {
            buffer: SimDuration::from_secs(10),
        }),
        vec![FailureSpec {
            at: SimTime::from_secs(22),
            nodes: vec![node_of(2)],
        }],
        SimDuration::from_secs(80),
    );
    let r = &report.recoveries()[0];
    assert!(r.recovered_at.is_some(), "storm replay must complete");
    assert!(!r.via_replica);
    // After recovery the sink is whole again.
    let recovered = r.recovered_at.ok_or("storm replay completes")?;
    let late: Vec<_> = report
        .sink
        .iter()
        .filter(|s| s.at > recovered + SimDuration::from_secs(10))
        .collect();
    assert!(!late.is_empty());
    assert!(late.iter().all(|s| s.tuples.len() == 200));
    Ok(())
}

#[test]
fn storm_replay_reaches_deep_tasks_through_hops() -> TestResult {
    // Kill the sink: replay must cascade source -> mid -> sink.
    let q = chain_query(100, 8)?;
    let report = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::SourceReplay {
            buffer: SimDuration::from_secs(10),
        }),
        vec![FailureSpec {
            at: SimTime::from_secs(22),
            nodes: vec![node_of(4)],
        }],
        SimDuration::from_secs(80),
    );
    let r = &report.recoveries()[0];
    assert_eq!(r.task, TaskIndex(4));
    assert!(
        r.recovered_at.is_some(),
        "deep task must recover via hop forwarding"
    );
    Ok(())
}

#[test]
fn correlated_failure_recovers_all_tasks() -> TestResult {
    let q = chain_query(100, 10)?;
    // Kill all three non-source nodes simultaneously.
    let report = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::checkpoint(5, SimDuration::from_secs(5))),
        vec![FailureSpec {
            at: SimTime::from_secs(14),
            nodes: vec![node_of(2), node_of(3), node_of(4)],
        }],
        SimDuration::from_secs(120),
    );
    assert_eq!(report.recoveries().len(), 3);
    for r in &report.recoveries() {
        assert!(r.recovered_at.is_some(), "task {:?} stuck", r.task);
    }
    // Downstream recovery is gated by upstream regeneration: the sink's
    // completion can be no earlier than its upstream mid's.
    let rec_of = |t: usize| -> Result<SimTime, Box<dyn Error>> {
        report
            .recoveries()
            .iter()
            .find(|r| r.task == TaskIndex(t))
            .and_then(|r| r.recovered_at)
            .ok_or_else(|| format!("task {t} did not recover").into())
    };
    assert!(rec_of(4)? >= rec_of(2)?.min(rec_of(3)?));
    Ok(())
}

#[test]
fn correlated_recovery_is_slower_than_single() -> TestResult {
    let single = {
        let q = chain_query(100, 10)?;
        Simulation::run(
            &q,
            one_task_per_node(&q)?,
            base_config(FtMode::checkpoint(5, SimDuration::from_secs(15))),
            vec![FailureSpec {
                at: SimTime::from_secs(33),
                nodes: vec![node_of(2)],
            }],
            SimDuration::from_secs(150),
        )
    };
    let correlated = {
        let q = chain_query(100, 10)?;
        Simulation::run(
            &q,
            one_task_per_node(&q)?,
            base_config(FtMode::checkpoint(5, SimDuration::from_secs(15))),
            vec![FailureSpec {
                at: SimTime::from_secs(33),
                nodes: vec![node_of(2), node_of(3), node_of(4)],
            }],
            SimDuration::from_secs(150),
        )
    };
    let s = single.mean_recovery_latency().ok_or("single recovers")?;
    let c = correlated
        .mean_recovery_latency()
        .ok_or("correlated recovers")?;
    assert!(c > s, "correlated ({c}) must exceed single ({s})");
    Ok(())
}

#[test]
fn partial_plan_recovers_replicated_tasks_first() -> TestResult {
    let q = chain_query(100, 10)?;
    // Replicate the sink-side MC-tree: source 0, mid 0, sink.
    let plan = TaskSet::from_tasks(5, [TaskIndex(0), TaskIndex(2), TaskIndex(4)]);
    let report = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::ppa(plan, SimDuration::from_secs(15))),
        vec![FailureSpec {
            at: SimTime::from_secs(33),
            nodes: vec![node_of(2), node_of(3), node_of(4)],
        }],
        SimDuration::from_secs(150),
    );
    let by_task = |t: usize| {
        report
            .recoveries()
            .into_iter()
            .find(|r| r.task == TaskIndex(t))
    };
    let (mid0, mid1, sink) = (
        by_task(2).ok_or("task 2 record")?,
        by_task(3).ok_or("task 3 record")?,
        by_task(4).ok_or("task 4 record")?,
    );
    assert!(mid0.via_replica);
    assert!(sink.via_replica);
    assert!(!mid1.via_replica);
    assert!(mid0.latency().ok_or("task 2 recovers")? < mid1.latency().ok_or("task 3 recovers")?);
    // Tentative outputs during mid-1's passive recovery carry only the
    // replicated half.
    let tentative: Vec<_> = report.sink.iter().filter(|s| s.tentative).collect();
    assert!(!tentative.is_empty());
    assert!(tentative.iter().all(|s| s.tuples.len() == 100));
    Ok(())
}

#[test]
fn failed_source_recovers_by_regeneration() -> TestResult {
    let q = chain_query(100, 10)?;
    let report = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::checkpoint(5, SimDuration::from_secs(5))),
        vec![FailureSpec {
            at: SimTime::from_secs(14),
            nodes: vec![node_of(0)],
        }],
        SimDuration::from_secs(60),
    );
    let r = &report.recoveries()[0];
    assert_eq!(r.task, TaskIndex(0));
    assert!(r.recovered_at.is_some());
    // Sink is whole again at the end.
    let last = report.sink.last().ok_or("sink produced output")?;
    assert_eq!(last.tuples.len(), 200);
    Ok(())
}

#[test]
fn cost_model_sanity_under_load() -> TestResult {
    // Even at 2000 tuples/s per source the pipeline keeps up: sink batch b
    // arrives within a few batch intervals of (b+1)·B.
    let q = chain_query(2000, 10)?;
    let report = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::checkpoint(5, SimDuration::from_secs(5))),
        vec![],
        SimDuration::from_secs(30),
    );
    for s in &report.sink {
        let deadline = SimTime::from_secs(s.batch + 4);
        assert!(
            s.at <= deadline,
            "batch {} emitted at {} — pipeline cannot keep up",
            s.batch,
            s.at
        );
    }
    let _ = CostModel::default();
    Ok(())
}

#[test]
fn trace_replay_matches_spec_injection() -> TestResult {
    // Replaying a FailureTrace must be observably identical to feeding
    // the equivalent FailureSpecs by hand — the degenerate-trace refactor
    // of the §VI-A experiments rests on this.
    let digest = |rep: &RunReport| {
        (
            rep.events,
            rep.sink
                .iter()
                .map(|s| (s.batch, s.tuples.len(), s.tentative))
                .collect::<Vec<_>>(),
            rep.recoveries()
                .iter()
                .map(|r| (r.task, r.detected_at, r.recovered_at))
                .collect::<Vec<_>>(),
        )
    };
    let q = chain_query(100, 5)?;
    let mode = || FtMode::Ppa {
        plan: TaskSet::empty(5),
        checkpoint_interval: Some(SimDuration::from_secs(5)),
    };
    let specs = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(mode()),
        vec![
            FailureSpec {
                at: SimTime::from_secs(14),
                nodes: vec![node_of(2)],
            },
            FailureSpec {
                at: SimTime::from_secs(20),
                nodes: vec![node_of(3)],
            },
        ],
        SimDuration::from_secs(60),
    );
    let mut trace = FailureTrace::new();
    trace.push(SimTime::from_secs(20), vec![node_of(3)]);
    trace.push(SimTime::from_secs(14), vec![node_of(2)]);
    let traced = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(mode()),
        &trace,
        SimDuration::from_secs(60),
    );
    assert_eq!(digest(&specs), digest(&traced));
    Ok(())
}

/// A zero interval would re-arm its event at the same instant forever
/// (checkpoints, replica syncs) or generate source batches without end
/// (the batch interval): the simulation builds, and `drive` names the
/// field before it processes a single event.
#[test]
fn a_zero_interval_is_a_typed_error_not_a_hang() -> TestResult {
    let q = chain_query(100, 5)?;
    let zero_checkpoints = base_config(FtMode::checkpoint(5, SimDuration::ZERO));
    let zero_sync = EngineConfig {
        replica_sync_interval: SimDuration::ZERO,
        ..base_config(FtMode::active(5))
    };
    // Storm's replay buffer is converted to batches inside `new`.
    let zero_batches = EngineConfig {
        batch_interval: SimDuration::ZERO,
        ..base_config(FtMode::SourceReplay {
            buffer: SimDuration::from_secs(10),
        })
    };
    for (config, field) in [
        (zero_checkpoints, "checkpoint_interval"),
        (zero_sync, "replica_sync_interval"),
        (zero_batches, "batch_interval"),
    ] {
        let mut sim = Simulation::new(&q, one_task_per_node(&q)?, config);
        let failures = vec![kill(3, node_of(2))];
        assert!(matches!(
            drive_to(&mut sim, 5, failures),
            Err(EngineError::ZeroInterval { field: f }) if f == field
        ));
        assert_eq!(sim.events, 0, "{field}: no event may run");
    }
    Ok(())
}

/// The zero-copy contract of the tuple plane, checked on allocations
/// rather than on a clock (so it executes on any core count): the chunk a
/// task emits is the one delivered; a non-source's output buffer keeps that
/// chunk, while a source's buffer reaches it only for as long as a
/// delivery does; a window prices its input without holding it; a sink
/// record is shared, never copied, by the reports that carry it.
#[test]
fn one_chunk_from_emit_to_delivery_and_sink_record() -> TestResult {
    let window = 3u64;
    let q = chain_query(100, window)?;
    // No checkpoint fires inside the horizon, so no buffer is trimmed and
    // no checkpoint holds a chunk.
    let mode = FtMode::checkpoint(5, SimDuration::from_secs(1000));
    let mut sim = Simulation::new(&q, one_task_per_node(&q)?, base_config(mode));
    let first = drive_to(&mut sim, 8, vec![])?;

    // Hop source 0 -> mid 2 (one-to-one): while a batch is in flight or
    // staged, the source's entry upgrades to the delivered chunk and a
    // re-serve hands out that very chunk; once the mid processed it,
    // nothing holds it (its window counts tuples), and the entry reaches
    // nothing.
    let done = sim.tasks[2].next_batch;
    assert!(done > window + 1, "the window slid at least once");
    let mut unprocessed = 0;
    for i in 0..sim.tasks[0].out_buffer[0].len() {
        let (b, upgraded) = match &sim.tasks[0].out_buffer[0][i] {
            (b, Held::Source(weak, 100), _) => (*b, weak.upgrade()),
            _ => return Err("a source buffers a handle to each 100-tuple batch".into()),
        };
        if b >= done {
            let chunk = upgraded.ok_or(format!("batch {b}: its delivery holds it"))?;
            let reserved = lane::held_chunk(&mut sim.tasks[0], 0, i);
            assert!(Chunk::ptr_eq(&chunk, &reserved), "batch {b}");
            unprocessed += 1;
        } else {
            assert!(upgraded.is_none(), "batch {b}: processed, held by nobody");
        }
    }
    assert!(unprocessed > 0, "a batch is still in flight");

    // Hop mid 2 -> sink 4 (two-way Merge fan-in): once the sink processed
    // a buffered batch, the sender's buffer is its only holder.
    let done = sim.tasks[4].next_batch;
    for (b, held, _) in sim.tasks[2].out_buffer[0].iter().filter(|e| e.0 < done) {
        let Held::Tuples(chunk) = held else {
            return Err("a non-source buffers its tuples".into());
        };
        assert_eq!(chunk.holders(), 1, "2->4 batch {b}");
        assert_eq!(chunk.len(), 100);
    }
    for (receiver, fan_in) in [(2usize, 1usize), (4, 2)] {
        assert_eq!(
            sim.tasks[receiver].state_tuples(),
            window as usize * 100 * fan_in,
            "state is still priced at the full window volume"
        );
    }

    // The sink record is the UDF's output chunk itself: the simulation and
    // every report it has handed out hold the one allocation.
    let second = drive_to(&mut sim, 8, vec![])?;
    assert!(!first.sink.is_empty());
    assert_eq!(first.sink.len(), second.sink.len());
    for (i, record) in sim.sink.iter().enumerate() {
        assert!(Chunk::ptr_eq(&record.tuples, &first.sink[i].tuples));
        assert!(Chunk::ptr_eq(&record.tuples, &second.sink[i].tuples));
        assert_eq!(record.tuples.holders(), 3);
    }
    Ok(())
}

/// source(1) -> mid(2, split: each tuple routed by key hash) -> sink(1,
/// merge): one multi-target source stream.
fn split_query(per_batch: usize, window_batches: u64) -> Result<Query, Box<dyn Error>> {
    let mut q = QueryBuilder::new();
    let s = q.add_source(
        OperatorSpec::source("src", 1, per_batch as f64),
        move |_| {
            Box::new(CountingSource {
                per_batch,
                seed: 3000,
                key_space: 1 << 20,
            })
        },
    );
    let m = q.add_operator(OperatorSpec::map("mid", 2, 1.0), move |_| {
        Box::new(WindowedPass::new(window_batches))
    });
    let k = q.add_operator(OperatorSpec::map("sink", 1, 1.0), move |_| {
        Box::new(WindowedPass::new(window_batches))
    });
    q.connect(s, m, Partitioning::Split)?;
    q.connect(m, k, Partitioning::Merge)?;
    Ok(q.build()?)
}

/// The tuples a slot buffered for out target `k`, by batch (a non-source's
/// buffer, which keeps them).
fn buffered_chunks(task: &TaskRt, k: usize) -> BTreeMap<u64, Chunk> {
    task.out_buffer[k]
        .iter()
        .filter_map(|(b, held, _)| match held {
            Held::Tuples(chunk) => Some((*b, chunk.clone())),
            Held::Source(..) => None,
        })
        .collect()
}

/// A source rebuilds a re-served batch from its id: once the downstream
/// windows dropped a hash-partitioned batch, a re-serve regenerates it and
/// routes each part exactly as `emit` binned it, and a downstream restore
/// that replays those regenerated parts rebuilds the failure-free output.
#[test]
fn a_regenerated_split_batch_is_binned_as_emit_binned_it() -> TestResult {
    let window = 3u64;
    let q = split_query(100, window)?;
    // No checkpoint fires: the killed mid restarts from scratch, so its
    // upstream re-serves every batch from 0.
    let mode = || base_config(FtMode::checkpoint(4, SimDuration::from_secs(1000)));
    let mut golden = Simulation::new(&q, one_task_per_node(&q)?, mode());
    drive_to(&mut golden, 30, vec![])?;
    // Each mid passes its input through, so its own buffer holds what emit
    // binned for it (mids are tasks 1 and 2, fed by out targets 0 and 1).
    for k in 0..2 {
        let binned = buffered_chunks(&golden.tasks[1 + k], 0);
        let windowed_from = golden.tasks[1 + k].next_batch - window;
        let mut regenerated = 0;
        for i in 0..golden.tasks[0].out_buffer[k].len() {
            let b = golden.tasks[0].out_buffer[k][i].0;
            if b >= windowed_from {
                continue;
            }
            let reserved = lane::held_chunk(&mut golden.tasks[0], k, i);
            assert_eq!(Some(&reserved), binned.get(&b), "target {k} batch {b}");
            regenerated += 1;
        }
        assert!(regenerated > 20, "target {k}: {regenerated} batches");
    }

    // Mid 1 dies at 15 s, when its window holds only batches 12..=14 of
    // the source's output: its restore replays from regenerated parts.
    let mut sim = Simulation::new(&q, one_task_per_node(&q)?, mode());
    let report = drive_to(&mut sim, 30, vec![kill(15, node_of(1))])?;
    assert!(report
        .outages
        .iter()
        .flat_map(|o| &o.records)
        .all(|r| !r.open()));
    assert_eq!(report.recoveries().len(), 1);
    let restored = buffered_chunks(&sim.tasks[1], 0);
    let expected = buffered_chunks(&golden.tasks[1], 0);
    assert!(restored.len() > 25);
    for (b, tuples) in &restored {
        assert_eq!(Some(tuples), expected.get(b), "batch {b}");
    }
    Ok(())
}

/// A regenerated batch is rebuilt once per life: the second re-serve of
/// it shares the first's allocation for as long as anyone holds that, and
/// the buffer itself does not keep it alive.
#[test]
fn a_second_reserve_shares_the_first_regeneration() -> TestResult {
    let q = split_query(100, 3)?;
    let config = base_config(FtMode::checkpoint(4, SimDuration::from_secs(1000)));
    let mut sim = Simulation::new(&q, one_task_per_node(&q)?, config);
    drive_to(&mut sim, 10, vec![])?;
    let weak = |sim: &Simulation| match &sim.tasks[0].out_buffer[1][0] {
        (0, Held::Source(weak, _), _) => Ok(weak.upgrade()),
        _ => Err("the source buffers batch 0 as a handle"),
    };
    assert!(weak(&sim)?.is_none(), "the windows slid past batch 0");
    let first = lane::held_chunk(&mut sim.tasks[0], 1, 0);
    let second = lane::held_chunk(&mut sim.tasks[0], 1, 0);
    assert!(Chunk::ptr_eq(&first, &second));
    assert_eq!(first.holders(), 2, "the two re-serves; not the buffer");
    drop((first, second));
    assert!(weak(&sim)?.is_none());
    Ok(())
}

/// A dead incarnation's memory goes with its node: killing the node of a
/// primary with buffered output and of a muted sink replica with stashed
/// records empties both slots' buffers and the stash.
#[test]
fn a_killed_slot_keeps_no_buffers() -> TestResult {
    let q = chain_query(100, 3)?;
    let mut sim = Simulation::new(&q, one_task_per_node(&q)?, base_config(FtMode::active(5)));
    drive_to(&mut sim, 9, vec![])?;
    let (mid, sink_replica) = (2, sim.replica_slot[4].ok_or("the sink is replicated")?);
    let standby = sim.tasks[sink_replica].node;
    assert!(!sim.tasks[mid].out_buffer[0].is_empty());
    assert!(!sim.tasks[sink_replica].pending_sink.is_empty());
    let failure = FailureSpec {
        at: SimTime::from_secs(11),
        nodes: vec![node_of(mid), standby],
    };
    drive_to(&mut sim, 11, vec![failure])?;
    for rt in [mid, sink_replica] {
        assert_eq!(sim.tasks[rt].status, Status::Dead);
        assert!(sim.tasks[rt].out_buffer.iter().all(VecDeque::is_empty));
        assert!(sim.tasks[rt].pending_sink.is_empty());
    }
    Ok(())
}

/// The sink's batch ids in record order, sorted: exactly `0..=last`
/// means every batch was recorded once.
fn sorted_sink_batches(report: &RunReport) -> Vec<u64> {
    let mut batches: Vec<u64> = report.sink.iter().map(|s| s.batch).collect();
    batches.sort_unstable();
    batches
}

/// Every sink takeover records every batch exactly once, wherever the
/// cut falls: the primary's records end below it and the takeover
/// backfills the muted replica's stash from it on.
#[test]
fn every_sink_takeover_records_every_batch_exactly_once() -> TestResult {
    let q = chain_query(100, 3)?;
    for secs in [11, 13, 17, 23] {
        let report = Simulation::run(
            &q,
            one_task_per_node(&q)?,
            base_config(FtMode::active(5)),
            vec![kill(secs, node_of(4))],
            SimDuration::from_secs(40),
        );
        assert!(report.recoveries()[0].via_replica, "kill at {secs} s");
        let batches = sorted_sink_batches(&report);
        let last = batches.last().copied().ok_or("sink produced batches")?;
        assert_eq!(batches, (0..=last).collect::<Vec<_>>(), "kill at {secs} s");
        assert!(report.sink.iter().all(|s| s.tuples.len() == 200));
    }
    Ok(())
}

/// A takeover detected long after the sink's death still backfills every
/// batch since the cut: replica sync trims the muted replica's stash only
/// below the primary's progress, and nothing else bounds it.
#[test]
fn a_late_sink_takeover_backfills_every_batch_since_the_cut() -> TestResult {
    let q = chain_query(100, 3)?;
    let mut sim = Simulation::new(&q, one_task_per_node(&q)?, base_config(FtMode::active(5)));
    sim.inject_chaos(ChaosSpec {
        at: SimTime::from_secs(10),
        kind: ChaosKind::HeartbeatDrop { scans: 60 },
    })?;
    let report = drive_to(&mut sim, 400, vec![kill(11, node_of(4))])?;
    let r = &report.recoveries()[0];
    assert!(r.via_replica);
    let recovered = r.recovered_at.ok_or("the takeover completes")?;
    assert!(recovered > SimTime::from_secs(300), "detection is late");
    let batches = sorted_sink_batches(&report);
    let last = batches.last().copied().ok_or("sink produced batches")?;
    assert_eq!(batches, (0..=last).collect::<Vec<_>>());
    Ok(())
}

/// A Storm restore rewinds one replay window before the failure, so the
/// replay rebuilds the window the task lost: every sink batch after the
/// restore carries the same window totals as a run without failure.
#[test]
fn a_storm_restore_rebuilds_the_window_it_lost() -> TestResult {
    let q = chain_with_mid(100, 8, |w| Box::new(WindowTotal(WindowedPass::new(w))))?;
    let storm = || {
        base_config(FtMode::SourceReplay {
            buffer: SimDuration::from_secs(10),
        })
    };
    let sink_totals = |failures: Vec<FailureSpec>| -> Result<Vec<(u64, Vec<u64>)>, Box<dyn Error>> {
        let report = Simulation::run(
            &q,
            one_task_per_node(&q)?,
            storm(),
            failures,
            SimDuration::from_secs(60),
        );
        let mut totals: Vec<(u64, Vec<u64>)> = report
            .sink
            .iter()
            .map(|s| {
                let mut keys: Vec<u64> = s.tuples.iter().map(|t| t.key).collect();
                keys.sort_unstable();
                (s.batch, keys)
            })
            .collect();
        totals.sort_unstable();
        Ok(totals)
    };
    let healthy = sink_totals(vec![])?;
    let restored = sink_totals(vec![kill(22, node_of(2))])?;
    assert!(healthy.len() > 50);
    assert_eq!(restored, healthy);
    Ok(())
}

/// Fig. 6's operator in small: every 2nd tuple across the inputs, with
/// the raw input windowed as state.
#[derive(Clone)]
struct KeepHalf {
    window_batches: u64,
    buf: WindowBuffer,
}

impl Udf for KeepHalf {
    fn on_batch(&mut self, ctx: &BatchCtx, inputs: &[InputBatch<'_>], out: &mut Output) {
        inputs
            .iter()
            .fold(0, |first, i| i.copy_every(first, 2, out));
        let tuples = inputs.iter().map(InputBatch::len).sum();
        self.buf.push(ctx.batch, tuples, self.window_batches);
    }

    fn snapshot(&self) -> Box<dyn Udf> {
        Box::new(self.clone())
    }

    fn state_tuples(&self) -> usize {
        self.buf.len_tuples()
    }
}

/// source(4) -> mid(2, merge) -> sink(1, merge): Fig. 6's 2->1 merges,
/// each operator keeping every 2nd tuple.
fn halving_merge_query(per_batch: usize) -> Result<Query, Box<dyn Error>> {
    let mut q = QueryBuilder::new();
    let s = q.add_source(
        OperatorSpec::source("src", 4, per_batch as f64),
        move |task| Box::new(counting(per_batch, task)),
    );
    let keep_half = |_| -> Box<dyn Udf> {
        Box::new(KeepHalf {
            window_batches: 3,
            buf: WindowBuffer::new(),
        })
    };
    let m = q.add_operator(OperatorSpec::map("mid", 2, 0.5), keep_half);
    let k = q.add_operator(OperatorSpec::map("sink", 1, 0.5), keep_half);
    q.connect(s, m, Partitioning::Merge)?;
    q.connect(m, k, Partitioning::Merge)?;
    Ok(q.build()?)
}

fn counting(per_batch: usize, task: usize) -> CountingSource {
    CountingSource {
        per_batch,
        seed: 4000 + task as u64,
        key_space: 1 << 20,
    }
}

/// A merge that keeps every 2nd tuple of two equal chunks keeps the first
/// one whole, so it forwards it: from source to sink no tuple is copied,
/// and the sink record is the source's chunk. A batch whose second
/// substream a proxy closed (an empty chunk) is copied instead and keeps
/// every 2nd tuple of the first.
#[test]
fn a_halving_merge_forwards_its_first_chunk_from_source_to_sink() -> TestResult {
    let q = halving_merge_query(100)?;
    // No checkpoint fires inside the horizon, so no buffer is trimmed.
    let mode = FtMode::checkpoint(7, SimDuration::from_secs(1000));
    let mut sim = Simulation::new(&q, one_task_per_node(&q)?, base_config(mode));
    // Source 1 feeds mid 4's second substream: while it is down, the
    // master proxies its punctuations.
    let report = drive_to(&mut sim, 20, vec![kill(3, node_of(1))])?;
    let source_chunk = |sim: &Simulation, b: u64| {
        sim.tasks[0].out_buffer[0]
            .iter()
            .find(|e| e.0 == b)
            .and_then(|(_, held, _)| match held {
                Held::Source(weak, _) => weak.upgrade(),
                Held::Tuples(_) => None,
            })
    };
    let (mut forwarded, mut copied) = (0, 0);
    for (b, held, degraded) in &sim.tasks[4].out_buffer[0] {
        let Held::Tuples(chunk) = held else {
            return Err("a non-source buffers its tuples".into());
        };
        let generated = counting(100, 0).batch(*b);
        if *degraded {
            let kept: Vec<Tuple> = generated.iter().step_by(2).cloned().collect();
            assert_eq!(chunk[..], kept, "batch {b}: copied, every 2nd tuple");
            copied += 1;
        } else {
            let source = source_chunk(&sim, *b).ok_or("the mid's buffer holds it")?;
            assert!(Chunk::ptr_eq(chunk, &source), "batch {b}: forwarded");
            assert_eq!(chunk[..], generated, "batch {b}");
            forwarded += 1;
        }
    }
    assert!(
        forwarded > 0 && copied > 0,
        "{forwarded} forwarded, {copied} copied"
    );
    let (mut shared, mut tentative) = (0, 0);
    for record in &report.sink {
        if record.tentative {
            tentative += 1;
            continue;
        }
        let source = source_chunk(&sim, record.batch).ok_or("the sink record holds it")?;
        assert!(
            Chunk::ptr_eq(&record.tuples, &source),
            "batch {}",
            record.batch
        );
        shared += 1;
    }
    assert!(
        shared > 0 && tentative > 0,
        "{shared} shared, {tentative} tentative"
    );
    Ok(())
}

thread_local! {
    /// (`batch` calls, `batch_len` calls) of every [`CallCounting`] on
    /// this thread; a run is single-threaded.
    static GENERATOR_CALLS: std::cell::Cell<[usize; 2]> = const { std::cell::Cell::new([0, 0]) };
}

/// A generator that counts its calls in [`GENERATOR_CALLS`].
struct CallCounting(CountingSource);

impl CallCounting {
    fn count(call: usize) {
        GENERATOR_CALLS.with(|calls| {
            let mut counts = calls.get();
            counts[call] += 1;
            calls.set(counts);
        });
    }
}

impl SourceGen for CallCounting {
    fn batch(&mut self, batch: u64) -> Vec<Tuple> {
        Self::count(0);
        self.0.batch(batch)
    }

    fn batch_len(&mut self, batch: u64) -> usize {
        Self::count(1);
        self.0.batch_len(batch)
    }
}

/// A muted source replica draws no tuples: failure-free Fig. 6-shaped
/// Active (16 sources merged 2->1 down to one sink, every task
/// replicated) generates each batch once per source, on its primary, and
/// each replica charges its CPU from the batch length alone.
#[test]
fn muted_source_replicas_generate_nothing() -> TestResult {
    GENERATOR_CALLS.set([0, 0]);
    let mut q = QueryBuilder::new();
    let mut prev = q.add_source(OperatorSpec::source("src", 16, 100.0), |task| {
        Box::new(CallCounting(counting(100, task)))
    });
    for (name, parallelism) in [("O1", 8), ("O2", 4), ("O3", 2), ("O4", 1)] {
        let op = q.add_operator(OperatorSpec::map(name, parallelism, 0.5), |_| {
            Box::new(KeepHalf {
                window_batches: 30,
                buf: WindowBuffer::new(),
            })
        });
        q.connect(prev, op, Partitioning::Merge)?;
        prev = op;
    }
    let q = q.build()?;
    let n = ppa_core::TaskGraph::new(q.topology().clone()).n_tasks();
    let mut sim = Simulation::new(&q, one_task_per_node(&q)?, base_config(FtMode::active(n)));
    drive_to(&mut sim, 160, vec![])?;
    for t in 0..16 {
        let replica = sim.replica_slot[t].ok_or("every source is replicated")?;
        assert_eq!(sim.tasks[t].next_batch, 160, "source {t}");
        assert_eq!(sim.tasks[replica].next_batch, 160, "replica of source {t}");
    }
    let [batch, batch_len] = GENERATOR_CALLS.get();
    assert_eq!(batch, 16 * 160, "batch calls");
    assert_eq!(batch_len, 16 * 160, "batch_len calls");
    Ok(())
}

/// Full observable digest of a run (sink payloads included) for
/// byte-identity assertions.
fn full_digest(rep: &RunReport) -> (u64, Vec<(u64, Chunk, bool)>, Vec<(TaskIndex, SimTime)>) {
    (
        rep.events,
        rep.sink
            .iter()
            .map(|s| (s.batch, s.tuples.clone(), s.tentative))
            .collect(),
        rep.recoveries()
            .iter()
            .map(|r| (r.task, r.detected_at))
            .collect(),
    )
}

#[test]
fn drive_with_static_policy_matches_legacy_run() -> TestResult {
    let q = chain_query(100, 5)?;
    let failures = vec![FailureSpec {
        at: SimTime::from_secs(14),
        nodes: vec![node_of(2), node_of(3)],
    }];
    let legacy = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::checkpoint(5, SimDuration::from_secs(5))),
        failures.clone(),
        SimDuration::from_secs(60),
    );
    let mut sim = Simulation::new(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::checkpoint(5, SimDuration::from_secs(5))),
    );
    let driven = sim.drive(
        &FaultFeed::from(failures),
        &mut StaticPolicy,
        SimTime::from_secs(60),
    )?;
    assert_eq!(full_digest(&legacy), full_digest(&driven.report));
    assert!(driven.actions.is_empty(), "static policy never acts");
    assert!(driven.control_cpu.is_zero());
    Ok(())
}

/// Counts epoch hooks (one per 5 s); never acts.
#[derive(Default)]
struct EpochLog(usize);

impl ControlPolicy for EpochLog {
    fn name(&self) -> &'static str {
        "epoch-log"
    }

    fn epoch_interval(&self) -> Option<SimDuration> {
        Some(SimDuration::from_secs(5))
    }

    fn on_epoch(&mut self, _: &HealthView<'_>) -> Vec<ControlAction> {
        self.0 += 1;
        Vec::new()
    }
}

/// One simulation resumed across three `drive` calls — failures fed on the
/// first call only, an empty feed after; one `until` exactly on an epoch
/// boundary, one between two — ends where a single `drive` to the same
/// horizon ends and records the same events on the way, the last call's
/// metrics snapshot equals the single drive's counter for counter (a
/// repeated drive never double-adds), and an epoch policy is called at
/// the same instants, each once.
#[test]
fn resumed_drives_equal_one_drive_and_meter_each_event_once() -> TestResult {
    type Driven = (DriveReport, Vec<(SimTime, EngineEvent)>);
    let q = chain_query(100, 5)?;
    let drive_in_steps =
        |policy: &mut dyn ControlPolicy, stops: &[u64]| -> Result<Driven, Box<dyn Error>> {
            let mut sim = Simulation::new(
                &q,
                one_task_per_node(&q)?,
                base_config(FtMode::checkpoint(5, SimDuration::from_secs(5))),
            );
            sim.set_trace_sink(Box::new(ppa_obs::VecSink::new()));
            let mut feed = FaultFeed::from(vec![FailureSpec {
                at: SimTime::from_secs(14),
                nodes: vec![node_of(2), node_of(3)],
            }]);
            let mut last = None;
            for &until_secs in stops {
                let driven = sim.drive(&feed, policy, SimTime::from_secs(until_secs))?;
                assert!(driven.report.events > 0 && driven.report.tuples_moved > 0);
                feed = FaultFeed::new();
                last = Some(driven);
            }
            let events = sim.take_trace_sink().ok_or("sink attached")?.take_events();
            Ok((last.ok_or("at least one stop")?, events))
        };
    let assert_resumable = |whole: &mut dyn ControlPolicy,
                            resumed: &mut dyn ControlPolicy|
     -> Result<(u64, Vec<SimTime>), Box<dyn Error>> {
        let (whole, whole_events) = drive_in_steps(whole, &[60])?;
        let (last, last_events) = drive_in_steps(resumed, &[10, 22, 60])?;
        assert_eq!(full_digest(&last.report), full_digest(&whole.report));
        assert_eq!(last.report.tuples_moved, whole.report.tuples_moved);
        assert_eq!(last_events, whole_events);
        assert!(ppa_obs::check_stream(&last_events).ok());
        assert_eq!(last.metrics, whole.metrics, "every counter counted once");
        let epochs = last_events
            .iter()
            .filter(|(_, e)| matches!(e, EngineEvent::EpochHealthSnapshot { .. }))
            .map(|&(at, _)| at)
            .collect();
        Ok((last.metrics.counter("engine.epochs"), epochs))
    };
    assert_eq!(
        assert_resumable(&mut StaticPolicy, &mut StaticPolicy)?,
        (0, Vec::new())
    );

    let (mut whole, mut resumed) = (EpochLog::default(), EpochLog::default());
    let every_5s: Vec<SimTime> = (1..12).map(|k| SimTime::from_secs(5 * k)).collect();
    assert_eq!(assert_resumable(&mut whole, &mut resumed)?, (11, every_5s));
    assert_eq!(whole.0, 11);
    assert_eq!(resumed.0, 11, "no boundary fired twice or skipped");
    Ok(())
}

/// Without a fault-domain mapping, a drive whose feed holds a process
/// entry surfaces the typed error before any event runs.
#[test]
fn drive_rejects_a_process_feed_without_fault_domains() -> TestResult {
    let q = chain_query(100, 5)?;
    let mut bare = Simulation::new(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::checkpoint(5, SimDuration::from_secs(5))),
    );
    let feed = FaultFeed::new().with_process(
        Box::new(ppa_faults::DomainBurstProcess {
            level: 1,
            bursts: 1,
            fraction: 1.0,
        }),
        SimTime::from_secs(14),
        SimDuration::from_secs(30),
        7,
    );
    assert!(matches!(
        bare.drive(&feed, &mut StaticPolicy, SimTime::from_secs(60)),
        Err(EngineError::Placement(
            crate::placement::PlacementError::NoFaultDomains
        ))
    ));
    Ok(())
}

#[test]
fn drive_feed_unifies_traces_and_specs() -> TestResult {
    // A feed mixing a trace entry and a spec entry must behave exactly
    // like the equivalent spec list.
    let q = chain_query(100, 5)?;
    let tree = || ppa_faults::FaultDomainTree::racks(&(0..10).collect::<Vec<_>>(), 2);
    let placed = || -> Result<Placement, Box<dyn Error>> {
        Ok(one_task_per_node(&q)?.with_fault_domains(tree())?)
    };
    let mode = || FtMode::checkpoint(5, SimDuration::from_secs(5));
    let expanded = Simulation::run(
        &q,
        placed()?,
        base_config(mode()),
        vec![
            FailureSpec {
                at: SimTime::from_secs(14),
                nodes: vec![2, 3],
            },
            FailureSpec {
                at: SimTime::from_secs(20),
                nodes: vec![4],
            },
        ],
        SimDuration::from_secs(60),
    );
    let mut sim = Simulation::new(&q, placed()?, base_config(mode()));
    let feed = FaultFeed::new()
        .with_trace(FailureTrace::once(SimTime::from_secs(14), vec![3, 2]))
        .with_spec(FailureSpec {
            at: SimTime::from_secs(20),
            nodes: vec![4],
        });
    let driven = sim.drive(&feed, &mut StaticPolicy, SimTime::from_secs(60))?;
    assert_eq!(full_digest(&expanded), full_digest(&driven.report));
    Ok(())
}

#[test]
fn inject_rejects_malformed_specs_with_typed_errors() -> TestResult {
    let q = chain_query(50, 5)?;
    let mut sim = Simulation::new(&q, one_task_per_node(&q)?, base_config(FtMode::None));
    let out_of_range = vec![FailureSpec {
        at: SimTime::from_secs(5),
        nodes: vec![0, 99],
    }];
    assert_eq!(
        drive_to(&mut sim, 10, out_of_range).unwrap_err(),
        EngineError::NodeOutOfRange {
            node: 99,
            n_nodes: 10
        }
    );
    // Advance time, then try to rewrite history.
    drive_to(&mut sim, 10, vec![])?;
    assert_eq!(
        drive_to(&mut sim, 20, vec![kill(5, 0)]).unwrap_err(),
        EngineError::EventInPast {
            at: SimTime::from_secs(5),
            now: SimTime::from_secs(10),
        }
    );
    // A valid late injection still works, and fires.
    let report = drive_to(&mut sim, 20, vec![kill(15, 0)])?;
    assert_eq!(report.outages_of(TaskIndex(0)).len(), 1);
    Ok(())
}

/// Task 2's primary (node 2) and its replica's standby (node 7) share a
/// fault domain that dies as one unit at 20 s, with passive recovery held
/// down: the chain query under full replication and 5 s checkpoints.
fn standby_domain_loss() -> Result<(Query, Placement, EngineConfig, FaultFeed), Box<dyn Error>> {
    let mut tree = ppa_faults::FaultDomainTree::new();
    let a = tree.add_domain(tree.root());
    tree.assign(a, 2);
    tree.assign(a, 7);
    let b = tree.add_domain(tree.root());
    for n in [0, 1, 3, 4, 5, 6, 8, 9] {
        tree.assign(b, n);
    }
    let q = chain_query(100, 5)?;
    let placed = one_task_per_node(&q)?.with_fault_domains(tree)?;
    let mut config = base_config(FtMode::Ppa {
        plan: TaskSet::full(5),
        checkpoint_interval: Some(SimDuration::from_secs(5)),
    });
    config.passive_recovery = false;
    let feed = FaultFeed::from(vec![FailureSpec {
        at: SimTime::from_secs(20),
        nodes: vec![2, 7],
    }]);
    Ok((q, placed, config, feed))
}

/// A domain-health policy that re-homes within the only sibling domain
/// ("everything else") and re-plans with budget 5.
fn rehoming_policy() -> crate::control::DomainHealthPolicy {
    let mut policy = crate::control::DomainHealthPolicy::new(Some(5));
    policy.migrate_radius = 0;
    policy
}

#[test]
fn replan_reestablishes_replicas_lost_with_their_standbys() -> TestResult {
    // A static run loses task 2 for good; a DomainHealthPolicy re-homes
    // the standby off the dead domain and re-plans, which re-establishes
    // the replica from the checkpoint and lets the task take over late.
    let (q, placed, config, feed) = standby_domain_loss()?;
    let until = SimTime::from_secs(80);

    let mut static_sim = Simulation::new(&q, placed.clone(), config.clone());
    let static_run = static_sim.drive(&feed, &mut StaticPolicy, until)?;
    let rec_of = |rep: &RunReport, t: usize| {
        rep.recoveries()
            .iter()
            .find(|r| r.task == TaskIndex(t))
            .cloned()
    };
    assert!(
        rec_of(&static_run.report, 2)
            .ok_or("recovery record")?
            .recovered_at
            .is_none(),
        "static: task 2 lost primary + replica and passive recovery is off"
    );

    let mut adaptive_sim = Simulation::new(&q, placed, config);
    let adaptive_run = adaptive_sim.drive(&feed, &mut rehoming_policy(), until)?;
    let r = rec_of(&adaptive_run.report, 2).ok_or("recovery record")?;
    assert!(
        r.recovered_at.is_some(),
        "adaptive: re-established replica must take over: {r:?}"
    );
    assert!(r.via_replica);
    assert!(
        adaptive_run.tasks_migrated() >= 1,
        "the standby must have been re-homed: {:?}",
        adaptive_run.actions
    );
    assert!(
        adaptive_run.replicas_activated() >= 1,
        "the replica must have been re-established: {:?}",
        adaptive_run.actions
    );
    assert!(!adaptive_run.control_cpu.is_zero());
    // The re-homed standby is visible through the live placement.
    assert_ne!(adaptive_sim.placement.standby[2], 7);
    Ok(())
}

/// The chaos swarm drives a static policy only, so the control-plane
/// counters get their stream witness here: a domain-health run's metrics
/// are exactly its recorded stream folded through
/// `MetricsRegistry::record`.
#[test]
fn control_plane_counters_equal_the_stream_folded_through_record() -> TestResult {
    let (q, placed, config, feed) = standby_domain_loss()?;
    let mut sim = Simulation::new(&q, placed, config);
    sim.set_trace_sink(Box::new(ppa_obs::VecSink::new()));
    let driven = sim.drive(&feed, &mut rehoming_policy(), SimTime::from_secs(80))?;
    let events = sim.take_trace_sink().ok_or("sink attached")?.take_events();
    let mut folded = MetricsRegistry::new();
    for (_, event) in &events {
        folded.record(event);
    }
    assert_eq!(driven.metrics, folded.snapshot());
    assert!(driven.metrics.counter("engine.control.replans") > 0);
    assert!(driven.metrics.counter("engine.epochs") > 0);
    Ok(())
}

#[test]
fn migration_evacuates_live_primaries_before_the_next_ring() -> TestResult {
    // 8 workers + 8 standbys in racks of 2; the 5 tasks sit on nodes
    // 0..5 with workers 5..8 free. Rack {2,3} dies at t=20. A policy
    // with migrate_radius 1 evacuates the neighbouring racks {0,1} and
    // {4,5} immediately — so when rack {4,5} dies 4 s later, the sink
    // task (node 4) has already moved and keeps running.
    let q = chain_query(100, 5)?;
    let placed = || -> Result<Placement, Box<dyn Error>> {
        Ok(
            Placement::explicit((0..5).collect(), (8..13).collect(), 8, 8)?.with_fault_domains(
                ppa_faults::FaultDomainTree::racks(&(0..16).collect::<Vec<_>>(), 2),
            )?,
        )
    };
    let config = || {
        let mut c = base_config(FtMode::checkpoint(5, SimDuration::from_secs(5)));
        c.passive_recovery = false;
        c
    };
    let feed = || {
        FaultFeed::new()
            .with_spec(FailureSpec {
                at: SimTime::from_secs(20),
                nodes: vec![2, 3],
            })
            .with_spec(FailureSpec {
                at: SimTime::from_secs(24),
                nodes: vec![4, 5],
            })
    };
    let until = SimTime::from_secs(60);

    let mut static_sim = Simulation::new(&q, placed()?, config());
    let static_run = static_sim.drive(&feed(), &mut StaticPolicy, until)?;
    // Static: the sink (task 4, node 4) dies in the second ring and the
    // run records its failure.
    assert!(static_run
        .report
        .recoveries()
        .iter()
        .any(|r| r.task == TaskIndex(4)));

    let mut adaptive_sim = Simulation::new(&q, placed()?, config());
    let mut policy = crate::control::DomainHealthPolicy::new(None);
    let adaptive_run = adaptive_sim.drive(&feed(), &mut policy, until)?;
    assert!(
        adaptive_run
            .report
            .recoveries()
            .iter()
            .all(|r| r.task != TaskIndex(4)),
        "sink must have been evacuated before its rack died: {:?}",
        adaptive_run.report.recoveries()
    );
    assert!(adaptive_run.tasks_migrated() >= 1);
    assert_ne!(adaptive_sim.placement.primary[4], 4, "sink moved");
    Ok(())
}

#[test]
fn source_generator_is_reclaimed_from_a_dead_replica_slot() -> TestResult {
    // A control-plane-activated source replica consumes the task's spare
    // generator. If that replica's node later dies, re-activation must
    // reclaim the generator from the dead slot — otherwise the source
    // could never be replicated again for the rest of the run.
    let q = chain_query(50, 5)?;
    let mut config = base_config(FtMode::ppa(TaskSet::empty(5), SimDuration::from_secs(5)));
    config.passive_recovery = false;
    let mut sim = Simulation::new(&q, one_task_per_node(&q)?, config);
    let mut cpu = SimDuration::ZERO;
    drive_to(&mut sim, 10, vec![])?;
    assert!(
        sim.activate_replica(0, sim.sched.now(), &mut cpu),
        "first activation uses the spare generator"
    );
    // Kill the replica's standby node (node 5 under one-task-per-node).
    drive_to(&mut sim, 20, vec![kill(12, 5)])?;
    // Re-home the standby and re-activate: the generator must come back
    // out of the dead slot.
    sim.placement.standby[0] = 6;
    assert!(
        sim.activate_replica(0, sim.sched.now(), &mut cpu),
        "re-activation reclaims the generator trapped in the dead slot"
    );
    // The re-established replica carries the task through a primary kill.
    let report = drive_to(&mut sim, 60, vec![kill(25, node_of(0))])?;
    let r = report
        .recoveries()
        .into_iter()
        .find(|r| r.task == TaskIndex(0))
        .ok_or("source failure recorded")?;
    assert!(r.via_replica, "{r:?}");
    assert!(r.recovered_at.is_some(), "{r:?}");
    Ok(())
}

/// Policy that orders one whole-domain evacuation at its first epoch.
struct EvacuateOnce {
    domain: ppa_faults::DomainId,
    fired: bool,
}

impl crate::control::ControlPolicy for EvacuateOnce {
    fn name(&self) -> &'static str {
        "evacuate-once"
    }

    fn epoch_interval(&self) -> Option<SimDuration> {
        Some(SimDuration::from_secs(20))
    }

    fn on_epoch(
        &mut self,
        _view: &crate::control::HealthView<'_>,
    ) -> Vec<crate::control::ControlAction> {
        if self.fired {
            return Vec::new();
        }
        self.fired = true;
        vec![crate::control::ControlAction::MigrateTasks {
            domains: vec![self.domain],
        }]
    }
}

#[test]
fn whole_domain_evacuation_charges_unbounded_aggregate_state_ship() -> TestResult {
    // Executable expectation for the ROADMAP's migration-admission-control
    // follow-on: when a whole 12-node domain evacuates in one epoch, the
    // engine charges the aggregate state-ship CPU of every hosted task in
    // that same epoch — exactly 6x the 2-node evacuation of the identical
    // layout. Nothing bounds the per-epoch total today; an admission
    // control would cap it and spread the excess across epochs (flipping
    // the equality below into a `<`).
    let evacuate = |rack_size: usize| -> Result<crate::control::DriveReport, Box<dyn Error>> {
        let q = wide_query(100, 5)?;
        let n = 25;
        // Sources on nodes 12..24, the twelve mids on nodes 0..12 (the
        // domain under test), sink on node 24; standbys one per task.
        let primary: Vec<usize> = (0..n)
            .map(|t| match t {
                t if t < 12 => 12 + t,
                t if t < 24 => t - 12,
                _ => 24,
            })
            .collect();
        let standby: Vec<usize> = (0..n).map(|t| 25 + t).collect();
        let placement = Placement::explicit(primary, standby, 25, 25)?.with_fault_domains(
            ppa_faults::FaultDomainTree::racks(&(0..12).collect::<Vec<_>>(), rack_size),
        )?;
        let mut sim = Simulation::new(
            &q,
            placement,
            base_config(FtMode::checkpoint(n, SimDuration::from_secs(5))),
        );
        let domain = sim.placement.domain_of(0).ok_or("node 0 is in a rack")?;
        let mut policy = EvacuateOnce {
            domain,
            fired: false,
        };
        Ok(sim.drive(&FaultFeed::new(), &mut policy, SimTime::from_secs(40))?)
    };
    let whole = evacuate(12)?;
    let pair = evacuate(2)?;
    assert_eq!(whole.tasks_migrated(), 12, "{:?}", whole.actions);
    assert_eq!(pair.tasks_migrated(), 2, "{:?}", pair.actions);
    // Identical mids evacuated at the same epoch: the aggregate CPU is
    // exactly linear in the domain size — unbounded by anything.
    assert_eq!(
        whole.control_cpu.as_micros(),
        6 * pair.control_cpu.as_micros(),
        "whole {} vs pair {}",
        whole.control_cpu,
        pair.control_cpu
    );
    // And every move shipped real window state on top of its overhead.
    let floor = EngineConfig::default().costs.batch_overhead.as_micros() * 12;
    assert!(
        whole.control_cpu.as_micros() > floor,
        "12 moves must ship state beyond {floor}µs of overhead, got {}",
        whole.control_cpu
    );
    Ok(())
}

#[test]
fn replica_death_after_takeover_opens_second_outage() -> TestResult {
    // Kill a primary, let its replica take over, then kill the replica's
    // node: the task must re-enter the outage path with a second
    // OutageRecord — re-detection, re-proxying, and a fresh recovery via
    // checkpoint fallback — instead of silently counting as recovered.
    let q = chain_query(100, 10)?;
    let mut sim = Simulation::new(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::Ppa {
            plan: TaskSet::full(5),
            checkpoint_interval: Some(SimDuration::from_secs(5)),
        }),
    );
    // Task 2's primary is on node 2; its replica on standby node 7.
    let report = drive_to(&mut sim, 90, vec![kill(14, node_of(2)), kill(31, 7)])?;

    let outages = report.outages_of(TaskIndex(2));
    assert_eq!(outages.len(), 2, "two distinct outages: {outages:?}");
    assert_eq!(report.refail_count(), 1);
    let (first, second) = (&outages[0], &outages[1]);
    // First outage: replica takeover, near-instant.
    assert!(first.via_replica);
    assert_eq!(first.failed_at, SimTime::from_secs(14));
    assert_eq!(first.detected_at, SimTime::from_secs(15));
    let first_latency = first.latency().ok_or("first outage recovered")?;
    // Second outage: the activated replica died — checkpoint fallback.
    assert!(
        !second.via_replica,
        "replica died; passive path: {second:?}"
    );
    assert_eq!(second.failed_at, SimTime::from_secs(31));
    assert_eq!(second.detected_at, SimTime::from_secs(35));
    let second_latency = second.latency().ok_or("second outage recovered")?;
    assert_ne!(
        first_latency, second_latency,
        "each outage carries its own recovery latency"
    );
    assert!(
        second_latency > first_latency,
        "checkpoint replay ({second_latency}) must be slower than takeover \
         ({first_latency})"
    );
    // Per-record ordering invariant.
    for rec in outages {
        assert!(rec.failed_at <= rec.detected_at);
        assert!(rec.recovered_at.ok_or("outage recovered")? >= rec.detected_at);
    }
    // The first-outage view exposes exactly the FIRST outage.
    let r = report
        .recoveries()
        .into_iter()
        .find(|r| r.task == TaskIndex(2))
        .ok_or("task 2 recovery record")?;
    assert_eq!(r.detected_at, first.detected_at);
    assert_eq!(r.recovered_at, first.recovered_at);
    assert!(r.via_replica);

    // During the second outage the sink keeps producing degraded output:
    // half the volume (mid 2 lost again), flagged tentative — the lost
    // share is honestly missing, not papered over by a stalled sink.
    let second_recovered = second.recovered_at.ok_or("second outage recovered")?;
    let tentative: Vec<_> = report
        .sink
        .iter()
        .filter(|s| s.tentative && s.at >= second.detected_at && s.at <= second_recovered)
        .collect();
    assert!(
        !tentative.is_empty(),
        "re-detected task must be re-proxied: tentative output flows again"
    );
    assert!(tentative.iter().all(|s| s.tuples.len() == 100));
    assert_eq!(
        report
            .first_tentative_after(second.detected_at)
            .ok_or("tentative output after re-detection")?,
        tentative[0].at
    );
    assert!(tentative[0].at < second_recovered);
    Ok(())
}

#[test]
fn refailed_task_recovers_via_reestablished_replica() -> TestResult {
    // The control-plane variant of the second recovery: passive recovery
    // held down, so a re-failed task comes back only if the policy
    // re-homes its dead standby and re-establishes the replica.
    let q = chain_query(100, 5)?;
    // Every node is its own rack, so the policy reacts to exactly the
    // failed node's domain.
    let placed = || -> Result<Placement, Box<dyn Error>> {
        Ok(
            one_task_per_node(&q)?.with_fault_domains(ppa_faults::FaultDomainTree::racks(
                &(0..10).collect::<Vec<_>>(),
                1,
            ))?,
        )
    };
    let config = || {
        let mut c = base_config(FtMode::Ppa {
            plan: TaskSet::full(5),
            checkpoint_interval: Some(SimDuration::from_secs(5)),
        });
        c.passive_recovery = false;
        c
    };
    let feed = || {
        FaultFeed::new()
            .with_spec(FailureSpec {
                at: SimTime::from_secs(20),
                nodes: vec![node_of(2)],
            })
            .with_spec(FailureSpec {
                at: SimTime::from_secs(40),
                nodes: vec![7], // the activated replica's node
            })
    };
    let until = SimTime::from_secs(90);

    // Static: the second outage stays open — honest, not papered over.
    let mut static_sim = Simulation::new(&q, placed()?, config());
    let static_run = static_sim.drive(&feed(), &mut StaticPolicy, until)?;
    let outages = static_run.report.outages_of(TaskIndex(2));
    assert_eq!(outages.len(), 2, "{outages:?}");
    assert!(outages[0].via_replica && !outages[0].open());
    assert!(
        outages[1].open(),
        "static + no passive recovery: the re-failure stays down: {outages:?}"
    );
    assert!(outages[1].detected(), "but it IS re-detected");

    // Domain-health: re-home the dead standby, re-establish the replica,
    // close the second outage via a late takeover.
    let mut adaptive_sim = Simulation::new(&q, placed()?, config());
    let mut policy = crate::control::DomainHealthPolicy::new(Some(5));
    policy.migrate_radius = 0;
    let adaptive_run = adaptive_sim.drive(&feed(), &mut policy, until)?;
    let outages = adaptive_run.report.outages_of(TaskIndex(2));
    assert_eq!(outages.len(), 2, "{outages:?}");
    let second = &outages[1];
    assert!(
        second.recovered_at.is_some(),
        "re-established replica must close the second outage: {second:?}"
    );
    assert!(second.via_replica, "{second:?}");
    assert_ne!(adaptive_sim.placement.standby[2], 7, "standby re-homed");
    assert!(adaptive_run.replicas_activated() >= 1);
    Ok(())
}

#[test]
fn inject_rejects_nodes_already_dead() -> TestResult {
    // After an activated replica dies on node 7, feeding another failure
    // naming node 7 used to short-circuit silently at fire time; it now
    // surfaces the typed error at injection time.
    let q = chain_query(50, 5)?;
    let mut sim = Simulation::new(&q, one_task_per_node(&q)?, base_config(FtMode::active(5)));
    drive_to(&mut sim, 30, vec![kill(10, node_of(2)), kill(20, 7)])?;
    assert_eq!(
        drive_to(&mut sim, 60, vec![kill(40, 7)]).unwrap_err(),
        EngineError::NodeAlreadyDead { node: 7 }
    );
    // A kill set naming a dead node among live ones is rejected the same way.
    // (Node 2 died with the primary; its rack is half dead.)
    let half_dead = vec![FailureSpec {
        at: SimTime::from_secs(40),
        nodes: vec![8, 2],
    }];
    assert_eq!(
        drive_to(&mut sim, 60, half_dead).unwrap_err(),
        EngineError::NodeAlreadyDead { node: 2 }
    );
    // Alive nodes still inject fine.
    drive_to(&mut sim, 60, vec![kill(40, 8)])?;
    Ok(())
}

#[test]
fn takeover_lost_mid_recovery_rearms_and_restores() -> TestResult {
    // Task 2's primary dies at 14 s and is detected at the 15 s scan; a
    // slow resend keeps its muted replica's takeover pending past 16 s,
    // when the replica's node dies too. That death re-arms the open
    // record like any death mid-recovery: detection void, one setback,
    // re-detection at the 20 s scan, and a restore closes the outage.
    let q = chain_query(100, 10)?;
    let mut config = base_config(FtMode::active(5));
    config.costs.resend_per_tuple = SimDuration::from_millis(20);
    let mut sim = Simulation::new(&q, one_task_per_node(&q)?, config);
    sim.set_trace_sink(Box::new(ppa_obs::VecSink::new()));
    let driven = sim.drive(
        &vec![kill(14, node_of(2)), kill(16, 5 + 2)].into(),
        &mut StaticPolicy,
        SimTime::from_secs(60),
    )?;
    let events = sim
        .take_trace_sink()
        .map(|mut s| s.take_events())
        .unwrap_or_default();
    let check = ppa_obs::check_stream(&events);
    assert!(check.ok(), "{:?}", check.violations);

    let of_task_2: Vec<(SimTime, &EngineEvent)> = events
        .iter()
        .filter(|(_, e)| e.task() == Some(2))
        .map(|(at, e)| (*at, e))
        .collect();
    let s = SimTime::from_secs;
    assert_eq!(
        of_task_2[..4],
        [
            (
                s(14),
                &EngineEvent::OutageOpened {
                    task: 2,
                    refail: false
                }
            ),
            (s(15), &EngineEvent::OutageDetected { task: 2 }),
            (s(16), &EngineEvent::RecoverySetback { task: 2 }),
            (s(20), &EngineEvent::OutageDetected { task: 2 }),
        ],
        "{of_task_2:?}"
    );
    assert!(
        matches!(of_task_2[4], (at, EngineEvent::RestoreStarted { task: 2, .. }) if at == s(20)),
        "{of_task_2:?}"
    );
    assert_eq!(driven.metrics.counter("engine.recovery.setbacks"), 1);

    let outages = driven.report.outages_of(TaskIndex(2));
    assert_eq!(outages.len(), 1, "{outages:?}");
    let rec = &outages[0];
    assert_eq!((rec.failed_at, rec.detected_at), (s(14), s(20)));
    assert!(rec.recovered_at.is_some(), "the restore closes it: {rec:?}");
    assert!(!rec.via_replica, "{rec:?}");
    Ok(())
}

#[test]
fn dead_replica_falls_back_to_checkpoint_recovery() -> TestResult {
    // Kill the primary's node AND its replica's standby node: recovery must
    // fall back to the passive path and still complete.
    let q = chain_query(100, 10)?;
    let report = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::Ppa {
            plan: TaskSet::full(5),
            checkpoint_interval: Some(SimDuration::from_secs(5)),
        }),
        vec![FailureSpec {
            at: SimTime::from_secs(14),
            // task 2's primary node and its standby (one-task-per-node
            // placement puts the replica of task t on node n + t).
            nodes: vec![2, 5 + 2],
        }],
        SimDuration::from_secs(60),
    );
    let r = &report.recoveries()[0];
    assert_eq!(r.task, TaskIndex(2));
    assert!(!r.via_replica, "replica died with its node");
    assert!(r.recovered_at.is_some(), "checkpoint fallback must recover");
    Ok(())
}

// ----------------------------------------------------------------------
// Approximate fault tolerance (divergence-bounded backups, lossy restore)
// ----------------------------------------------------------------------

#[test]
fn approximate_ships_on_divergence_and_skips_within_bound() -> TestResult {
    // Mids absorb 100 tuples per batch: a bound of 300 ships roughly every
    // third batch and skips the two in between — both counters must show
    // up in the drive's metrics, and only under the approximate mode.
    let ships = |bound: u64| -> Result<(u64, u64), Box<dyn Error>> {
        let q = chain_query(100, 10)?;
        let mut sim = Simulation::new(
            &q,
            one_task_per_node(&q)?,
            base_config(FtMode::approximate(5, SimDuration::from_secs(5), bound)),
        );
        let driven = sim.drive(
            &FaultFeed::from(Vec::new()),
            &mut StaticPolicy,
            SimTime::from_secs(60),
        )?;
        Ok((
            driven.metrics.counter("engine.approx.backups_shipped"),
            driven.metrics.counter("engine.approx.backups_skipped"),
        ))
    };
    let (shipped, skipped) = ships(300)?;
    assert!(shipped > 0, "drift crossings must ship backups");
    assert!(skipped > 0, "within-bound batches must be skipped");
    // Monotone in the bound: a tighter bound never ships fewer backups.
    let (tight, _) = ships(100)?;
    let (loose, _) = ships(900)?;
    assert!(
        tight >= shipped && shipped >= loose,
        "{tight} {shipped} {loose}"
    );
    Ok(())
}

#[test]
fn approximate_recovery_skips_replay_and_keeps_the_sink_flowing() -> TestResult {
    let q = chain_query(100, 10)?;
    let kill = || {
        vec![FailureSpec {
            at: SimTime::from_secs(14),
            nodes: vec![node_of(2)],
        }]
    };
    let exact = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::checkpoint(5, SimDuration::from_secs(5))),
        kill(),
        SimDuration::from_secs(60),
    );
    let approx = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::approximate(5, SimDuration::from_secs(5), 300)),
        kill(),
        SimDuration::from_secs(60),
    );
    let lat = |rep: &RunReport| rep.recoveries()[0].latency().ok_or("must recover");
    assert!(
        lat(&approx)? < lat(&exact)?,
        "lossy restore must beat restore+replay: {} vs {}",
        lat(&approx)?,
        lat(&exact)?
    );
    // Downstream is not stalled by the jump: the sink keeps producing
    // complete, non-tentative batches after the recovery.
    let recovered_at = approx.recoveries()[0].recovered_at.ok_or("recovered")?;
    let late: Vec<_> = approx
        .sink
        .iter()
        .filter(|s| s.at > recovered_at + SimDuration::from_secs(10))
        .collect();
    assert!(
        !late.is_empty(),
        "sink must keep flowing after a lossy jump"
    );
    assert!(late.iter().all(|s| s.tuples.len() == 200 && !s.tentative));
    Ok(())
}

#[test]
fn approximate_recovery_emits_the_loss_before_closing() -> TestResult {
    let q = chain_query(100, 10)?;
    let mut sim = Simulation::new(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::approximate(5, SimDuration::from_secs(5), 300)),
    );
    sim.set_trace_sink(Box::new(ppa_obs::VecSink::new()));
    let driven = sim.drive(
        &FaultFeed::from(vec![FailureSpec {
            at: SimTime::from_secs(14),
            nodes: vec![node_of(2)],
        }]),
        &mut StaticPolicy,
        SimTime::from_secs(60),
    )?;
    let events = sim.take_trace_sink().ok_or("sink attached")?.take_events();
    let pos =
        |pred: &dyn Fn(&ppa_obs::EngineEvent) -> bool| events.iter().position(|(_, e)| pred(e));
    let ship = pos(&|e| matches!(e, ppa_obs::EngineEvent::ApproxBackupShipped { task: 2, .. }))
        .ok_or("task 2 must ship at least one backup before dying")?;
    let loss = pos(&|e| matches!(e, ppa_obs::EngineEvent::ApproxRecovery { task: 2, .. }))
        .ok_or("lossy recovery must be quantified")?;
    let lossy = events
        .iter()
        .filter(|(_, e)| matches!(e, ppa_obs::EngineEvent::ApproxRecovery { .. }))
        .count();
    assert_eq!(lossy, 1, "one outage, one lossy recovery");
    let done = pos(&|e| matches!(e, ppa_obs::EngineEvent::RestoreDone { task: 2 }))
        .ok_or("outage must close via RestoreDone")?;
    assert!(ship < loss && loss < done, "{ship} {loss} {done}");
    if let ppa_obs::EngineEvent::ApproxRecovery {
        divergence,
        skipped_batches,
        ..
    } = &events[loss].1
    {
        assert!(*skipped_batches > 0, "the replay gap is what gets skipped");
        // The drift forfeited at recovery stayed within one bound: the
        // crossing batch armed a ship that the failure then voided, so at
        // most bound-1 + one batch of drift is ever pending.
        assert!(*divergence <= 300 + 100, "forfeited drift {divergence}");
    }
    // The registry agrees with the event stream.
    assert_eq!(
        driven.metrics.counter("engine.approx.backups_shipped"),
        events
            .iter()
            .filter(|(_, e)| matches!(e, ppa_obs::EngineEvent::ApproxBackupShipped { .. }))
            .count() as u64
    );
    Ok(())
}

#[test]
fn approximate_zero_bound_matches_checkpoint_byte_for_byte() -> TestResult {
    let q = chain_query(100, 10)?;
    let kill = || {
        vec![FailureSpec {
            at: SimTime::from_secs(14),
            nodes: vec![node_of(2), node_of(3)],
        }]
    };
    let cp = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::checkpoint(5, SimDuration::from_secs(5))),
        kill(),
        SimDuration::from_secs(60),
    );
    let zero = Simulation::run(
        &q,
        one_task_per_node(&q)?,
        base_config(FtMode::approximate(5, SimDuration::from_secs(5), 0)),
        kill(),
        SimDuration::from_secs(60),
    );
    assert_eq!(full_digest(&cp), full_digest(&zero));
    Ok(())
}
