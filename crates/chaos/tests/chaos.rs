//! End-to-end chaos tests: each buggify point observably perturbs a
//! deterministic scenario, zero chaos is byte-identical to the plain
//! fault path, horizons reject out-of-range events with typed errors,
//! and a small swarm runs clean and repeats itself exactly.

use ppa_chaos::{
    build, run_swarm, ChaosConfig, ChaosSchedule, ModeTag, ProcessTag, ScenarioParams,
    ScheduleParseError, StrategyTag,
};
use ppa_engine::{
    ChaosError, ChaosKind, ChaosSpec, EngineError, EngineEvent, FailureSpec, FailureTrace,
    FaultFeed, RunReport, Simulation, StaticPolicy, VecSink,
};
use ppa_sim::{SimDuration, SimTime};
use std::error::Error;

type TestResult = Result<(), Box<dyn Error>>;
type RunOutcome = Result<(RunReport, Vec<(SimTime, EngineEvent)>), Box<dyn Error>>;

/// A fixed, quiet scenario: checkpointed chain on a racked cluster, no
/// generated failures, no drawn chaos — tests inject their own.
fn params() -> ScenarioParams {
    ScenarioParams {
        index: 0,
        seed: 1234,
        sources: 2,
        rate: 50,
        mids: 1,
        window_batches: 5,
        selectivity: 1.0,
        workers: 8,
        rack_size: 2,
        strategy: StrategyTag::RoundRobin,
        mode: ModeTag::Checkpoint { interval_secs: 2 },
        process: ProcessTag::Quiet,
        chaos: ChaosConfig {
            seed: 1,
            buggify: 0,
            rekills: 0,
            max_dead_frac: 0.4,
        },
        horizon_secs: 60,
    }
}

/// Kills task 0's primary at 30 s and runs to the horizon with the given
/// chaos schedule, returning the report and the recorded event stream.
fn run_with_chaos(chaos: &[ChaosSpec]) -> RunOutcome {
    let built = build(&params())?;
    let kill_node = built.placement.primary[0];
    let mut sim = Simulation::new(&built.query, built.placement.clone(), built.config.clone());
    sim.set_horizon(built.horizon);
    sim.set_trace_sink(Box::new(VecSink::new()));
    for spec in chaos {
        sim.inject_chaos(spec.clone())?;
    }
    let feed = FaultFeed::from_trace(FailureTrace::once(SimTime::from_secs(30), vec![kill_node]));
    let driven = sim.drive(&feed, &mut StaticPolicy, built.horizon)?;
    let events = sim
        .take_trace_sink()
        .map(|mut s| s.take_events())
        .unwrap_or_default();
    Ok((driven.report, events))
}

fn outage_of_task0(report: &RunReport) -> Result<&ppa_engine::OutageRecord, Box<dyn Error>> {
    report
        .outages
        .iter()
        .find(|o| o.task.0 == 0)
        .and_then(|o| o.records.first())
        .ok_or_else(|| "task 0 has no outage record".into())
}

#[test]
fn heartbeat_drop_delays_detection_by_a_scan() -> TestResult {
    let (baseline, _) = run_with_chaos(&[])?;
    let d0 = outage_of_task0(&baseline)?.detected_at;
    let (dropped, _) = run_with_chaos(&[ChaosSpec {
        at: SimTime::from_secs(28),
        kind: ChaosKind::HeartbeatDrop { scans: 1 },
    }])?;
    let d1 = outage_of_task0(&dropped)?.detected_at;
    assert!(
        d1 >= d0 + SimDuration::from_secs(5),
        "dropping one scan must push detection a heartbeat interval out \
         (baseline {d0}, dropped {d1})"
    );
    Ok(())
}

/// The seed → repro workflow: a shrunk `schedule.txt` (`ppa-chaos/1`)
/// replays through `ChaosSchedule::from_text` + `inject_chaos` to the run
/// its events give when injected directly; a malformed file is a typed
/// error.
#[test]
fn a_schedule_replays_from_its_text_form() -> TestResult {
    let schedule = ChaosSchedule::from_text("ppa-chaos/1\n28000000 heartbeat_drop 1\n")?;
    let (_, replayed) = run_with_chaos(schedule.events())?;
    let (_, direct) = run_with_chaos(&[ChaosSpec {
        at: SimTime::from_secs(28),
        kind: ChaosKind::HeartbeatDrop { scans: 1 },
    }])?;
    assert_eq!(replayed, direct);
    assert_eq!(
        ChaosSchedule::from_text("28000000 heartbeat_drop 1\n"),
        Err(ScheduleParseError::MissingHeader)
    );
    Ok(())
}

#[test]
fn heartbeat_delay_postpones_detection() -> TestResult {
    let (baseline, _) = run_with_chaos(&[])?;
    let d0 = outage_of_task0(&baseline)?.detected_at;
    let (delayed, _) = run_with_chaos(&[ChaosSpec {
        at: SimTime::from_secs(28),
        kind: ChaosKind::HeartbeatDelay {
            by: SimDuration::from_secs(4),
        },
    }])?;
    let d1 = outage_of_task0(&delayed)?.detected_at;
    assert!(d1 > d0, "a delayed scan detects later ({d0} → {d1})");
    Ok(())
}

#[test]
fn heartbeat_duplicate_is_idempotent() -> TestResult {
    // An extra out-of-cadence scan before anything failed must change
    // nothing observable (detection is idempotent).
    let (baseline, _) = run_with_chaos(&[])?;
    let (extra, _) = run_with_chaos(&[ChaosSpec {
        at: SimTime::from_secs(10),
        kind: ChaosKind::HeartbeatDuplicate,
    }])?;
    let b = outage_of_task0(&baseline)?;
    let e = outage_of_task0(&extra)?;
    assert_eq!(b, e, "pre-failure duplicate scan is invisible");
    Ok(())
}

#[test]
fn restore_stall_shifts_recovery() -> TestResult {
    let (baseline, _) = run_with_chaos(&[])?;
    let r0 = outage_of_task0(&baseline)?
        .recovered_at
        .ok_or("baseline run must recover")?;
    let stall = SimDuration::from_secs(5);
    let (stalled, _) = run_with_chaos(&[ChaosSpec {
        at: SimTime::from_secs(20),
        kind: ChaosKind::RestoreStall { task: 0, by: stall },
    }])?;
    let r1 = outage_of_task0(&stalled)?
        .recovered_at
        .ok_or("stalled run must still recover within the horizon")?;
    assert!(
        r1 >= r0 + stall,
        "a {stall} stall must delay recovery at least that much ({r0} → {r1})"
    );
    Ok(())
}

#[test]
fn restore_void_causes_a_setback_then_recovery() -> TestResult {
    // Stall the restore so the void reliably lands mid-restore.
    let (report, events) = run_with_chaos(&[
        ChaosSpec {
            at: SimTime::from_secs(20),
            kind: ChaosKind::RestoreStall {
                task: 0,
                by: SimDuration::from_secs(10),
            },
        },
        ChaosSpec {
            at: SimTime::from_secs(38),
            kind: ChaosKind::RestoreVoid { task: 0 },
        },
    ])?;
    let setbacks = events
        .iter()
        .filter(|(_, e)| matches!(e, EngineEvent::RecoverySetback { task: 0 }))
        .count();
    assert!(setbacks >= 1, "the void must re-arm the open outage");
    let record = outage_of_task0(&report)?;
    assert!(
        record.recovered_at.is_some(),
        "the re-armed outage must still recover within the horizon"
    );
    Ok(())
}

#[test]
fn voided_approximate_restore_rearms_without_double_counting_the_floor() -> TestResult {
    // A stalled restore of an approximate-mode task is voided mid-load:
    // the outage re-arms (setback), the voided completion must NOT run
    // the lossy jump (no ApproxRecovery), and the re-armed restore
    // closes the outage with exactly one ApproxRecovery.
    let mut p = params();
    p.mode = ModeTag::Approx { error_bound: 100 };
    let built = build(&p)?;
    let mid = 2; // first non-source task (sources recover exactly)
    let kill_node = built.placement.primary[mid];
    let mut sim = Simulation::new(&built.query, built.placement.clone(), built.config.clone());
    sim.set_horizon(built.horizon);
    sim.set_trace_sink(Box::new(VecSink::new()));
    sim.inject_chaos(ChaosSpec {
        at: SimTime::from_secs(20),
        kind: ChaosKind::RestoreStall {
            task: mid,
            by: SimDuration::from_secs(10),
        },
    })?;
    sim.inject_chaos(ChaosSpec {
        at: SimTime::from_secs(38),
        kind: ChaosKind::RestoreVoid { task: mid },
    })?;
    let feed = FaultFeed::from_trace(FailureTrace::once(SimTime::from_secs(30), vec![kill_node]));
    let driven = sim.drive(&feed, &mut StaticPolicy, built.horizon)?;
    let events = sim
        .take_trace_sink()
        .map(|mut s| s.take_events())
        .unwrap_or_default();

    let setbacks = events
        .iter()
        .filter(|(_, e)| matches!(e, EngineEvent::RecoverySetback { task } if *task == mid))
        .count();
    assert!(setbacks >= 1, "the void must re-arm the open outage");
    let voided = events
        .iter()
        .filter(|(_, e)| matches!(e, EngineEvent::RestoreVoided { task } if *task == mid))
        .count();
    assert!(voided >= 1, "the stalled completion must observe the void");
    let lossy: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|(_, e)| match e {
            EngineEvent::ApproxRecovery {
                task,
                divergence,
                skipped_batches,
            } if *task == mid => Some((*divergence, *skipped_batches)),
            _ => None,
        })
        .collect();
    assert_eq!(
        lossy.len(),
        1,
        "exactly one lossy recovery despite the voided restore: {lossy:?}"
    );
    assert!(lossy[0].1 > 0, "the stalled outage skips replay: {lossy:?}");
    let outage = driven
        .report
        .outages
        .iter()
        .find(|o| o.task.0 == mid)
        .ok_or("mid task has no outage record")?;
    assert!(
        outage
            .records
            .last()
            .is_some_and(|r| r.recovered_at.is_some()),
        "the re-armed outage must still recover within the horizon"
    );
    assert_eq!(
        driven
            .metrics
            .counter("engine.approx.divergence_at_recovery"),
        lossy[0].0,
        "metered divergence equals the single event's divergence"
    );
    Ok(())
}

#[test]
fn zero_chaos_run_is_byte_identical_to_the_plain_fault_path() -> TestResult {
    let built = build(&params())?;
    let kill = FailureSpec {
        at: SimTime::from_secs(30),
        nodes: vec![built.placement.primary[0]],
    };
    // Through the chaos feed (quiet config)…
    let resolved = built
        .feed
        .with_spec(kill.clone())
        .resolve(&built.placement, built.horizon)?;
    assert!(resolved.schedule.is_empty());
    let chaos_run = {
        let b = build(&params())?;
        let mut sim = Simulation::new(&b.query, b.placement.clone(), b.config.clone());
        sim.set_horizon(b.horizon);
        sim.drive(
            &FaultFeed::from_trace(resolved.trace.clone()),
            &mut StaticPolicy,
            b.horizon,
        )?
        .report
    };
    // …and the plain path, no chaos subsystem anywhere.
    let plain_run = {
        let b = build(&params())?;
        let mut sim = Simulation::new(&b.query, b.placement.clone(), b.config.clone());
        sim.drive(
            &FaultFeed::new().with_spec(kill),
            &mut StaticPolicy,
            b.horizon,
        )?
        .report
    };
    assert_eq!(
        format!("{chaos_run:?}"),
        format!("{plain_run:?}"),
        "a quiet chaos feed must not perturb the run at all"
    );
    Ok(())
}

#[test]
fn horizons_reject_late_events_with_typed_errors() -> TestResult {
    let built = build(&params())?;
    let mut sim = Simulation::new(&built.query, built.placement.clone(), built.config.clone());
    let horizon = built.horizon;
    sim.set_horizon(horizon);
    let late = SimTime::from_secs(95);
    let kill_at = |at| FaultFeed::new().with_spec(FailureSpec { at, nodes: vec![0] });
    assert_eq!(
        sim.drive(&kill_at(late), &mut StaticPolicy, horizon).err(),
        Some(EngineError::EventPastHorizon { at: late, horizon })
    );
    assert_eq!(
        sim.inject_chaos(ChaosSpec {
            at: late,
            kind: ChaosKind::HeartbeatDuplicate
        }),
        Err(ChaosError::Engine(EngineError::EventPastHorizon {
            at: late,
            horizon
        }))
    );
    // Within the horizon both paths accept.
    sim.inject_chaos(ChaosSpec {
        at: SimTime::from_secs(30),
        kind: ChaosKind::HeartbeatDuplicate,
    })?;
    sim.drive(&kill_at(SimTime::from_secs(30)), &mut StaticPolicy, horizon)?;
    Ok(())
}

#[test]
fn a_small_swarm_runs_clean_and_repeatably() -> TestResult {
    let a = run_swarm(2024, 10)?;
    assert_eq!(a.failed(), Vec::<usize>::new(), "{}", a.render());
    let b = run_swarm(2024, 10)?;
    assert_eq!(a, b, "outcomes repeat run to run");
    assert_eq!(a.render(), b.render());
    Ok(())
}
