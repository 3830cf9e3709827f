//! Control-plane contract tests.
//!
//! 1. **Outage accounting under repeat kills**: over random multi-wave
//!    kill traces that re-kill nodes and aim at activated replicas, every
//!    task's outage history stays consistent, the first-outage view is
//!    exactly each history's first record, and the recorded event stream
//!    agrees with the histories record by record.
//! 2. **Health decay**: `DomainHealth`'s decayed score is monotonically
//!    non-increasing between failures, over a deterministic grid of
//!    half-lives, failure patterns and sample offsets (the offline
//!    stand-in for a proptest strategy).

use ppa::engine::{DomainHealth, EngineConfig, FailureSpec, FtMode, Simulation, StaticPolicy};
use ppa::sim::{SimDuration, SimTime};
use ppa::workloads::{fig6_scenario, Fig6Config};
use ppa_core::TaskSet;
use ppa_faults::DomainId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn quick_fig6() -> Fig6Config {
    Fig6Config {
        rate: 300,
        window: SimDuration::from_secs(10),
        ..Fig6Config::default()
    }
}

/// Random multi-wave kill trace over a scenario: waves re-kill nodes of
/// earlier waves and aim at the standby nodes hosting activated replicas
/// — the re-failure path under test. Deterministic in `(waves, seed)`.
fn multi_wave_failures(s: &ppa::workloads::Scenario, waves: usize, seed: u64) -> Vec<FailureSpec> {
    let mut rng = StdRng::seed_from_u64(0x007a_6e00 ^ ((waves as u64) << 32) ^ seed);
    // Kill pool: the worker nodes plus every standby node hosting a
    // replica — the nodes whose death causes re-failures.
    let mut pool = s.worker_kill_set.clone();
    pool.extend(s.placement.standby.iter().copied());
    pool.sort_unstable();
    pool.dedup();
    let mut failures: Vec<FailureSpec> = Vec::new();
    let mut at = 20u64;
    for w in 0..waves {
        at += rng.gen_range(5..20u64);
        let k = rng.gen_range(1..5usize);
        let mut nodes: Vec<usize> = (0..k).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        if w > 0 {
            // Explicit repeat kill of an earlier wave's node.
            nodes.push(failures[w - 1].nodes[0]);
            // And aim at the standby hosting the activated replica of a
            // first-wave victim.
            if let Some(&victim) = s.placement.tasks_on(failures[0].nodes[0]).first() {
                nodes.push(s.placement.standby[victim.0]);
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        failures.push(FailureSpec {
            at: SimTime::from_secs(at),
            nodes,
        });
    }
    failures
}

#[test]
fn outage_histories_are_consistent_under_repeat_kills() {
    // Deterministic grid standing in for a proptest strategy: random
    // multi-wave traces over the Fig. 6 scenario, with waves re-killing
    // nodes of earlier waves and hitting the standby nodes where
    // activated replicas live. For every task's outage history:
    //
    //   * every record satisfies failed_at ≤ detected_at ≤ recovered_at
    //     (with the undetected/unrecovered tails allowed only on the
    //     last, still-open record);
    //   * histories are time-ordered and only ever extended after the
    //     previous outage recovered;
    //   * the report's `recoveries` view is exactly each history's first
    //     record — so single-wave traces reproduce the historical
    //     one-shot report (regression parity).
    let mut total_refails = 0usize;
    for waves in [1usize, 3] {
        for seed in 0..6u64 {
            let s = fig6_scenario(&quick_fig6());
            let n = s.graph().n_tasks();
            let failures = multi_wave_failures(&s, waves, seed);
            let config = EngineConfig {
                mode: FtMode::ppa(TaskSet::full(n), SimDuration::from_secs(5)),
                ..EngineConfig::default()
            };
            let report = Simulation::run(
                &s.query,
                s.placement.clone(),
                config,
                failures.clone(),
                SimDuration::from_secs(100),
            );

            let label = format!("waves {waves} seed {seed} failures {failures:?}");
            assert_eq!(
                report.recoveries().len(),
                report.outages.len(),
                "one first-outage view per history: {label}"
            );
            for (view, history) in report.recoveries().iter().zip(&report.outages) {
                assert!(!history.records.is_empty(), "{label}");
                // The view is exactly the first record.
                assert_eq!(view.task, history.task, "{label}");
                let first = &history.records[0];
                assert_eq!(view.via_replica, first.via_replica, "{label}");
                assert_eq!(view.failed_at, first.failed_at, "{label}");
                assert_eq!(view.detected_at, first.detected_at, "{label}");
                assert_eq!(view.recovered_at, first.recovered_at, "{label}");
                if waves == 1 {
                    assert_eq!(
                        history.records.len(),
                        1,
                        "single-wave histories are one-shot: {label}"
                    );
                }
                for (i, rec) in history.records.iter().enumerate() {
                    // Only the last record may still be open/undetected.
                    if i + 1 < history.records.len() {
                        assert!(rec.detected() && !rec.open(), "{label}: {history:?}");
                    }
                    if rec.detected() {
                        assert!(rec.failed_at <= rec.detected_at, "{label}: {rec:?}");
                    } else {
                        assert!(rec.open(), "recovered but never detected: {rec:?}");
                    }
                    if let Some(recovered) = rec.recovered_at {
                        assert!(rec.detected(), "{label}: {rec:?}");
                        assert!(recovered >= rec.detected_at, "{label}: {rec:?}");
                    }
                    if i > 0 {
                        assert!(
                            rec.failed_at >= history.records[i - 1].failed_at,
                            "history out of time order: {label}: {history:?}"
                        );
                    }
                }
                total_refails += history.refail_count();
            }
        }
    }
    assert!(
        total_refails > 0,
        "the grid must actually exercise re-failures"
    );
}

#[test]
fn trace_events_agree_with_outage_histories() {
    // The structured event stream must be consistent with the report's
    // outage accounting, over the same random multi-wave grid as above.
    // Per OutageRecord: one OutageOpened with the right refail flag, a
    // matching OutageDetected at detected_at, and exactly one closing
    // event whose variant (ReplicaActivated / RestoreDone) matches
    // via_replica.
    use ppa::engine::{EngineEvent, VecSink};

    let mut total_refails = 0usize;
    for waves in [1usize, 3] {
        for seed in 0..6u64 {
            let s = fig6_scenario(&quick_fig6());
            let n = s.graph().n_tasks();
            let failures = multi_wave_failures(&s, waves, seed);
            let config = EngineConfig {
                mode: FtMode::ppa(TaskSet::full(n), SimDuration::from_secs(5)),
                ..EngineConfig::default()
            };
            let mut sim = Simulation::new(&s.query, s.placement.clone(), config);
            sim.set_trace_sink(Box::new(VecSink::new()));
            let report = sim
                .drive(
                    &failures.clone().into(),
                    &mut StaticPolicy,
                    SimTime::from_secs(100),
                )
                .expect("kill sets name live cluster nodes")
                .report;
            let events = sim
                .take_trace_sink()
                .map(|mut s| s.take_events())
                .unwrap_or_default();
            let label = format!("waves {waves} seed {seed} failures {failures:?}");

            for history in &report.outages {
                let t = history.task.0;
                // One OutageOpened per record, refail-flagged after the
                // first (emission order matches record order).
                let opened: Vec<bool> = events
                    .iter()
                    .filter_map(|(_, e)| match e {
                        EngineEvent::OutageOpened { task, refail } if *task == t => Some(*refail),
                        _ => None,
                    })
                    .collect();
                let expect: Vec<bool> = (0..history.records.len()).map(|i| i > 0).collect();
                assert_eq!(opened, expect, "{label}: opened events for task {t}");

                for rec in &history.records {
                    if rec.detected() {
                        assert!(
                            events.iter().any(|(at, e)| {
                                *at == rec.detected_at
                                    && matches!(
                                        e,
                                        EngineEvent::OutageDetected { task } if *task == t
                                    )
                            }),
                            "{label}: no OutageDetected at {} for task {t}",
                            rec.detected_at
                        );
                    }
                    if let Some(recovered) = rec.recovered_at {
                        let closes: Vec<&EngineEvent> = events
                            .iter()
                            .filter(|(at, e)| {
                                *at == recovered && e.closes_outage() && e.task() == Some(t)
                            })
                            .map(|(_, e)| e)
                            .collect();
                        assert_eq!(
                            closes.len(),
                            1,
                            "{label}: exactly one closing event at {recovered} for task {t}: \
                             {closes:?}"
                        );
                        let via_replica = matches!(closes[0], EngineEvent::ReplicaActivated { .. });
                        assert_eq!(
                            via_replica, rec.via_replica,
                            "{label}: closing variant for task {t}"
                        );
                    }
                }
                // Globally: one closing event per recovered record, none
                // for still-open outages.
                let recovered = history
                    .records
                    .iter()
                    .filter(|r| r.recovered_at.is_some())
                    .count();
                let closes = events
                    .iter()
                    .filter(|(_, e)| e.closes_outage() && e.task() == Some(t))
                    .count();
                assert_eq!(closes, recovered, "{label}: total closes for task {t}");
                total_refails += history.refail_count();
            }
        }
    }
    assert!(
        total_refails > 0,
        "the grid must actually exercise re-failures"
    );
}

#[test]
fn health_decay_is_monotone_between_failures() {
    // Deterministic grid standing in for a proptest strategy: half-lives
    // × failure-count × seeds. After the last failure, sampling the
    // decayed score at strictly increasing instants must never increase
    // it, and the score stays positive (exponential decay has no zero).
    for half_life_s in [1u64, 7, 30, 300] {
        for n_failures in [1usize, 3, 10] {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(
                    0x5EED ^ (half_life_s << 24) ^ ((n_failures as u64) << 8) ^ seed,
                );
                let mut h = DomainHealth::new(4, SimDuration::from_secs(half_life_s));
                let d = DomainId(rng.gen_range(0..4));
                let mut last = 0u64;
                for _ in 0..n_failures {
                    last += rng.gen_range(1..120_000_000u64);
                    h.record(d, SimTime::from_micros(last));
                }
                let mut at = last;
                let mut prev = f64::INFINITY;
                for _ in 0..50 {
                    at += rng.gen_range(1..30_000_000u64);
                    let score = h.score_at(d, SimTime::from_micros(at));
                    assert!(
                        score <= prev + 1e-12,
                        "half-life {half_life_s}s failures {n_failures} seed {seed}: \
                         score rose from {prev} to {score} at {at}µs"
                    );
                    assert!(score > 0.0, "decay never reaches zero");
                    prev = score;
                }
                // Other domains stay untouched.
                for other in 0..4 {
                    if DomainId(other) != d {
                        assert_eq!(h.score_at(DomainId(other), SimTime::from_micros(at)), 0.0);
                    }
                }
            }
        }
    }
}
