//! Property tests for the approximate recovery family, over random
//! seeded update streams and full engine runs:
//!
//! * **(a) bounded drift** — the divergence a task carries between
//!   shipped backups never exceeds the error bound: every crossing arms
//!   a ship at the crossing instant (model level, random streams).
//! * **(b) bounded loss** — `divergence_at_recovery` recorded by each
//!   lossy recovery is at most the error bound plus the in-flight slack
//!   of the batches processed while a staged ship travels (engine level,
//!   across bounds and kill seeds), and each one skipped replay of at
//!   least one batch.
//! * **(c) monotone cadence** — a smaller error bound never ships fewer
//!   backups than a larger one over the identical run.

use ppa::engine::{
    DivergenceModel, EngineConfig, EngineEvent, FailureTrace, FaultFeed, FtMode, Simulation,
    StaticPolicy, VecSink,
};
use ppa::sim::{SimDuration, SimTime};
use ppa::workloads::{fig6_scenario, Fig6Config};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// (a) Bounded drift at the model level: over random seeded update
/// streams, shipping whenever `absorb` arms keeps the carried drift
/// strictly under the bound at every other instant, and a ship is never
/// armed below the bound.
#[test]
fn carried_divergence_never_exceeds_the_bound() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xD1F7 ^ seed);
        let bound = rng.gen_range(1..2_000u64);
        let mut model = DivergenceModel::new();
        for step in 0..500 {
            let tuples = rng.gen_range(0..300u64);
            if model.absorb(tuples, bound) {
                assert!(
                    model.pending() >= bound,
                    "seed {seed} step {step}: armed below the bound"
                );
                model.shipped();
                assert_eq!(model.pending(), 0, "a shipped backup covers all drift");
            }
            assert!(
                model.pending() < bound,
                "seed {seed} step {step}: carried drift {} >= bound {bound}",
                model.pending()
            );
        }
    }
}

/// (a') Monotone at the model level: on the identical random stream, a
/// smaller bound never ships fewer backups than a larger one.
#[test]
fn a_tighter_bound_never_ships_fewer_backups_on_the_same_stream() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED ^ seed);
        let stream: Vec<u64> = (0..400).map(|_| rng.gen_range(0..200u64)).collect();
        let ships = |bound: u64| -> usize {
            let mut model = DivergenceModel::new();
            let mut count = 0;
            for &tuples in &stream {
                if model.absorb(tuples, bound) {
                    count += 1;
                    model.shipped();
                }
            }
            count
        };
        let counts: Vec<usize> = [50u64, 200, 800, 3_200].iter().map(|&b| ships(b)).collect();
        for pair in counts.windows(2) {
            assert!(
                pair[0] >= pair[1],
                "seed {seed}: tighter bound shipped fewer backups ({counts:?})"
            );
        }
    }
}

/// One engine run of the quick Fig. 6 scenario under the approximate
/// mode: returns the recorded `(divergence, skipped_batches)` of every
/// lossy recovery and the number of backups shipped.
fn lossy_run(error_bound: u64, kill_seed: u64) -> (Vec<(u64, u64)>, u64) {
    let cfg = Fig6Config {
        rate: 300,
        window: SimDuration::from_secs(10),
        seed: 42 ^ kill_seed,
        ..Fig6Config::default()
    };
    let scenario = fig6_scenario(&cfg);
    // A seeded subset of the worker kill set: each seed kills a different
    // combination, so recoveries happen from varied snapshot ages.
    let kills: Vec<usize> = scenario
        .worker_kill_set
        .iter()
        .copied()
        .filter(|node| !(node + kill_seed as usize).is_multiple_of(3))
        .collect();
    let n = scenario.graph().n_tasks();
    let config = EngineConfig {
        seed: cfg.seed,
        mode: FtMode::approximate(n, SimDuration::from_secs(5), error_bound),
        ..EngineConfig::default()
    };
    let mut sim = Simulation::new(&scenario.query, scenario.placement.clone(), config);
    sim.set_trace_sink(Box::new(VecSink::new()));
    let horizon = SimTime::ZERO + SimDuration::from_secs(130);
    let trace = FailureTrace::once(SimTime::from_secs(40), kills);
    let driven = sim
        .drive(&FaultFeed::from_trace(trace), &mut StaticPolicy, horizon)
        .expect("kill set names live nodes");
    let events = sim
        .take_trace_sink()
        .map(|mut s| s.take_events())
        .unwrap_or_default();
    let lossy = events
        .iter()
        .filter_map(|(_, e)| match e {
            EngineEvent::ApproxRecovery {
                divergence,
                skipped_batches,
                ..
            } => Some((*divergence, *skipped_batches)),
            _ => None,
        })
        .collect();
    // Every recovered outage of a non-source task was a lossy restore,
    // noted by exactly one `ApproxRecovery` (sources regenerate exactly).
    let graph = scenario.graph();
    for outages in &driven.report.outages {
        let task = outages.task.0;
        let recovered = outages
            .records
            .iter()
            .filter(|r| r.recovered_at.is_some())
            .count();
        let noted = events
            .iter()
            .filter(|(_, e)| matches!(e, EngineEvent::ApproxRecovery { task: t, .. } if *t == task))
            .count();
        let expected = if graph.is_source_task(outages.task) {
            0
        } else {
            recovered
        };
        assert_eq!(
            noted, expected,
            "task {task}: one lossy recovery per restore"
        );
    }
    (
        lossy,
        driven.metrics.counter("engine.approx.backups_shipped"),
    )
}

/// (b) Bounded loss at the engine level: the divergence each lossy
/// recovery forfeits is at most the error bound plus the in-flight
/// slack — the tuples absorbed after a ship armed but before it fired
/// (bounded by one topology-wide batch per in-flight interval; two
/// batches is a conservative ceiling).
#[test]
fn divergence_at_recovery_is_bounded_per_closed_outage() {
    let per_batch_total: u64 = 300 * 16; // every source's emission per batch
    let slack = 2 * per_batch_total;
    for &bound in &[500u64, 2_000, 8_000] {
        for kill_seed in 0..3u64 {
            let (lossy, _) = lossy_run(bound, kill_seed);
            assert!(
                !lossy.is_empty(),
                "bound {bound} seed {kill_seed}: no lossy recovery recorded"
            );
            for (divergence, skipped) in lossy {
                assert!(
                    divergence <= bound + slack,
                    "bound {bound} seed {kill_seed}: recovery forfeited {divergence} \
                     > bound + slack {}",
                    bound + slack
                );
                assert!(
                    skipped > 0,
                    "bound {bound} seed {kill_seed}: nothing skipped"
                );
            }
        }
    }
}

/// (c) Monotone cadence at the engine level: over the identical scenario
/// and kill set, tightening the bound never ships fewer backups.
#[test]
fn a_tighter_bound_never_ships_fewer_backups_end_to_end() {
    for kill_seed in 0..2u64 {
        let shipped: Vec<u64> = [500u64, 2_000, 8_000]
            .iter()
            .map(|&bound| lossy_run(bound, kill_seed).1)
            .collect();
        assert!(
            shipped[0] >= shipped[1] && shipped[1] >= shipped[2],
            "seed {kill_seed}: ship counts not monotone in the bound: {shipped:?}"
        );
        assert!(
            shipped[0] > 0,
            "seed {kill_seed}: the tight bound never shipped"
        );
    }
}
