//! End-to-end recovery scenarios on the Fig. 6 topology: the orderings
//! behind Figures 7, 8 and 10 must hold at test scale.

use ppa::core::{PlanContext, Planner, StructureAwarePlanner, TaskSet};
use ppa::engine::{EngineConfig, FailureSpec, FtMode, RunReport, Simulation};
use ppa::sim::{SimDuration, SimTime};
use ppa::workloads::{fig6_scenario, Fig6Config, Scenario};

fn cfg() -> Fig6Config {
    Fig6Config {
        rate: 300,
        window: SimDuration::from_secs(10),
        ..Fig6Config::default()
    }
}

fn run(scenario: &Scenario, mode: FtMode, kill: Vec<usize>) -> RunReport {
    run_at_replay_cost(scenario, mode, kill, 1.0)
}

/// `run` with the cost model's replay constant scaled by `replay_mult`.
fn run_at_replay_cost(
    scenario: &Scenario,
    mode: FtMode,
    kill: Vec<usize>,
    replay_mult: f64,
) -> RunReport {
    let mut config = EngineConfig {
        mode,
        ..EngineConfig::default()
    };
    config.costs.replay_per_tuple = config.costs.replay_per_tuple.mul_f64(replay_mult);
    Simulation::run(
        &scenario.query,
        scenario.placement.clone(),
        config,
        vec![FailureSpec {
            at: SimTime::from_secs(40),
            nodes: kill,
        }],
        SimDuration::from_secs(140),
    )
}

fn mean_secs(report: &RunReport) -> f64 {
    report
        .mean_recovery_latency()
        .expect("all tasks recover")
        .as_secs_f64()
}

/// The Fig. 8 ordering on the all-workers kill, with the replay cost
/// scaled by `replay_mult`.
fn assert_strategy_ordering(replay_mult: f64) {
    let c = cfg();
    let scenario = fig6_scenario(&c);
    let kill = scenario.worker_kill_set.clone();
    let n = 31;
    let lat = |mode: FtMode| {
        mean_secs(&run_at_replay_cost(
            &scenario,
            mode,
            kill.clone(),
            replay_mult,
        ))
    };

    let active = lat(FtMode::active(n));
    let cp5 = lat(FtMode::checkpoint(n, SimDuration::from_secs(5)));
    let cp30 = lat(FtMode::checkpoint(n, SimDuration::from_secs(30)));
    assert!(
        active < cp5,
        "replay x{replay_mult}: active {active} < checkpoint-5 {cp5}"
    );
    assert!(
        cp5 < cp30,
        "replay x{replay_mult}: checkpoint-5 {cp5} < checkpoint-30 {cp30}"
    );
}

#[test]
fn correlated_failure_strategy_ordering() {
    assert_strategy_ordering(1.0);
}

/// The cost-model ablation (README design note 2): the ordering above is
/// not an artifact of the calibrated replay constant — it holds with
/// replay half and twice as expensive.
#[test]
fn strategy_ordering_survives_replay_cost_ablation() {
    for replay_mult in [0.5, 2.0] {
        assert_strategy_ordering(replay_mult);
    }
}

#[test]
fn storm_recovery_grows_with_window() {
    let scenario_small = fig6_scenario(&cfg());
    let big = Fig6Config {
        window: SimDuration::from_secs(30),
        ..cfg()
    };
    let scenario_big = fig6_scenario(&big);
    let storm = |s: &Scenario, w: u64| {
        mean_secs(&run(
            s,
            FtMode::SourceReplay {
                buffer: SimDuration::from_secs(w + 5),
            },
            s.worker_kill_set.clone(),
        ))
    };
    let short = storm(&scenario_small, 10);
    let long = storm(&scenario_big, 30);
    assert!(
        long > short,
        "storm must replay more for longer windows: {long} vs {short}"
    );
}

#[test]
fn recovery_latency_grows_with_rate() {
    let lat = |rate: usize| {
        let c = Fig6Config { rate, ..cfg() };
        let scenario = fig6_scenario(&c);
        mean_secs(&run(
            &scenario,
            FtMode::checkpoint(31, SimDuration::from_secs(15)),
            scenario.worker_kill_set.clone(),
        ))
    };
    assert!(lat(600) > lat(300), "double rate, more backlog to replay");
}

#[test]
fn ppa_half_sits_between_full_and_zero() {
    let c = cfg();
    let scenario = fig6_scenario(&c);
    let kill = scenario.worker_kill_set.clone();
    let cx = PlanContext::new(scenario.query.topology()).unwrap();
    let half = StructureAwarePlanner::default()
        .plan(&cx, 16)
        .unwrap()
        .tasks;
    let interval = SimDuration::from_secs(15);

    let full = mean_secs(&run(
        &scenario,
        FtMode::Ppa {
            plan: TaskSet::full(31),
            checkpoint_interval: Some(interval),
        },
        kill.clone(),
    ));
    let half_lat = mean_secs(&run(&scenario, FtMode::ppa(half, interval), kill.clone()));
    let zero = mean_secs(&run(
        &scenario,
        FtMode::Ppa {
            plan: TaskSet::empty(31),
            checkpoint_interval: Some(interval),
        },
        kill,
    ));
    assert!(full < half_lat, "PPA-1.0 {full} < PPA-0.5 {half_lat}");
    assert!(half_lat < zero, "PPA-0.5 {half_lat} < PPA-0 {zero}");
}

#[test]
fn tentative_output_long_before_full_recovery() {
    let c = Fig6Config {
        window: SimDuration::from_secs(30),
        ..cfg()
    };
    let scenario = fig6_scenario(&c);
    let cx = PlanContext::new(scenario.query.topology()).unwrap();
    let half = StructureAwarePlanner::default()
        .plan(&cx, 16)
        .unwrap()
        .tasks;
    let report = run(
        &scenario,
        FtMode::ppa(half, SimDuration::from_secs(30)),
        scenario.worker_kill_set.clone(),
    );
    let detected = report
        .recoveries()
        .iter()
        .map(|r| r.detected_at)
        .min()
        .unwrap();
    let first_tentative = report
        .first_tentative_after(detected)
        .expect("tentative outputs must flow");
    let full = report.full_recovery_at().expect("everything recovers");
    let t = first_tentative.since(detected).as_secs_f64();
    let f = full.since(detected).as_secs_f64();
    assert!(
        f / t.max(1e-9) > 2.0,
        "tentative at {t:.2}s vs full recovery {f:.2}s — gap too small"
    );
}

#[test]
fn detection_happens_on_heartbeat_boundaries() {
    let scenario = fig6_scenario(&cfg());
    let report = run(
        &scenario,
        FtMode::checkpoint(31, SimDuration::from_secs(5)),
        vec![scenario.worker_kill_set[0]],
    );
    for r in &report.recoveries() {
        let at = r.detected_at.as_micros();
        assert_eq!(
            at % 5_000_000,
            0,
            "detection on a 5s heartbeat scan, got {}",
            r.detected_at
        );
        assert!(r.detected_at >= r.failed_at);
        assert!(
            r.detected_at.since(r.failed_at) <= SimDuration::from_secs(5),
            "detection within one heartbeat interval"
        );
    }
}

#[test]
fn no_failure_means_no_recoveries_and_clean_sink() {
    let scenario = fig6_scenario(&cfg());
    let report = Simulation::run(
        &scenario.query,
        scenario.placement.clone(),
        EngineConfig {
            mode: FtMode::checkpoint(31, SimDuration::from_secs(5)),
            ..EngineConfig::default()
        },
        vec![],
        SimDuration::from_secs(60),
    );
    assert!(report.recoveries().is_empty());
    assert!(report.sink.iter().all(|s| !s.tentative));
    assert!(!report.sink.is_empty());
}

#[test]
fn engine_runs_are_reproducible_across_processes() {
    // Structural determinism: two independently built simulations with the
    // same seed produce identical sinks and event counts.
    let build = || {
        let scenario = fig6_scenario(&cfg());
        run(
            &scenario,
            FtMode::checkpoint(31, SimDuration::from_secs(15)),
            scenario.worker_kill_set.clone(),
        )
    };
    let a = build();
    let b = build();
    assert_eq!(a.events, b.events);
    let digest = |r: &RunReport| -> Vec<(u64, usize, bool)> {
        r.sink
            .iter()
            .map(|s| (s.batch, s.tuples.len(), s.tentative))
            .collect()
    };
    assert_eq!(digest(&a), digest(&b));
}
