//! The sink streams of one Q1 and one Q2 failure run, pinned by digest.
//! Each run is shaped like an accuracy run of the `corr_recovery`
//! benchmark: a PPA plan from the structure-aware planner at 40 % of the
//! tasks, checkpoints every 10 s, passive recovery held down, and every
//! primary node killed at 45 s. A change to any tuple the queries' sources
//! or operators emit, to their order, or to when a sink batch leaves,
//! shows here.

use ppa::core::{PlanContext, Planner, StructureAwarePlanner};
use ppa::engine::{EngineConfig, FailureTrace, FtMode, RunReport, Simulation, Value};
use ppa::sim::{SimDuration, SimTime};
use ppa::workloads::{q1_scenario, q2_scenario, NavigationConfig, Q1Config, Scenario};

/// Folds `bytes` into the FNV-1a-64 state `h`.
fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The run's event and moved-tuple counts, then every sink batch in
/// emission order: its task, batch, emission time, tentative flag and
/// tuples (key, variant tag, payload; floats by their bits), little-endian.
fn sink_digest(report: &RunReport) -> String {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for word in [report.events, report.tuples_moved] {
        h = fnv1a64(h, &word.to_le_bytes());
    }
    for sb in &report.sink {
        let head = [
            sb.task.0 as u64,
            sb.batch,
            sb.at.as_micros(),
            u64::from(sb.tentative),
            sb.tuples.len() as u64,
        ];
        for word in head {
            h = fnv1a64(h, &word.to_le_bytes());
        }
        for t in sb.tuples.iter() {
            h = fnv1a64(h, &t.key.to_le_bytes());
            h = match &t.value {
                Value::Empty => fnv1a64(h, &[0]),
                Value::Int(v) => fnv1a64(fnv1a64(h, &[1]), &v.to_le_bytes()),
                Value::Float(v) => fnv1a64(fnv1a64(h, &[2]), &v.to_bits().to_le_bytes()),
                Value::Pair(a, b) => {
                    let h = fnv1a64(fnv1a64(h, &[3]), &a.to_le_bytes());
                    fnv1a64(h, &b.to_le_bytes())
                }
                Value::Counts(counts) => counts.iter().fold(fnv1a64(h, &[4]), |h, (k, n)| {
                    fnv1a64(fnv1a64(h, &k.to_le_bytes()), &n.to_le_bytes())
                }),
            };
        }
    }
    format!("{h:016x}")
}

/// Runs `scenario` with every primary node killed at 45 s until
/// `horizon_secs`, under an SA plan over 40 % of its tasks.
fn failure_run(scenario: &Scenario, horizon_secs: u64) -> RunReport {
    let n = scenario.graph().n_tasks();
    let cx = PlanContext::new(scenario.query.topology()).unwrap();
    let plan = StructureAwarePlanner
        .plan(&cx, (n as f64 * 0.4).round() as usize)
        .unwrap()
        .tasks;
    let config = EngineConfig {
        mode: FtMode::ppa(plan, SimDuration::from_secs(10)),
        seed: 1,
        passive_recovery: false,
        ..EngineConfig::default()
    };
    let kill = FailureTrace::once(
        SimTime::from_secs(45),
        scenario.placement.all_primary_nodes(),
    );
    Simulation::run(
        &scenario.query,
        scenario.placement.clone(),
        config,
        &kill,
        SimDuration::from_secs(horizon_secs),
    )
}

#[test]
fn q1_failure_run_emits_the_pinned_sink_stream() {
    // Settles for detection plus the 20-batch window, then scores 20 batches.
    let report = failure_run(&q1_scenario(&Q1Config::default()), 45 + 27 + 20 + 5);
    assert!(report.sink.iter().any(|sb| sb.tentative));
    assert_eq!(sink_digest(&report), "139f0b9eaf448ebe");
}

#[test]
fn q2_failure_run_emits_the_pinned_sink_stream() {
    // Settles for detection plus the join's windows, then scores 20 batches.
    let report = failure_run(&q2_scenario(&NavigationConfig::default()), 45 + 13 + 20 + 5);
    assert!(report.sink.iter().any(|sb| sb.tentative));
    assert_eq!(sink_digest(&report), "2bff030928577f3d");
}
