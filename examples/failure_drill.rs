//! A failure drill on the Fig. 6 topology: inject the paper's correlated
//! failure (all 15 synthetic-task nodes die) under each fault-tolerance
//! strategy and compare recovery latencies and tentative-output timing.
//!
//! ```text
//! cargo run --release --example failure_drill
//! ```

use ppa::core::{PlanContext, Planner, StructureAwarePlanner};
use ppa::engine::{EngineConfig, FailureSpec, FtMode, Simulation};
use ppa::sim::{SimDuration, SimTime};
use ppa::workloads::{fig6_scenario, Fig6Config};

fn main() {
    let cfg = Fig6Config {
        rate: 1000,
        window: SimDuration::from_secs(30),
        ..Fig6Config::default()
    };
    let scenario = fig6_scenario(&cfg);
    let n = scenario.graph().n_tasks();
    let cx = PlanContext::new(scenario.query.topology()).unwrap();
    let half_plan = StructureAwarePlanner::default()
        .plan(&cx, n / 2)
        .unwrap()
        .tasks;

    let strategies: Vec<(&str, FtMode)> = vec![
        ("Active-5s", FtMode::active(n)),
        (
            "PPA-0.5",
            FtMode::ppa(half_plan, SimDuration::from_secs(15)),
        ),
        (
            "Checkpoint-15s",
            FtMode::checkpoint(n, SimDuration::from_secs(15)),
        ),
        (
            "Storm",
            FtMode::SourceReplay {
                buffer: SimDuration::from_secs(35),
            },
        ),
    ];

    println!(
        "{:>15} {:>12} {:>12} {:>16}",
        "strategy", "mean (s)", "max (s)", "1st tentative (s)"
    );
    for (label, mode) in strategies {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        };
        let report = Simulation::run(
            &scenario.query,
            scenario.placement.clone(),
            config,
            vec![FailureSpec {
                at: SimTime::from_secs(70),
                nodes: scenario.worker_kill_set.clone(),
            }],
            SimDuration::from_secs(260),
        );
        let detected = report
            .recoveries()
            .iter()
            .map(|r| r.detected_at)
            .min()
            .unwrap();
        let mean = report
            .mean_recovery_latency()
            .map_or(f64::NAN, |d| d.as_secs_f64());
        let max = report
            .recoveries()
            .iter()
            .filter_map(|r| r.latency())
            .map(|d| d.as_secs_f64())
            .fold(f64::NAN, f64::max);
        let tentative = report
            .first_tentative_after(detected)
            .map_or("—".to_string(), |t| {
                format!("{:.2}", t.since(detected).as_secs_f64())
            });
        println!("{label:>15} {mean:>12.2} {max:>12.2} {tentative:>16}");
    }
    println!(
        "\n(correlated failure at t=70s over {} worker nodes; detection ≤ 5s later)",
        scenario.worker_kill_set.len()
    );
}
