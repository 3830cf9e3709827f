//! The benchmark's metric and workload tables: the one place their names,
//! units, directions and bounds are written down. `BENCHMARK.json` is
//! `bench --describe`, and a test keeps the committed file equal to it.

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// The metrics the contract's result line carries: defined on every
/// workload, never zero. The bounds are not the issue's 0.10 / 0.15 / 0.05
/// but three times the widest ten-seed spread `BASELINE.md` records for the
/// metric, capped at the contract's 0.25: the driver accepts a benchmark
/// only while every spread stays inside its bound, and on the 2-vCPU VM this
/// was sized on a run's median iteration time spreads 6–17 % of its median
/// whatever the run length and the estimator. `peak_rss_mb` repeats to
/// 0.1 % for one seed but `chaos_swarm`'s 12 MiB moves 6 % between seeds.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.2,
    },
];

/// The issue's other end-to-end metrics: exact for a seed, so their bound
/// is 0 and any worsening between two commits is a regression. The result
/// line cannot carry them — one is always zero, three exist on one workload
/// only, and none is steady across seeds — so `bench` prints them with the
/// others and writes them to its report, and `aa.sh` compares them per seed.
pub struct Exact {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The one workload whose figure it is; `None` is every workload.
    pub workload: Option<&'static str>,
}

pub const EXACT: &[Exact] = &[
    Exact {
        name: "fail_share",
        unit: "ratio",
        better: "lower",
        workload: None,
    },
    Exact {
        name: "sim_recovery_s",
        unit: "sim_s",
        better: "lower",
        workload: Some("corr_recovery"),
    },
    Exact {
        name: "sim_fidelity",
        unit: "ratio",
        better: "higher",
        workload: Some("corr_recovery"),
    },
    Exact {
        name: "plan_of",
        unit: "ratio",
        better: "higher",
        workload: Some("plan_corpus"),
    },
];

/// A workload: its name, why it exists, its timed iterations N in a run of
/// [`RUN_SECONDS`] (a constant, never a time budget, so two commits do the
/// same work), and what one op is.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
    pub iterations: u32,
    pub op: &'static str,
}

/// No run times fewer iterations than this, however short `--seconds` is.
pub const MIN_ITERATIONS: u32 = 15;
/// What the driver passes as `--seconds`, and `BENCHMARK.json`'s
/// `run_seconds`.
pub const RUN_SECONDS: u64 = 22;
/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 2016;

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "wide_steady",
        why: "event-bound: 10k tasks, ~50 tuples/event, no failure; scheduler, lanes, task scans, \
              construction and teardown are the cost; recovery, control, planner and obs idle",
        iterations: 48,
        op: "task-batch",
    },
    WorkloadInfo {
        name: "corr_recovery",
        why: "tuple-bound: 7 correlated-failure runs (Fig. 6 x4 modes, two-wave cascade, Q1, Q2), \
              ~600 tuples/event over <=31 tasks; hand-off, UDFs, restore/replay, control plane",
        iterations: 15,
        op: "source tuple",
    },
    WorkloadInfo {
        name: "chaos_swarm",
        why: "many tiny traced runs: a 400-seed chaos block per iteration; Simulation::new and \
              teardown, obs emission, fault generation and invariant checking dominate",
        iterations: 36,
        op: "seed",
    },
    WorkloadInfo {
        name: "plan_corpus",
        why: "planner only: SA and Greedy over a random-topology corpus at 6 ratios plus DP on \
              Fig. 6, Q1 and Q2; the engine does nothing, so engine changes predict no movement",
        iterations: 21,
        op: "plan request",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl WorkloadInfo {
    /// Timed iterations of a run of `seconds`: N scaled by the command
    /// line alone, so two commits given the same command do the same work.
    pub fn iterations_for(&self, seconds: u64) -> u32 {
        let scaled = (u64::from(self.iterations) * seconds).div_ceil(RUN_SECONDS) as u32;
        scaled.max(MIN_ITERATIONS)
    }
}

/// A per-layer metric of the traced run. `moves` names the end-to-end
/// metric and workload it should move; everywhere else the prediction is no
/// change.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn busy(name: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "s",
        better: "lower",
        moves,
    }
}

const fn tally(name: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: "lower",
        moves,
    }
}

const fn of(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // core
    busy("core.topology_gen.busy_s", "setup_s@plan_corpus"),
    busy("core.plan_context.busy_s", "wall_s@plan_corpus"),
    busy("core.sa_plan.busy_s", "wall_s@plan_corpus"),
    busy("core.dp_plan.busy_s", "wall_s@plan_corpus"),
    busy("core.greedy_plan.busy_s", "wall_s@plan_corpus"),
    busy("core.score.busy_s", "wall_s@plan_corpus"),
    tally("core.plans", "wall_s@plan_corpus"),
    tally("core.tasks", "wall_s@plan_corpus"),
    tally("core.mc_trees", "wall_s@plan_corpus"),
    tally("core.dp_failed", "wall_s@plan_corpus"),
    of("plan_of", "ratio", "higher", "quality@plan_corpus"),
    // sim
    of(
        "sim.scheduler.push_pop_ns",
        "ns",
        "lower",
        "wall_s@wide_steady",
    ),
    tally("sim.scheduler.events", "wall_s@wide_steady"),
    // faults
    busy(
        "faults.generate.busy_s",
        "setup_s@corr_recovery wall_s@chaos_swarm",
    ),
    busy("faults.trace_text.busy_s", "wall_s@chaos_swarm"),
    tally("faults.events", "setup_s@corr_recovery"),
    // workloads
    busy("workloads.scenario_build.busy_s", "setup_s@corr_recovery"),
    busy("workloads.accuracy.busy_s", "harness share only"),
    // engine.placement
    busy("engine.placement.place.busy_s", "setup_s@wide_steady"),
    busy(
        "engine.placement.plan_context.busy_s",
        "wall_s@corr_recovery",
    ),
    busy("engine.placement.evacuation.busy_s", "wall_s@corr_recovery"),
    // engine
    busy("engine.new.busy_s", "wall_s@wide_steady wall_s@chaos_swarm"),
    busy(
        "engine.teardown.busy_s",
        "wall_s@wide_steady wall_s@chaos_swarm",
    ),
    busy(
        "engine.drive.busy_s",
        "wall_s@wide_steady wall_s@corr_recovery",
    ),
    busy("engine.drive.steady.busy_s", "wall_s@corr_recovery"),
    busy("engine.drive.recovery.busy_s", "wall_s@corr_recovery"),
    busy("engine.drive.tail.busy_s", "wall_s@corr_recovery"),
    busy("engine.feed_resolve.busy_s", "wall_s@corr_recovery"),
    tally("engine.events", "wall_s@wide_steady"),
    tally("engine.tuples_moved", "wall_s@corr_recovery"),
    tally("engine.outages", "wall_s@corr_recovery"),
    tally("engine.refails", "wall_s@corr_recovery"),
    tally("engine.unrecovered", "wall_s@corr_recovery"),
    of("engine.ns_per_event", "ns", "lower", "wall_s@wide_steady"),
    of("engine.ns_per_tuple", "ns", "lower", "wall_s@corr_recovery"),
    of(
        "engine.allocs_per_event",
        "count",
        "lower",
        "cpu_s@wide_steady",
    ),
    of(
        "engine.alloc_bytes_per_tuple",
        "B",
        "lower",
        "cpu_s@corr_recovery peak_rss_mb",
    ),
    tally("engine.minor_faults", "peak_rss_mb cpu_s"),
    of("engine.sys_share", "ratio", "lower", "cpu_s"),
    of("sim_recovery_s", "sim_s", "lower", "quality@corr_recovery"),
    of("sim_fidelity", "ratio", "higher", "quality@corr_recovery"),
    // engine.control
    busy("engine.control.policy.busy_s", "wall_s@corr_recovery"),
    tally("engine.control.hook_calls", "wall_s@corr_recovery"),
    tally("engine.control.actions", "wall_s@corr_recovery"),
    tally("engine.control.no_effect", "wall_s@corr_recovery"),
    of(
        "engine.control.cpu_sim_s",
        "s",
        "lower",
        "wall_s@corr_recovery",
    ),
    // obs
    busy("obs.sink.record.busy_s", "wall_s@chaos_swarm"),
    tally("obs.events", "wall_s@chaos_swarm"),
    of("obs.trace_on_ratio", "ratio", "lower", "wall_s@chaos_swarm"),
    busy("obs.to_jsonl.busy_s", "none"),
    busy("obs.to_chrome_trace.busy_s", "none"),
    busy("obs.render_timeline.busy_s", "none"),
    busy("obs.check_stream.busy_s", "wall_s@chaos_swarm"),
    busy("obs.metrics_snapshot.busy_s", "wall_s@chaos_swarm"),
    of("obs.jsonl_bytes", "B", "lower", "none"),
    // chaos
    busy("chaos.params.busy_s", "wall_s@chaos_swarm"),
    busy("chaos.block.busy_s", "wall_s@chaos_swarm"),
    tally("chaos.seeds", "wall_s@chaos_swarm"),
    tally("chaos.violations", "wall_s@chaos_swarm"),
    tally("chaos.events_traced", "wall_s@chaos_swarm"),
    tally("chaos.outages_opened", "wall_s@chaos_swarm"),
    tally("chaos.outages_closed", "wall_s@chaos_swarm"),
    tally("chaos.chaos_fired", "wall_s@chaos_swarm"),
    tally("chaos.suppressed_kills", "wall_s@chaos_swarm"),
    // bench
    busy("bench.run_experiments.busy_s", "none"),
    of("bench.runs_wall_s", "s", "lower", "none"),
    of("bench.harness_overhead_s", "s", "lower", "none"),
    busy("bench.render_markdown.busy_s", "none"),
    busy("bench.write_json.busy_s", "none"),
    of("bench.json_bytes", "B", "lower", "none"),
    of("bench.pool_map_ns", "ns", "lower", "wall_s@chaos_swarm"),
    // the traced run itself
    of(
        "trace.iteration_wall_s",
        "s",
        "lower",
        "compare with wall_s of the untraced run",
    ),
    of(
        "trace.harness_self_s",
        "s",
        "lower",
        "the benchmark's own share of an iteration",
    ),
    of(
        "trace.coverage_ratio",
        "ratio",
        "higher",
        "spans' self time / iteration wall",
    ),
    of(
        "trace_overhead_ratio",
        "ratio",
        "lower",
        "spans on / spans off",
    ),
];

/// `BENCHMARK.json`, from the tables above.
pub fn describe() -> String {
    use crate::json_str;
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let why = format!(
            "{} (N={}, op={})",
            w.why.split_whitespace().collect::<Vec<_>>().join(" "),
            w.iterations_for(RUN_SECONDS),
            w.op
        );
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            json_str(w.name),
            json_str(&why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, describe(), "regenerate with `bench --describe`");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(
            describe().lines().all(|l| l.len() <= 260),
            "a `why` over 200"
        );
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
