//! The two run shapes. Untraced (`bench`): set-up, three untimed warm-up
//! iterations, then N timed iterations of identical work, medians reported.
//! Traced (`traced`): a cold iteration, three iterations with spans on
//! between three with spans off, the layer probes, and a Chrome trace of
//! all of it.

use crate::clock::{peak_rss_mib, timed, usage, Timed};
use crate::env::Environment;
use crate::metrics::{self, WorkloadInfo, DEFAULT_SEED, END_TO_END, EXACT, PER_LAYER, RUN_SECONDS};
use crate::spans::{self, Recording};
use crate::stats::{median, quartiles};
use crate::workloads::chaos_swarm::ChaosSwarm;
use crate::workloads::corr_recovery::CorrRecovery;
use crate::workloads::plan_corpus::PlanCorpus;
use crate::workloads::wide_steady::WideSteady;
use crate::workloads::{Outcome, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// Untimed warm-up iterations before the timed ones.
const WARMUPS: usize = 3;
/// Iterations the traced run records (and as many more with spans off).
const TRACED_ITERATIONS: u32 = 3;

pub struct Args {
    pub workload: Option<&'static WorkloadInfo>,
    pub seed: u64,
    pub seconds: u64,
}

const USAGE: &str = "usage: bench|traced [--workload wide_steady|corr_recovery|chaos_swarm|\
plan_corpus] [--seed N] [--seconds 1..60] [--trace 0|1] | --describe";

/// Parses the command line; `Err` carries what to print before exiting 2.
/// `--trace` only has to agree with the binary it was given to: the `traced`
/// binary alone carries the counting allocator, and `run.sh` picks it.
pub fn parse_args(argv: impl Iterator<Item = String>, traced_binary: bool) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
    };
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    metrics::workload(&name)
                        .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed: {e}\n{USAGE}"))?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("--seconds takes 1..60\n{USAGE}"))?;
            }
            "--trace" => {
                let wanted = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}\n{USAGE}")),
                };
                if wanted != traced_binary {
                    return Err(format!(
                        "--trace {} is the `{}` binary's run; benchmark/run.sh picks it",
                        u8::from(wanted),
                        if wanted { "traced" } else { "bench" }
                    ));
                }
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// One reported value with its unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What a run of one workload hands back: the contract's four keys.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Metrics as JSON fields (no braces).
fn metrics_json(metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    fields.join(", ")
}

impl RunResult {
    /// The contract's result line.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// Checks tallied over a run: the workload's own, plus one per fingerprint
/// word and per figure against the first iteration's.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    reference: Option<Outcome>,
}

impl Checks {
    fn take(&mut self, outcome: Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        let Some(reference) = &self.reference else {
            self.reference = Some(outcome);
            return;
        };
        let words = outcome.fingerprint.len().max(reference.fingerprint.len());
        for i in 0..words {
            self.attempted += 1;
            self.failed += u64::from(outcome.fingerprint.get(i) != reference.fingerprint.get(i));
        }
        let figures = outcome.figures.len().max(reference.figures.len());
        for i in 0..figures {
            let bits = |o: &Outcome| o.figures.get(i).map(|&(name, v)| (name, v.to_bits()));
            self.attempted += 1;
            self.failed += u64::from(bits(&outcome) != bits(reference));
        }
    }
}

fn spread_line(name: &str, unit: &str, values: &[f64]) -> String {
    let [p25, p50, p75] = quartiles(values);
    format!(
        "{name:<14} p50 {p50:.6} {unit}  p25 {p25:.6}  p75 {p75:.6}  n {}",
        values.len()
    )
}

/// `started` is the first thing `main` read: `setup_s` runs from there.
fn untraced<W: Workload>(
    info: &WorkloadInfo,
    args: &Args,
    env: &Environment,
    started: Instant,
) -> RunResult {
    let mut checks = Checks::default();

    // Set-up: every input from the seed, then the warm-ups, untimed one by
    // one, on the state that is then timed. Lazily initialised or hoisted
    // work shows in `setup_s`, not in the iterations.
    let (mut workload, inputs) = timed(|| W::setup(args.seed));
    for _ in 0..WARMUPS {
        checks.take(workload.iterate());
    }
    let setup_s = started.elapsed().as_secs_f64();

    let n = info.iterations_for(args.seconds);
    let mut times: Vec<Timed> = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let (outcome, t) = timed(|| workload.iterate());
        times.push(t);
        checks.take(outcome);
    }

    let walls: Vec<f64> = times.iter().map(|t| t.wall_s).collect();
    let cpus: Vec<f64> = times.iter().map(|t| t.cpu_s).collect();
    let wall_s = median(&walls);
    let ops = workload.ops_per_iteration();
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("wall_s", wall_s),
        ("cpu_s", median(&cpus)),
        ("ops_per_s", ops as f64 / wall_s),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mib()),
    ]);
    let result = RunResult {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, values[m.name], m.unit))
            .collect(),
    };

    // The end-to-end metrics that are exact for a seed: the share of failed
    // checks, and the workload's own figures of merit.
    let figures = &checks.reference.as_ref().expect("iterations ran").figures;
    let fail_share = checks.failed as f64 / checks.attempted as f64;
    let exact: Metrics = EXACT
        .iter()
        .filter_map(|m| {
            let value = match m.workload {
                None => fail_share,
                Some(_) => figures.iter().find(|(name, _)| *name == m.name)?.1,
            };
            Some((m.name, value, m.unit))
        })
        .collect();

    println!(
        "# {} seed {} iterations {} ops/iteration {} ({})",
        info.name, args.seed, n, ops, info.op
    );
    for (name, value, unit) in result.metrics.iter().chain(&exact) {
        println!("{name:<14} {value} {unit}");
    }
    println!("{}", spread_line("wall_s", "s", &walls));
    println!("{}", spread_line("cpu_s", "s", &cpus));
    println!(
        "setup_s        of which inputs {:.6} s, the rest {WARMUPS} warm-up iterations",
        inputs.wall_s
    );
    println!(
        "checks         {} failed of {}",
        checks.failed, checks.attempted
    );

    // The full report: what the result line cannot carry.
    let samples = |v: &[f64]| {
        let [p25, p50, p75] = quartiles(v);
        let list: Vec<String> = v.iter().map(f64::to_string).collect();
        format!(
            "{{\"n\": {}, \"p25\": {p25}, \"p50\": {p50}, \"p75\": {p75}, \"samples\": [{}]}}",
            v.len(),
            list.join(", ")
        )
    };
    let report = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"iterations\": {n}, \"op\": \"{}\", \
         \"ops_per_iteration\": {ops},\n \"metrics\": {{{}}},\n \"exact\": {{{}}},\n \
         \"attempted\": {}, \"failed\": {}, \"setup_inputs_s\": {},\n \
         \"iteration_wall_s\": {},\n \"iteration_cpu_s\": {},\n \"env\": {{{}}}}}\n",
        info.name,
        args.seed,
        info.op,
        metrics_json(&result.metrics),
        metrics_json(&exact),
        checks.attempted,
        checks.failed,
        inputs.wall_s,
        samples(&walls),
        samples(&cpus),
        env.json_fields()
    );
    let path = crate::out_dir().join(format!("report-{}.json", info.name));
    std::fs::write(&path, report).expect("benchmark/out is writable");
    println!("# report {}", path.display());
    result
}

/// What the traced run recorded, read per iteration: a span name's busy
/// seconds or a count's value is its mean over the traced iterations when
/// iterations made it, else its total over set-up and probes.
struct Layers {
    rec: Recording,
}

impl Layers {
    fn in_iteration(iteration: u32) -> bool {
        (1..=TRACED_ITERATIONS).contains(&iteration)
    }

    /// Values tagged with the iteration id they were recorded under: their
    /// mean per traced iteration if any was recorded inside one, else the
    /// total of those recorded outside.
    fn per_iteration(tagged: impl Iterator<Item = (u32, f64)>) -> f64 {
        let (mut inside, mut outside, mut any_inside) = (0.0, 0.0, false);
        for (iteration, v) in tagged {
            if Self::in_iteration(iteration) {
                inside += v;
                any_inside = true;
            } else {
                outside += v;
            }
        }
        if any_inside {
            inside / f64::from(TRACED_ITERATIONS)
        } else {
            outside
        }
    }

    /// Sums `f` over the spans named in `names`.
    fn spans(&self, names: &[&str], f: impl Fn(&spans::Span) -> f64) -> f64 {
        let named = self.rec.spans.iter().filter(|s| names.contains(&s.name));
        Self::per_iteration(named.map(|s| (s.iteration, f(s))))
    }

    fn busy_s(&self, span: &str) -> f64 {
        self.spans(&[span], spans::Span::dur_s)
    }

    fn count(&self, name: &str) -> f64 {
        let named = self.rec.counts.iter().filter(|((n, _), _)| *n == name);
        Self::per_iteration(named.map(|(&(_, iteration), &v)| (iteration, v)))
    }

    /// The benchmark's own share of an iteration: the self time of the
    /// iteration spans and of the harness's spans inside them.
    fn harness_self_s(&self) -> f64 {
        let own = self.rec.self_s();
        let total: f64 = self
            .rec
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| {
                Self::in_iteration(s.iteration)
                    && (s.name == "iteration" || s.name.starts_with("harness."))
            })
            .map(|(_, own)| own)
            .sum();
        total / f64::from(TRACED_ITERATIONS)
    }
}

fn traced<W: Workload>(info: &WorkloadInfo, args: &Args, env: &Environment) -> RunResult {
    let mut checks = Checks::default();

    spans::set_enabled(true);
    spans::set_iteration(0);
    let mut workload = spans::span("setup", || W::setup(args.seed));
    // One cold iteration, then spans off and on by turns on the same state:
    // the same binary, the same allocator, adjacent in time, so the ratio
    // below is the recorder's cost and nothing else.
    spans::set_enabled(false);
    checks.take(workload.iterate());
    let (mut off, mut on): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let (mut user_s, mut sys_s, mut minor_faults) = (0.0, 0.0, 0u64);
    for i in 1..=TRACED_ITERATIONS {
        spans::set_enabled(false);
        let (outcome, t) = timed(|| workload.iterate());
        off.push(t.wall_s);
        checks.take(outcome);

        spans::set_enabled(true);
        spans::set_iteration(i);
        let before = usage();
        let (outcome, t) = timed(|| spans::span("iteration", || workload.iterate()));
        let after = usage();
        on.push(t.wall_s);
        checks.take(outcome);
        user_s += after.user_s - before.user_s;
        sys_s += after.sys_s - before.sys_s;
        minor_faults += after.minor_faults - before.minor_faults;
    }
    spans::set_iteration(TRACED_ITERATIONS + 1);
    spans::span("probes", || workload.probes());
    let layers = Layers { rec: spans::take() };

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    const ENGINE: [&str; 3] = ["engine.new", "engine.drive", "engine.teardown"];
    let engine_busy_ns = layers.spans(&ENGINE, spans::Span::dur_s) * 1e9;
    let iteration_wall = layers.busy_s("iteration");
    let harness_self = layers.harness_self_s();

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for m in PER_LAYER {
        // A layer timed by a decorator reports its seconds as a count
        // under the metric's own name; everything else is a span.
        let span = m
            .name
            .strip_suffix(".busy_s")
            .map_or(0.0, |s| layers.busy_s(s));
        let v = span + layers.count(m.name);
        values.insert(m.name, v);
    }
    for &(name, value) in &checks.reference.as_ref().expect("iterations ran").figures {
        values.insert(name, value);
    }
    values.extend([
        (
            "sim.scheduler.push_pop_ns",
            ratio(
                layers.busy_s("sim.scheduler.push_pop") * 1e9,
                layers.count("sim.scheduler.events"),
            ),
        ),
        (
            "engine.ns_per_event",
            ratio(engine_busy_ns, layers.count("engine.events")),
        ),
        (
            "engine.ns_per_tuple",
            ratio(engine_busy_ns, layers.count("engine.tuples_moved")),
        ),
        (
            "engine.allocs_per_event",
            ratio(
                layers.spans(&ENGINE, |s| s.allocs as f64),
                layers.count("engine.events"),
            ),
        ),
        (
            "engine.alloc_bytes_per_tuple",
            ratio(
                layers.spans(&ENGINE, |s| s.alloc_bytes as f64),
                layers.count("engine.tuples_moved"),
            ),
        ),
        (
            "engine.minor_faults",
            minor_faults as f64 / f64::from(TRACED_ITERATIONS),
        ),
        ("engine.sys_share", ratio(sys_s, sys_s + user_s)),
        (
            "obs.trace_on_ratio",
            ratio(
                layers.count("obs.trace_on_s"),
                layers.count("obs.trace_off_s"),
            ),
        ),
        (
            "bench.pool_map_ns",
            ratio(
                layers.busy_s("bench.pool_map") * 1e9,
                layers.count("bench.pool_map_items"),
            ),
        ),
        (
            "bench.harness_overhead_s",
            layers.busy_s("bench.run_experiments") - layers.count("bench.runs_wall_s"),
        ),
        ("trace.iteration_wall_s", iteration_wall),
        ("trace.harness_self_s", harness_self),
        (
            "trace.coverage_ratio",
            ratio(iteration_wall - harness_self, iteration_wall),
        ),
        ("trace_overhead_ratio", ratio(median(&on), median(&off))),
    ]);

    let trace_path = crate::out_dir().join(format!("trace-{}.json", info.name));
    std::fs::write(&trace_path, layers.rec.to_chrome_trace(info.name))
        .expect("benchmark/out is writable");
    println!(
        "# {} seed {} traced iterations {} spans {} -> {}",
        info.name,
        args.seed,
        TRACED_ITERATIONS,
        layers.rec.spans.len(),
        trace_path.display()
    );
    for m in PER_LAYER {
        println!(
            "{:<40} {} {}  # moves {}",
            m.name, values[m.name], m.unit, m.moves
        );
    }
    println!("# env {{{}}}", env.json_fields());

    RunResult {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, values[m.name], m.unit))
            .collect(),
    }
}

fn run_one(
    info: &'static WorkloadInfo,
    args: &Args,
    env: &Environment,
    traced_binary: bool,
    started: Instant,
) -> RunResult {
    macro_rules! shape {
        ($w:ty) => {
            if traced_binary {
                traced::<$w>(info, args, env)
            } else {
                untraced::<$w>(info, args, env, started)
            }
        };
    }
    match info.name {
        "wide_steady" => shape!(WideSteady),
        "corr_recovery" => shape!(CorrRecovery),
        "chaos_swarm" => shape!(ChaosSwarm),
        "plan_corpus" => shape!(PlanCorpus),
        other => unreachable!("{other} is not in the workload table"),
    }
}

/// The whole program, shared by both binaries; `traced_binary` is which one.
/// Returns the exit code.
pub fn main(traced_binary: bool) -> i32 {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().collect();
    if argv.iter().any(|a| a == "--describe") {
        print!("{}", metrics::describe());
        return 0;
    }
    let args = match parse_args(argv.iter().cloned(), traced_binary) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return 2;
        }
    };
    let Some(info) = args.workload else {
        return every_workload(&argv);
    };
    let result = run_one(info, &args, &Environment::read(), traced_binary, started);
    println!("{}", result.to_json_line());
    i32::from(result.failed > 0)
}

/// No `--workload`: one child process per workload, each with the parent's
/// own arguments, so every workload's `peak_rss_mb` is its own process's.
fn every_workload(argv: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut failed = false;
    for info in metrics::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(&argv[1..])
            .args(["--workload", info.name])
            .status()
            .expect("the benchmark can start itself");
        failed |= !status.success();
    }
    i32::from(failed)
}
