//! The parallel experiment runner.
//!
//! Experiments run concurrently, one orchestration thread each; all their
//! heavy work funnels through a single bounded [`Gate`] shared by every
//! experiment, so `--jobs N` bounds the *whole process*, not each
//! experiment. Results are collected and rendered in registry order, and
//! every leaf job owns its seed, so stdout is byte-identical for any job
//! count.

use crate::json::Json;
use crate::pool::Gate;
use crate::stopwatch::Stopwatch;
use crate::{registry, Experiment, Figure};
use ppa_engine::{EngineEvent, RunReport};
use ppa_obs::{to_chrome_trace, to_jsonl};
use ppa_sim::SimTime;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Options for one harness invocation.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// CI scale instead of paper scale.
    pub quick: bool,
    /// Worker-pool size (leaf jobs running at once). 0 = available
    /// parallelism.
    pub jobs: usize,
    /// Experiment ids to run; empty = all.
    pub only: Vec<String>,
    /// Case-insensitive substring filter over experiment ids, applied
    /// after `only` (`--filter sweep` selects every `*_sweep`).
    pub filter: Option<String>,
    /// Emit per-experiment progress and timings on stderr.
    pub progress: bool,
    /// Record engine traces: every driven run's event stream lands under
    /// `<trace_dir>/<experiment id>/` as a JSONL trace plus a Chrome
    /// `trace_event` file. Trace files are byte-identical for any `jobs`.
    pub trace_dir: Option<PathBuf>,
    /// Root seed for seeded experiments (the chaos swarm). `None` keeps
    /// each experiment's fixed default, so unseeded runs stay
    /// byte-identical run to run.
    pub seed: Option<u64>,
    /// Scenario-count override for the chaos swarm; `None` = the scale
    /// default (200 quick / 1000 full).
    pub swarm: Option<usize>,
}

impl RunOptions {
    /// The effective worker count: `jobs`, or available parallelism when 0.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism().map_or(4, |p| p.get())
        }
    }
}

/// Recovery of one task inside one logged run.
#[derive(Debug, Clone)]
pub struct RecoveryRecord {
    pub task: usize,
    pub via_replica: bool,
    /// Detection instant, seconds of virtual time.
    pub detected_s: f64,
    /// Detection → progress restored; `None` if the run ended first.
    pub latency_s: Option<f64>,
}

/// One simulated run's recovery outcome, logged for the JSON reporter.
#[derive(Debug, Clone)]
pub struct RunLog {
    /// Scenario label, e.g. `"win:10s rate:300tp/s"`.
    pub scenario: String,
    /// Strategy label, e.g. `"Checkpoint-15s"` or `"PPA-16t-15s"`.
    pub strategy: String,
    pub fail_at_s: u64,
    pub kill_nodes: Vec<usize>,
    pub recoveries: Vec<RecoveryRecord>,
    /// Events the simulation processed (a determinism fingerprint).
    pub events: u64,
    /// Tuples the engine scheduled for delivery, replica copies included
    /// (deterministic, so part of the compared payload).
    pub tuples_moved: u64,
    /// Outage records across all tasks (first failures + re-failures).
    pub outages: usize,
    /// Outage records beyond each task's first (re-failures).
    pub refails: usize,
    /// Outage records that closed (progress restored) before run end.
    pub outages_recovered: usize,
    /// Wall-clock seconds this run took (measured by the sanctioned
    /// [`Stopwatch`]); reported by [`RunLog::to_json_timed`] only — never
    /// in the determinism-compared payload.
    pub wall_s: f64,
}

impl RunLog {
    /// Builds a log from a finished run.
    pub fn from_report(
        scenario: impl Into<String>,
        strategy: impl Into<String>,
        fail_at_s: u64,
        kill_nodes: Vec<usize>,
        report: &RunReport,
    ) -> Self {
        RunLog {
            scenario: scenario.into(),
            strategy: strategy.into(),
            fail_at_s,
            kill_nodes,
            recoveries: report
                .recoveries()
                .iter()
                .map(|r| RecoveryRecord {
                    task: r.task.0,
                    via_replica: r.via_replica,
                    detected_s: r.detected_at.as_secs_f64(),
                    latency_s: r.latency().map(|d| d.as_secs_f64()),
                })
                .collect(),
            events: report.events,
            tuples_moved: report.tuples_moved,
            outages: report.outages.iter().map(|o| o.records.len()).sum(),
            refails: report.refail_count(),
            outages_recovered: report
                .outages
                .iter()
                .flat_map(|o| o.records.iter())
                .filter(|r| !r.open())
                .count(),
            wall_s: 0.0,
        }
    }

    /// Sort key making log order independent of worker scheduling.
    fn sort_key(&self) -> (String, String, u64, Vec<usize>) {
        (
            self.scenario.clone(),
            self.strategy.clone(),
            self.fail_at_s,
            self.kill_nodes.clone(),
        )
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scenario", Json::str(&self.scenario)),
            ("strategy", Json::str(&self.strategy)),
            ("fail_at_s", Json::Int(self.fail_at_s as i64)),
            (
                "kill_nodes",
                Json::Arr(
                    self.kill_nodes
                        .iter()
                        .map(|&n| Json::Int(n as i64))
                        .collect(),
                ),
            ),
            ("events", Json::Int(self.events as i64)),
            ("tuples_moved", Json::Int(self.tuples_moved as i64)),
            ("outages", Json::Int(self.outages as i64)),
            ("refails", Json::Int(self.refails as i64)),
            (
                "outages_recovered",
                Json::Int(self.outages_recovered as i64),
            ),
            (
                "recoveries",
                Json::Arr(
                    self.recoveries
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("task", Json::Int(r.task as i64)),
                                ("via_replica", Json::Bool(r.via_replica)),
                                ("detected_s", Json::Num(r.detected_s)),
                                ("latency_s", Json::opt_num(r.latency_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// [`RunLog::to_json`] plus the run's wall-clock timing and derived
    /// throughput rates. Only the JSON report uses this — the `--jobs`
    /// determinism tests compare `to_json`, which deliberately excludes
    /// everything wall-clock-derived.
    pub fn to_json_timed(&self) -> Json {
        match self.to_json() {
            Json::Obj(mut fields) => {
                fields.push(("wall_s".to_string(), Json::Num(self.wall_s)));
                let rate = |n: u64| {
                    if self.wall_s > 0.0 {
                        n as f64 / self.wall_s
                    } else {
                        0.0
                    }
                };
                fields.push(("events_per_sec".to_string(), Json::Num(rate(self.events))));
                fields.push((
                    "tuples_per_sec".to_string(),
                    Json::Num(rate(self.tuples_moved)),
                ));
                Json::Obj(fields)
            }
            other => other,
        }
    }
}

/// One driven run's recorded engine-event stream, keyed like its
/// [`RunLog`] so trace files sort into the same scheduling-independent
/// order as the logs.
pub struct TraceLog {
    pub scenario: String,
    pub strategy: String,
    pub fail_at_s: u64,
    pub kill_nodes: Vec<usize>,
    pub events: Vec<(SimTime, EngineEvent)>,
}

impl TraceLog {
    fn sort_key(&self) -> (String, String, u64, Vec<usize>) {
        (
            self.scenario.clone(),
            self.strategy.clone(),
            self.fail_at_s,
            self.kill_nodes.clone(),
        )
    }
}

/// Per-experiment execution context: the quick flag, the shared worker
/// gate, and the run log / trace collectors.
pub struct RunCtx {
    /// CI scale instead of paper scale.
    pub quick: bool,
    /// Root-seed override for seeded experiments (see
    /// [`RunOptions::seed`]).
    pub seed: Option<u64>,
    /// Chaos-swarm scenario-count override (see [`RunOptions::swarm`]).
    pub swarm: Option<usize>,
    gate: Arc<Gate>,
    logs: Mutex<Vec<RunLog>>,
    /// Where this experiment's trace files land; `None` = tracing off.
    trace_dir: Option<PathBuf>,
    traces: Mutex<Vec<TraceLog>>,
}

impl RunCtx {
    pub fn new(quick: bool, gate: Arc<Gate>) -> Self {
        RunCtx {
            quick,
            seed: None,
            swarm: None,
            gate,
            logs: Mutex::new(Vec::new()),
            trace_dir: None,
            traces: Mutex::new(Vec::new()),
        }
    }

    /// Sets the root-seed and scenario-count overrides for seeded
    /// experiments.
    pub fn with_swarm(mut self, seed: Option<u64>, swarm: Option<usize>) -> Self {
        self.seed = seed;
        self.swarm = swarm;
        self
    }

    /// A context with a private single-permit gate — serial execution, for
    /// tests and the `benchmark/` crate.
    pub fn serial(quick: bool) -> Self {
        RunCtx::new(quick, Arc::new(Gate::new(1)))
    }

    /// Turns trace recording on: driven runs buffer their engine-event
    /// streams and [`RunCtx::write_traces`] renders them under `dir`.
    pub fn with_trace_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.trace_dir = dir;
        self
    }

    /// Whether driven runs should record their engine-event streams.
    pub fn tracing(&self) -> bool {
        self.trace_dir.is_some()
    }

    /// Runs `f` over `items` as leaf jobs on the shared bounded pool;
    /// results come back in input order. Leaf closures must not call `map`
    /// again (see [`crate::pool`]).
    pub fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        self.gate.map(items, f)
    }

    /// Records a run for the JSON reporter.
    pub fn log_run(&self, log: RunLog) {
        self.logs.lock().expect("log collector poisoned").push(log);
    }

    /// Drains the collected run logs, sorted into a scheduling-independent
    /// order.
    pub fn take_logs(&self) -> Vec<RunLog> {
        let mut logs = std::mem::take(&mut *self.logs.lock().expect("log collector poisoned"));
        logs.sort_by_key(|l| l.sort_key());
        logs
    }

    /// Records a driven run's engine-event stream (no-op unless tracing).
    pub fn log_trace(&self, trace: TraceLog) {
        if self.tracing() {
            self.traces
                .lock()
                .expect("trace collector poisoned")
                .push(trace);
        }
    }

    /// Writes every collected trace under the context's trace directory
    /// as `<scenario>__<strategy>.jsonl` + `.chrome.json` (an index
    /// suffix disambiguates runs sharing a label). Traces are sorted by
    /// the same key as the run logs first, and filenames derive only
    /// from run labels, so the directory contents are byte-identical for
    /// any worker count. Returns the number of runs written.
    pub fn write_traces(&self) -> std::io::Result<usize> {
        let Some(dir) = &self.trace_dir else {
            return Ok(0);
        };
        let mut traces =
            std::mem::take(&mut *self.traces.lock().expect("trace collector poisoned"));
        traces.sort_by_key(|t| t.sort_key());
        if traces.is_empty() {
            return Ok(0);
        }
        std::fs::create_dir_all(dir)?;
        let mut used: BTreeMap<String, usize> = BTreeMap::new();
        for t in &traces {
            let base = sanitize_filename(&format!("{}__{}", t.scenario, t.strategy));
            let n = used.entry(base.clone()).or_insert(0);
            let name = if *n == 0 {
                base.clone()
            } else {
                format!("{base}__{n}")
            };
            *n += 1;
            std::fs::write(dir.join(format!("{name}.jsonl")), to_jsonl(&t.events))?;
            std::fs::write(
                dir.join(format!("{name}.chrome.json")),
                to_chrome_trace(&t.events),
            )?;
        }
        Ok(traces.len())
    }
}

/// Collapses a run label into a filesystem-safe name: `[A-Za-z0-9._-]`
/// kept, every other character (spaces, `:`, `/`) becomes `-`.
fn sanitize_filename(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// One experiment's outcome.
pub struct ExperimentResult {
    pub id: &'static str,
    pub description: &'static str,
    pub section: &'static str,
    pub figures: Vec<Figure>,
    /// Per-run recovery logs (recovery experiments only; accuracy/planning
    /// experiments log nothing).
    pub runs: Vec<RunLog>,
    /// Wall-clock time of this experiment (reported on stderr and in JSON,
    /// never on stdout — stdout must be run-to-run identical).
    pub wall: Duration,
}

/// A whole harness invocation's outcome.
pub struct RunSummary {
    pub quick: bool,
    pub jobs: usize,
    pub results: Vec<ExperimentResult>,
    pub total_wall: Duration,
}

/// Why [`select`] could not produce a run list. The two cases need
/// different advice — a typo'd id should be corrected against the known
/// ids, while an over-narrow filter should be widened — so the CLI keeps
/// them distinct instead of collapsing both into one string list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// Selectors naming no registered experiment (typos).
    UnknownIds(Vec<String>),
    /// The `--filter` substring matched none of the selected ids.
    FilterMatchedNothing(String),
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::UnknownIds(ids) => {
                write!(f, "unknown experiment id(s): {}", ids.join(", "))
            }
            SelectError::FilterMatchedNothing(needle) => {
                write!(f, "--filter \"{needle}\" matched no experiment")
            }
        }
    }
}

impl std::error::Error for SelectError {}

/// Resolves `opts.only` against the registry, preserving registry order,
/// then applies the optional case-insensitive id-substring `filter`.
/// Returns a [`SelectError`] naming the typo'd ids or the empty filter so
/// the CLI can report them.
pub fn select(only: &[String], filter: Option<&str>) -> Result<Vec<Experiment>, SelectError> {
    let all = registry();
    // Unknown ids are an error even alongside "all" — `reproduce all fgi08`
    // is a typo the user wants to hear about, not silently run everything.
    let unknown: Vec<String> = only
        .iter()
        .filter(|w| *w != "all" && !all.iter().any(|e| e.id == w.as_str()))
        .cloned()
        .collect();
    if !unknown.is_empty() {
        return Err(SelectError::UnknownIds(unknown));
    }
    let mut picked: Vec<Experiment> = if only.is_empty() || only.iter().any(|w| w == "all") {
        all
    } else {
        all.into_iter()
            .filter(|e| only.iter().any(|w| w == e.id))
            .collect()
    };
    if let Some(f) = filter {
        let needle = f.to_lowercase();
        picked.retain(|e| e.id.contains(&needle));
        if picked.is_empty() {
            // A filter matching nothing is as loud as a typo'd id.
            return Err(SelectError::FilterMatchedNothing(f.to_string()));
        }
    }
    Ok(picked)
}

/// Runs the selected experiments on the bounded pool and returns results in
/// registry order. Panics on unknown ids — call [`select`] first to report
/// them gracefully.
pub fn run_experiments(opts: &RunOptions) -> RunSummary {
    let selected = select(&opts.only, opts.filter.as_deref()).expect("unknown experiment ids");
    let jobs = opts.effective_jobs();
    let gate = Arc::new(Gate::new(jobs));
    let total_start = Stopwatch::start();

    let mut results: Vec<ExperimentResult> = Vec::with_capacity(selected.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = selected
            .iter()
            .map(|e| {
                let gate = Arc::clone(&gate);
                let quick = opts.quick;
                let progress = opts.progress;
                let trace_dir = opts.trace_dir.as_ref().map(|d| d.join(e.id));
                let (seed, swarm) = (opts.seed, opts.swarm);
                scope.spawn(move || {
                    if progress {
                        eprintln!(">> running {}: {}", e.id, e.description);
                    }
                    let ctx = RunCtx::new(quick, gate)
                        .with_trace_dir(trace_dir)
                        .with_swarm(seed, swarm);
                    let start = Stopwatch::start();
                    let figures = (e.run)(&ctx);
                    let traced = ctx
                        .write_traces()
                        .expect("trace directory must be writable");
                    let wall = start.elapsed();
                    if progress {
                        eprintln!("<< {} done in {:.3}s", e.id, wall.as_secs_f64());
                        if traced > 0 {
                            eprintln!("   {} traced {traced} runs", e.id);
                        }
                    }
                    ExperimentResult {
                        id: e.id,
                        description: e.description,
                        section: e.section,
                        figures,
                        runs: ctx.take_logs(),
                        wall,
                    }
                })
            })
            .collect();
        for handle in handles {
            results.push(handle.join().expect("experiment thread panicked"));
        }
    });

    RunSummary {
        quick: opts.quick,
        jobs,
        results,
        total_wall: total_start.elapsed(),
    }
}

/// Renders the whole run as the markdown report printed on stdout.
///
/// Deliberately contains no wall-clock timings or job counts: stdout must
/// be byte-identical between `--jobs 1` and `--jobs N` (and across
/// repeated runs). Timings go to stderr and the JSON report.
pub fn render_markdown(summary: &RunSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# PPA reproduction run ({} mode)\n\n",
        if summary.quick { "quick" } else { "full" }
    ));
    out.push_str(
        "Reproducing: Su & Zhou, \"Tolerating Correlated Failures in Massively \
         Parallel Stream Processing Engines\", ICDE 2016.\n\n",
    );
    for result in &summary.results {
        out.push_str(&format!(
            "## {} ({})\n\n",
            result.description, result.section
        ));
        for fig in &result.figures {
            out.push_str(&fig.to_markdown());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_all_and_subsets() {
        assert_eq!(select(&[], None).unwrap().len(), registry().len());
        assert_eq!(
            select(&["all".into()], None).unwrap().len(),
            registry().len()
        );
        let picked = select(&["fig13".into(), "fig08".into()], None).unwrap();
        // Registry order, not request order.
        assert_eq!(
            picked.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec!["fig08", "fig13"]
        );
        // Repeated selectors queue the experiment once, not twice.
        let repeated = select(&["fig08".into(), "fig08".into()], None).unwrap();
        assert_eq!(repeated.iter().map(|e| e.id).collect::<Vec<_>>(), ["fig08"]);
        assert_eq!(
            select(&["nope".into()], None).unwrap_err(),
            SelectError::UnknownIds(vec!["nope".to_string()])
        );
        // A typo next to "all" is still an error, not a silent run-everything.
        assert_eq!(
            select(&["all".into(), "fgi08".into()], None).unwrap_err(),
            SelectError::UnknownIds(vec!["fgi08".to_string()])
        );
    }

    #[test]
    fn filter_selects_by_id_substring() {
        let sweeps = select(&[], Some("sweep")).unwrap();
        assert_eq!(
            sweeps.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![
                "corr_sweep",
                "placement_sweep",
                "adaptive_sweep",
                "refail_sweep",
                "approx_sweep"
            ],
            "registry order preserved"
        );
        // Case-insensitive, composes with explicit ids.
        let one = select(&["fig08".into(), "corr_sweep".into()], Some("SWEEP")).unwrap();
        assert_eq!(one.iter().map(|e| e.id).collect::<Vec<_>>(), ["corr_sweep"]);
        // A filter matching nothing is an error naming the filter, kept
        // apart from the unknown-id case so the CLI's advice differs.
        assert_eq!(
            select(&[], Some("zzz")).unwrap_err(),
            SelectError::FilterMatchedNothing("zzz".to_string())
        );
        assert_eq!(
            select(&["fig08".into()], Some("sweep")).unwrap_err(),
            SelectError::FilterMatchedNothing("sweep".to_string())
        );
    }

    #[test]
    fn take_logs_sorts_deterministically() {
        let ctx = RunCtx::serial(true);
        let mk = |scenario: &str, strategy: &str| RunLog {
            scenario: scenario.into(),
            strategy: strategy.into(),
            fail_at_s: 40,
            kill_nodes: vec![4],
            recoveries: vec![],
            events: 0,
            tuples_moved: 0,
            outages: 0,
            refails: 0,
            outages_recovered: 0,
            wall_s: 0.0,
        };
        ctx.log_run(mk("b", "Storm"));
        ctx.log_run(mk("a", "Storm"));
        ctx.log_run(mk("a", "Active-5s"));
        let logs = ctx.take_logs();
        let keys: Vec<_> = logs
            .iter()
            .map(|l| (l.scenario.as_str(), l.strategy.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![("a", "Active-5s"), ("a", "Storm"), ("b", "Storm")]
        );
        assert!(ctx.take_logs().is_empty(), "take drains");
    }
}
