//! The swarm runner: execute N seeded scenarios, check every run's
//! invariants, shrink failures to minimal repro artifacts.
//!
//! [`run_seed`] is a pure function of `(root_seed, index)` — outcomes are
//! byte-identical across `--jobs` and repeated runs. The bench harness
//! fans seeds out across its job pool and reassembles outcomes in index
//! order; [`run_swarm`] is the sequential reference implementation the
//! determinism tests compare against.

use crate::check::{check_run, CheckInput};
use crate::feed::ResolvedChaos;
use crate::scenario::{build, BuiltScenario, ScenarioError, ScenarioParams};
use crate::schedule::ChaosSchedule;
use crate::shrink::shrink;
use ppa_engine::{
    ChaosError, EngineError, EngineEvent, FailureTrace, FaultFeed, MetricsSnapshot, RunReport,
    Simulation, StaticPolicy, VecSink,
};
use ppa_obs::{to_jsonl, Violation};
use ppa_sim::SimTime;
use std::fmt;

/// A swarm-level failure: the scenario generator or the engine rejected
/// a run outright (distinct from an invariant violation, which is a
/// *finding*, not an error).
#[derive(Debug, Clone, PartialEq)]
pub enum SwarmError {
    Scenario(ScenarioError),
    Engine(EngineError),
    Chaos(ChaosError),
}

impl fmt::Display for SwarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwarmError::Scenario(e) => write!(f, "{e}"),
            SwarmError::Engine(e) => write!(f, "{e}"),
            SwarmError::Chaos(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SwarmError {}

impl From<ScenarioError> for SwarmError {
    fn from(e: ScenarioError) -> Self {
        SwarmError::Scenario(e)
    }
}

impl From<EngineError> for SwarmError {
    fn from(e: EngineError) -> Self {
        SwarmError::Engine(e)
    }
}

impl From<ChaosError> for SwarmError {
    fn from(e: ChaosError) -> Self {
        SwarmError::Chaos(e)
    }
}

/// The replayable artifact set of one failing seed: everything needed to
/// reproduce the violation without the swarm.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Shrunk kill trace in `ppa-faults/1` text form.
    pub trace_text: String,
    /// Shrunk chaos schedule in `ppa-chaos/1` text form.
    pub schedule_text: String,
    /// JSONL event trace of the shrunk failing run.
    pub events_jsonl: String,
    /// Predicate evaluations the shrink spent.
    pub(crate) shrink_attempts: usize,
}

/// One seed's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedOutcome {
    pub(crate) index: usize,
    /// The derived per-scenario seed.
    pub seed: u64,
    pub(crate) label: String,
    pub events: usize,
    pub outages_opened: usize,
    pub outages_closed: usize,
    pub chaos_fired: usize,
    pub suppressed_kills: usize,
    /// Violations of the *original* (unshrunk) run.
    pub violations: Vec<Violation>,
    /// Shrunk repro artifacts, present iff `violations` is non-empty
    /// and the failure reproduces under replay.
    pub repro: Option<Repro>,
}

impl SeedOutcome {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// What one replay of a scenario yields.
struct RunArtifacts {
    report: RunReport,
    events: Vec<(SimTime, EngineEvent)>,
    metrics: MetricsSnapshot,
}

/// Replays a resolved `(trace, schedule)` pair against a built scenario.
fn run_once(
    built: &BuiltScenario,
    trace: &FailureTrace,
    schedule: &ChaosSchedule,
) -> Result<RunArtifacts, SwarmError> {
    let mut sim = Simulation::new(&built.query, built.placement.clone(), built.config.clone());
    sim.set_horizon(built.horizon);
    sim.set_trace_sink(Box::new(VecSink::new()));
    for spec in schedule.events() {
        sim.inject_chaos(spec.clone())?;
    }
    let driven = sim.drive(
        &FaultFeed::from_trace(trace.clone()),
        &mut StaticPolicy,
        built.horizon,
    )?;
    let events = sim
        .take_trace_sink()
        .map(|mut s| s.take_events())
        .unwrap_or_default();
    Ok(RunArtifacts {
        report: driven.report,
        events,
        metrics: driven.metrics,
    })
}

fn check_artifacts(
    built: &BuiltScenario,
    resolved: &ResolvedChaos,
    arts: &RunArtifacts,
) -> Vec<Violation> {
    check_run(&CheckInput {
        report: &arts.report,
        events: &arts.events,
        metrics: &arts.metrics,
        resolved,
        horizon: built.horizon,
    })
}

/// Runs one seeded scenario end to end: derive parameters, build, resolve
/// chaos, replay, check invariants — and on violation, shrink to a
/// minimal replayable repro.
pub fn run_seed(root_seed: u64, index: usize) -> Result<SeedOutcome, SwarmError> {
    let params = ScenarioParams::for_seed(root_seed, index);
    let built = build(&params)?;
    let resolved = built.feed.resolve(&built.placement, built.horizon)?;
    let arts = run_once(&built, &resolved.trace, &resolved.schedule)?;
    let violations = check_artifacts(&built, &resolved, &arts);

    let repro = if violations.is_empty() {
        None
    } else {
        // Shrink against the real predicate: replay the candidate pair
        // and re-check. A candidate the engine rejects (or that runs
        // clean) does not fail, so the original failure is preserved.
        let shrunk = shrink(&resolved.trace, &resolved.schedule, |t, s| {
            let candidate = ResolvedChaos {
                trace: t.clone(),
                schedule: s.clone(),
                suppressed_kills: resolved.suppressed_kills,
            };
            match run_once(&built, t, s) {
                Ok(arts) => !check_artifacts(&built, &candidate, &arts).is_empty(),
                Err(_) => false,
            }
        });
        let replayed = run_once(&built, &shrunk.trace, &shrunk.schedule)?;
        Some(Repro {
            trace_text: shrunk.trace.to_text(),
            schedule_text: shrunk.schedule.to_text(),
            events_jsonl: to_jsonl(&replayed.events),
            shrink_attempts: shrunk.attempts,
        })
    };

    let count = |name| arts.metrics.counter(name) as usize;
    Ok(SeedOutcome {
        index,
        seed: params.seed,
        label: params.label(),
        events: arts.events.len(),
        outages_opened: count("engine.outages.opened"),
        outages_closed: count("engine.recoveries.via_restore")
            + count("engine.recoveries.via_replica"),
        chaos_fired: resolved.schedule.len(),
        suppressed_kills: resolved.suppressed_kills,
        violations,
        repro,
    })
}

/// A whole swarm's outcomes, in index order.
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmReport {
    pub root_seed: u64,
    pub outcomes: Vec<SeedOutcome>,
}

impl SwarmReport {
    /// Indexes of seeds that violated invariants.
    pub fn failed(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .filter(|o| !o.ok())
            .map(|o| o.index)
            .collect()
    }

    /// A stable text rendering: one line per seed, violations expanded.
    /// Byte-identical across `--jobs` and repeated runs.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chaos swarm: root seed {}, {} scenarios, {} failed",
            self.root_seed,
            self.outcomes.len(),
            self.failed().len()
        );
        for o in &self.outcomes {
            let verdict = if o.ok() { "ok" } else { "FAIL" };
            let _ = writeln!(
                out,
                "seed {:04} [{:#018x}] {:<44} events={:<4} outages={}/{} chaos={} suppressed={} {}",
                o.index,
                o.seed,
                o.label,
                o.events,
                o.outages_closed,
                o.outages_opened,
                o.chaos_fired,
                o.suppressed_kills,
                verdict
            );
            for v in &o.violations {
                let task = v.task.map_or(String::new(), |t| format!(" task={t}"));
                let _ = writeln!(out, "    {} at {}{}: {}", v.invariant, v.at, task, v.detail);
            }
        }
        out
    }
}

/// Sequential swarm over `n` seeds. The parallel fan-out lives in the
/// bench harness; this is the deterministic reference.
pub fn run_swarm(root_seed: u64, n: usize) -> Result<SwarmReport, SwarmError> {
    let mut outcomes = Vec::with_capacity(n);
    for index in 0..n {
        outcomes.push(run_seed(root_seed, index)?);
    }
    Ok(SwarmReport {
        root_seed,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_sim::SimDuration;
    use std::error::Error;

    type TestResult = Result<(), Box<dyn Error>>;

    #[test]
    fn a_seed_runs_clean_end_to_end() -> TestResult {
        let outcome = run_seed(42, 0)?;
        assert!(outcome.ok(), "violations: {:?}", outcome.violations);
        assert!(outcome.events > 0, "the trace sink saw the run");
        Ok(())
    }

    /// Each mutation of a clean run's report breaks exactly the one
    /// events ↔ report rule, naming the history that differs.
    #[test]
    fn every_report_mutation_is_one_outage_mismatch() -> TestResult {
        let (built, resolved, arts) = (0..64)
            .map(|index| -> Result<_, SwarmError> {
                let built = build(&ScenarioParams::for_seed(42, index))?;
                let resolved = built.feed.resolve(&built.placement, built.horizon)?;
                let arts = run_once(&built, &resolved.trace, &resolved.schedule)?;
                Ok((built, resolved, arts))
            })
            .find(|run| {
                run.as_ref().map_or(true, |(_, _, arts)| {
                    let outages = &arts.report.outages;
                    outages.len() >= 2 && outages[0].records.iter().any(|r| !r.open())
                })
            })
            .ok_or("no seed with two histories and a closed record")??;
        assert_eq!(check_artifacts(&built, &resolved, &arts), Vec::new());

        let first = arts.report.outages[0].task.0;
        let second = arts.report.outages[1].task.0;
        let closed = arts.report.outages[0]
            .records
            .iter()
            .position(|r| !r.open())
            .ok_or("a closed record")?;
        type Mutation = fn(&mut RunReport, usize);
        let mutations: [(&str, usize, Mutation); 4] = [
            ("drop a record", first, |r, _| {
                r.outages[0].records.pop();
            }),
            ("shift a recovered_at", first, |r, i| {
                let rec = &mut r.outages[0].records[i];
                rec.recovered_at = rec.recovered_at.map(|at| at + SimDuration::from_micros(1));
            }),
            ("flip a closed record's via_replica", first, |r, i| {
                let rec = &mut r.outages[0].records[i];
                rec.via_replica = !rec.via_replica;
            }),
            ("drop a history", second, |r, _| {
                r.outages.remove(1);
            }),
        ];
        for (what, task, mutate) in mutations {
            let mut mutated = RunArtifacts {
                report: arts.report.clone(),
                events: arts.events.clone(),
                metrics: arts.metrics.clone(),
            };
            mutate(&mut mutated.report, closed);
            let flagged: Vec<(&str, Option<usize>)> = check_artifacts(&built, &resolved, &mutated)
                .iter()
                .map(|v| (v.invariant, v.task))
                .collect();
            assert_eq!(flagged, [("report_outages_mismatch", Some(task))], "{what}");
        }
        Ok(())
    }

    #[test]
    fn seed_outcomes_are_deterministic() -> TestResult {
        let a = run_seed(7, 3)?;
        let b = run_seed(7, 3)?;
        assert_eq!(a, b);
        Ok(())
    }

    #[test]
    fn swarm_report_renders_stably() -> TestResult {
        let a = run_swarm(5, 3)?;
        let b = run_swarm(5, 3)?;
        assert_eq!(a.render(), b.render(), "byte-identical across runs");
        assert_eq!(a.failed(), Vec::<usize>::new());
        Ok(())
    }
}
