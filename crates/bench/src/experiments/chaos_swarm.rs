//! `chaos_swarm`: the seeded chaos swarm (`ppa-chaos`) as a harness
//! experiment — N seeded scenarios with buggified heartbeats and restores,
//! every run checked against cross-layer engine invariants instead of
//! golden outputs, failures shrunk to minimal replayable repros.
//!
//! Stdout carries only the aggregate verdict table, byte-identical for any
//! `--jobs`. On violation the experiment writes each failing
//! seed's shrunk repro under `chaos-repro/seed-<seed>/` (kill trace,
//! chaos schedule, JSONL event stream, violation list) and panics, so a CI
//! run fails loudly with the artifacts already on disk.

use crate::runner::RunCtx;
use crate::{Figure, Series};
use ppa_chaos::{run_seed, SeedOutcome, SwarmReport};
use std::io;
use std::path::{Path, PathBuf};

/// Default root seed (`--seed` overrides): a nod to the paper's venue.
pub(crate) const DEFAULT_ROOT_SEED: u64 = 0x1CDE_2016;
/// Scenarios at CI scale…
const QUICK_SEEDS: usize = 200;
/// …and at paper scale (the acceptance bar: ≥ 1000 clean seeds).
const FULL_SEEDS: usize = 1000;

/// Runs the swarm on the harness job pool: seeds fan out as leaf jobs and
/// outcomes reassemble in index order, so the report is identical to the
/// sequential [`ppa_chaos::run_swarm`] reference for any worker count.
pub fn swarm(ctx: &RunCtx, root_seed: u64, n: usize) -> SwarmReport {
    let outcomes = ctx.map((0..n).collect(), |index| {
        run_seed(root_seed, index)
            .unwrap_or_else(|e| panic!("chaos seed index {index} was rejected outright: {e}"))
    });
    SwarmReport {
        root_seed,
        outcomes,
    }
}

/// Writes one failing seed's repro artifacts, returning the directory.
fn write_repro(dir: &Path, outcome: &SeedOutcome) -> io::Result<PathBuf> {
    let seed_dir = dir.join(format!("seed-{:016x}", outcome.seed));
    std::fs::create_dir_all(&seed_dir)?;
    let mut violations = String::new();
    for v in &outcome.violations {
        let task = v.task.map_or(String::new(), |t| format!(" task={t}"));
        violations.push_str(&format!(
            "{} at {}{}: {}\n",
            v.invariant, v.at, task, v.detail
        ));
    }
    std::fs::write(seed_dir.join("violations.txt"), violations)?;
    if let Some(repro) = &outcome.repro {
        std::fs::write(seed_dir.join("trace.txt"), &repro.trace_text)?;
        std::fs::write(seed_dir.join("schedule.txt"), &repro.schedule_text)?;
        std::fs::write(seed_dir.join("events.jsonl"), &repro.events_jsonl)?;
    }
    Ok(seed_dir)
}

pub(crate) fn run(ctx: &RunCtx) -> Vec<Figure> {
    let root_seed = ctx.seed.unwrap_or(DEFAULT_ROOT_SEED);
    let n = ctx
        .swarm
        .unwrap_or(if ctx.quick { QUICK_SEEDS } else { FULL_SEEDS });
    let report = swarm(ctx, root_seed, n);

    let mut fig = Figure::new(
        "chaos_swarm",
        "Seeded chaos swarm: invariant verdicts over buggified scenarios",
        "aggregate",
        "count",
    );
    fig.note(format!(
        "Every scenario is a pure function of (root seed {root_seed}, index): \
         topology, placement, ft-mode, failure process and buggify schedule \
         all derive from one seeded stream, so this table is byte-identical \
         for any --jobs. Runs are checked against engine \
         invariants (outage lifecycle, report/trace/metrics agreement, sink \
         exactly-once, closed-or-explained outages), not golden outputs; a \
         violating seed shrinks to a replayable repro under chaos-repro/."
    ));
    let sum = |f: fn(&SeedOutcome) -> usize| report.outcomes.iter().map(f).sum::<usize>() as f64;
    let mut totals = Series::new("total");
    totals.push("scenarios", report.outcomes.len() as f64);
    totals.push(
        "clean",
        (report.outcomes.len() - report.failed().len()) as f64,
    );
    totals.push("violating", report.failed().len() as f64);
    totals.push("engine events traced", sum(|o| o.events));
    totals.push("outages opened", sum(|o| o.outages_opened));
    totals.push("outages closed", sum(|o| o.outages_closed));
    totals.push("chaos events fired", sum(|o| o.chaos_fired));
    totals.push("kills suppressed by guard", sum(|o| o.suppressed_kills));
    fig.series.push(totals);

    let failed = report.failed();
    if !failed.is_empty() {
        let dir = PathBuf::from("chaos-repro");
        let mut dirs = Vec::new();
        for outcome in report.outcomes.iter().filter(|o| !o.ok()) {
            let seed_dir =
                write_repro(&dir, outcome).expect("chaos-repro directory must be writable");
            dirs.push(seed_dir.display().to_string());
        }
        panic!(
            "chaos swarm (root seed {root_seed}) found invariant violations in \
             {} of {n} seeds (indexes {failed:?}); shrunk repros written under: {}",
            failed.len(),
            dirs.join(", "),
        );
    }
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Gate;
    use std::sync::Arc;

    #[test]
    fn swarm_outcomes_match_the_sequential_reference_for_any_job_count() {
        let a = swarm(&RunCtx::serial(true), 2024, 12);
        let b = swarm(&RunCtx::new(true, Arc::new(Gate::new(4))), 2024, 12);
        assert_eq!(a, b, "verdicts differ between --jobs 1 and --jobs 4");
        assert_eq!(a.render(), b.render(), "rendering differs across jobs");
        let reference = ppa_chaos::run_swarm(2024, 12)
            .expect("the sequential reference accepts every generated seed");
        assert_eq!(a, reference, "pooled fan-out diverged from run_swarm");
        assert_eq!(a.failed(), Vec::<usize>::new(), "{}", a.render());
    }
}
