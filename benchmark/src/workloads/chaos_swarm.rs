//! `chaos_swarm` — many tiny traced runs: one iteration is the same block of
//! seeded chaos scenarios through the harness's own swarm entry point. The
//! same engine used the opposite way to `wide_steady`: millisecond-scale
//! simulations with a `VecSink` attached and the invariant checker after
//! each, so construction and teardown, obs emission, `ppa-faults`
//! generation and `ppa-chaos` checking dominate, and a steady-state gain
//! bought with construction cost loses here.

use super::{Hash, Outcome, Workload};
use crate::spans::{count, span};
use ppa_bench::experiments::chaos_swarm::swarm;
use ppa_bench::{render_markdown, run_experiments, RunCtx, RunOptions};
use ppa_chaos::scenario::ScenarioParams;

/// Scenarios per block.
pub const SEEDS: usize = 400;

pub struct ChaosSwarm {
    root_seed: u64,
}

impl Workload for ChaosSwarm {
    fn setup(seed: u64) -> Self {
        ChaosSwarm { root_seed: seed }
    }

    fn iterate(&mut self) -> Outcome {
        let mut out = Outcome::default();
        let report = span("chaos.block", || {
            swarm(&RunCtx::serial(true), self.root_seed, SEEDS)
        });
        let mut h = Hash::default();
        let mut totals = [0usize; 5];
        for o in &report.outcomes {
            out.check(o.ok());
            let fields = [
                o.events,
                o.outages_opened,
                o.outages_closed,
                o.chaos_fired,
                o.suppressed_kills,
            ];
            for (total, field) in totals.iter_mut().zip(fields) {
                *total += field;
                h.word(field as u64);
            }
        }
        out.fingerprint.push(h.finish());
        count("chaos.seeds", report.outcomes.len() as f64);
        count("chaos.violations", report.failed().len() as f64);
        let names = [
            "chaos.events_traced",
            "chaos.outages_opened",
            "chaos.outages_closed",
            "chaos.chaos_fired",
            "chaos.suppressed_kills",
        ];
        for (name, total) in names.into_iter().zip(totals) {
            count(name, total as f64);
        }
        out
    }

    fn ops_per_iteration(&self) -> u64 {
        SEEDS as u64
    }

    fn probes(&mut self) {
        // `ppa-chaos`: deriving one block's scenario parameters.
        span("chaos.params", || {
            for index in 0..SEEDS {
                std::hint::black_box(ScenarioParams::for_seed(self.root_seed, index));
            }
        });

        // `ppa-bench`: what the job pool adds to a block — one `map` over
        // items that do nothing.
        let items = 100_000usize;
        span("bench.pool_map", || {
            let out = RunCtx::serial(true).map((0..items).collect(), |i| i);
            assert_eq!(out.len(), items);
        });
        count("bench.pool_map_items", items as f64);

        // `ppa-bench`: the harness around two registered experiments.
        let summary = span("bench.run_experiments", || {
            run_experiments(&RunOptions {
                quick: true,
                jobs: 1,
                only: vec!["fig08".to_string(), "tentative".to_string()],
                ..RunOptions::default()
            })
        });
        let runs_wall_s: f64 = summary
            .results
            .iter()
            .flat_map(|r| r.runs.iter())
            .map(|l| l.wall_s)
            .sum();
        count("bench.runs_wall_s", runs_wall_s);
        span("bench.render_markdown", || render_markdown(&summary));
        let path = crate::out_dir().join("bench_report.json");
        span("bench.write_json", || {
            ppa_bench::report::write_json(&summary, &path)
                .expect("the benchmark's out directory is writable")
        });
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        count("bench.json_bytes", bytes as f64);
    }
}
