//! # ppa-bench — the experiment harness
//!
//! One module per result figure of the paper's evaluation (§VI). Each
//! experiment returns [`Figure`]s: labelled series over a shared x-axis,
//! printable as a markdown table — the same rows/series the paper plots.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p ppa-bench --bin reproduce              # full scale
//! cargo run --release -p ppa-bench --bin reproduce -- --quick   # CI scale
//! cargo run --release -p ppa-bench --bin reproduce -- --jobs 4 --json out.json fig08 fig13
//! cargo run --release -p ppa-bench --bin reproduce -- --list    # known experiment ids
//! ```
//!
//! ## Architecture
//!
//! * [`registry`] — the [`Experiment`] table, in paper order.
//! * [`runner`] — runs experiments concurrently; every simulated run and
//!   planned topology is a *leaf job* on one global bounded worker pool
//!   (`pool::Gate`, `--jobs` permits), and results are collected in
//!   registry order so output is byte-identical for any job count.
//! * [`report`] — the `--json` reporter: figures, per-run recovery
//!   latencies and wall-clock timings, serialized with the dependency-free
//!   `json` writer.

pub mod experiments;
mod figure;
mod json;
mod pool;
pub mod report;
pub mod runner;
mod stopwatch;

pub use experiments::fig12::{AccuracyHarness, QueryKind};
pub use figure::{Figure, Series};
pub use json::Json;
pub use runner::{render_markdown, run_experiments, select, RunCtx, RunOptions, RunSummary};
pub use stopwatch::Stopwatch;

use ppa_sim::SimDuration;

/// Converts an optional recovery latency into seconds for reporting. An
/// unrecovered run yields NaN — the "absent" sentinel that renders as `—`
/// in markdown tables and `null` in JSON (never as the string `NaN`).
pub(crate) fn latency_secs(d: Option<SimDuration>) -> f64 {
    d.map_or(f64::NAN, |d| d.as_secs_f64())
}

/// One reproducible experiment: a stable id, what it reproduces, and the
/// paper section it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Stable identifier, e.g. `"fig08"` (also the CLI selector).
    pub id: &'static str,
    /// Human description, shown as the section heading.
    pub description: &'static str,
    /// Paper section the figure comes from, e.g. `"§VI-A"`.
    pub section: &'static str,
    /// The runner; submits its heavy work as leaf jobs on [`RunCtx::map`].
    pub run: Runner,
}

/// An experiment entry point.
pub(crate) type Runner = fn(&RunCtx) -> Vec<Figure>;

/// All experiments in paper order. The runner executes and prints them in
/// exactly this order regardless of `--jobs`.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig07",
            description: "Recovery latency of single node failure (Fig. 7)",
            section: "§VI-A",
            run: experiments::fig07::run,
        },
        Experiment {
            id: "fig08",
            description: "Recovery latency of correlated failure (Fig. 8)",
            section: "§VI-A",
            run: experiments::fig08::run,
        },
        Experiment {
            id: "fig09",
            description: "CPU cost of maintaining checkpoints (Fig. 9)",
            section: "§VI-A",
            run: experiments::fig09::run,
        },
        Experiment {
            id: "fig10",
            description: "Recovery latency of correlated failure with PPA plans (Fig. 10)",
            section: "§VI-A",
            run: experiments::fig10::run,
        },
        Experiment {
            id: "fig12",
            description: "OF/IC metric validation against measured accuracy (Fig. 12)",
            section: "§VI-B",
            run: experiments::fig12::run,
        },
        Experiment {
            id: "fig13",
            description: "DP vs SA vs Greedy: OF and measured accuracy (Fig. 13)",
            section: "§VI-C",
            run: experiments::fig13::run,
        },
        Experiment {
            id: "fig14",
            description: "SA vs Greedy on random topologies (Fig. 14 a-d)",
            section: "§VI-C",
            run: experiments::fig14::run,
        },
        Experiment {
            id: "tentative",
            description: "Tentative output latency vs full recovery (conclusion's 10x claim)",
            section: "§VII",
            run: experiments::tentative::run,
        },
        Experiment {
            id: "corr_sweep",
            description: "Generated correlated-failure sweep: burst size × correlation × strategy",
            section: "beyond §VI",
            run: experiments::corr_sweep::run,
        },
        Experiment {
            id: "placement_sweep",
            description:
                "Placement strategies (spread/packed/round-robin) under the burst/cascade grid",
            section: "beyond §VI",
            run: experiments::placement_sweep::run,
        },
        Experiment {
            id: "adaptive_sweep",
            description:
                "Control-plane adaptation (migrate + replan) vs static under generated failures",
            section: "beyond §VI",
            run: experiments::adaptive_sweep::run,
        },
        Experiment {
            id: "refail_sweep",
            description:
                "Repeated cascade waves killing activated replicas: honest re-failure accounting",
            section: "beyond §VI",
            run: experiments::refail_sweep::run,
        },
        Experiment {
            id: "approx_sweep",
            description:
                "Divergence-bounded approximate recovery vs exact checkpointing: latency for fidelity",
            section: "beyond §VI",
            run: experiments::approx_sweep::run,
        },
        Experiment {
            id: "chaos_swarm",
            description:
                "Seeded chaos swarm: buggified scenarios checked against engine invariants",
            section: "beyond §VI",
            run: experiments::chaos_swarm::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_secs_sentinel() {
        assert!(latency_secs(None).is_nan());
        assert_eq!(latency_secs(Some(SimDuration::from_secs(3))), 3.0);
    }

    #[test]
    fn registry_ids_are_unique_and_ordered() {
        let ids: Vec<_> = registry().iter().map(|e| e.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids.len(), sorted.len(), "duplicate experiment ids");
        assert_eq!(ids.first(), Some(&"fig07"));
        assert_eq!(ids.last(), Some(&"chaos_swarm"));
    }
}
