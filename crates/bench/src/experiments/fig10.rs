//! Fig. 10: recovery latency of a correlated failure under PPA plans with
//! different active-replication shares — PPA-1.0 (all tasks), PPA-0.5
//! (half, chosen by the structure-aware planner), PPA-0 (checkpoints only).
//! `PPA-0.5-active` reports the latency of just the actively replicated
//! tasks inside the PPA-0.5 run. Reported latency: per-task mean (the
//! metric that separates PPA-0.5 from PPA-0; Fig. 8 reports the
//! synchronization-gated completion instead).

use super::grid::{cross, Table};
use super::{drive, fig6_cfg, grid_label, half_plan, kill_set_trace, schedule, Strategy};
use crate::runner::RunCtx;
use crate::{latency_secs, Figure};
use ppa_core::{PlanContext, TaskSet};
use ppa_workloads::Fig6Config;

/// The roster: the active-replication share of the plan.
#[derive(Debug, Clone, Copy)]
enum Share {
    Full,
    Half,
    Zero,
}

pub(crate) fn run(ctx: &RunCtx) -> Vec<Figure> {
    let quick = ctx.quick;
    let intervals: [u64; 3] = [5, 15, 30];
    let rates: &[usize] = if quick { &[300] } else { &[1000, 2000] };
    let (fail_at, duration) = schedule(quick);

    // Leaf phase 1 — per rate, the workload and its PPA-0.5 plan (MC-tree
    // enumeration is real work).
    let workloads: Vec<(Fig6Config, TaskSet)> = ctx.map(rates.to_vec(), |rate| {
        let cfg = fig6_cfg(rate, 30);
        let scenario = ppa_workloads::fig6_scenario(&cfg);
        let cx = PlanContext::new(scenario.query.topology()).expect("fig6 plans");
        (cfg, half_plan(&cx))
    });

    // Leaf phase 2 — one run per (rate, interval) × share, yielding (mean
    // latency, mean latency of the plan's active subset).
    let cells = cross(&workloads, &intervals);
    // In declaration order, so `Share::Half as usize` is Half's roster entry.
    let shares = [Share::Full, Share::Half, Share::Zero];
    let table = Table::run(ctx, &cells, &shares, |&((cfg, half), &interval), share| {
        let scenario = ppa_workloads::fig6_scenario(cfg);
        let graph = scenario.graph();
        let n = graph.n_tasks();
        let plan = match share {
            Share::Full => TaskSet::full(n),
            Share::Half => half.clone(),
            Share::Zero => TaskSet::empty(n),
        };
        let strategy = Strategy::Ppa {
            plan: plan.clone(),
            interval_secs: interval,
        };
        let report = drive(
            ctx,
            &grid_label(cfg),
            &scenario,
            &strategy,
            strategy.config(n, cfg.window, cfg.seed),
            &kill_set_trace(fail_at, scenario.worker_kill_set.clone()),
            duration,
        )
        .report;
        let mean = |active_only: bool| {
            latency_secs(report.mean_latency_of(|t| {
                !graph.is_source_task(t) && (!active_only || plan.contains(t))
            }))
        };
        (mean(false), mean(true))
    });

    let x = |&(_, interval): &(_, &u64)| interval.to_string();
    let (full, half, zero) = (
        Share::Full as usize,
        Share::Half as usize,
        Share::Zero as usize,
    );
    workloads
        .iter()
        .map(|(cfg, _)| {
            let rate = cfg.rate;
            let table = table.only(|(workload, _)| workload.0.rate == rate);
            let mut fig = Figure::new(
                "fig10",
                format!("Correlated-failure recovery with PPA (rate {rate} tp/s, window 30s)"),
                "checkpoint interval (s)",
                "recovery latency (s)",
            );
            fig.series = vec![
                table.column(full, "PPA-1.0", x, |o| o.0),
                table.column(half, "PPA-0.5-active", x, |o| o.1),
                table.column(half, "PPA-0.5", x, |o| o.0),
                table.column(zero, "PPA-0", x, |o| o.0),
            ];
            fig.note(
                "Expected shape (paper): PPA-1.0 < PPA-0.5 < PPA-0 overall; \
                 PPA-0.5-active tracks (and slightly beats) PPA-1.0 because only \
                 half as many replicas take over.",
            );
            fig
        })
        .collect()
}
