//! Fig. 13: comparing the planners — the optimal dynamic program (DP), the
//! structure-aware planner (SA) and the greedy baseline — on Q1 and Q2, in
//! both predicted OF and measured tentative-output accuracy.

use super::fig12::{harnesses, ratio_tick, ratios};
use super::grid::{cross, Table};
use crate::runner::RunCtx;
use crate::Figure;
use ppa_core::Objective;
use ppa_core::{DpPlanner, GreedyPlanner, Planner, StructureAwarePlanner};

/// A roster entry: the planner's series prefix and its constructor.
type Entry = (&'static str, fn() -> Box<dyn Planner>);

pub(crate) fn run(ctx: &RunCtx) -> Vec<Figure> {
    let harnesses = harnesses(ctx);

    // Leaf phase 2 — one job per (query, ratio) × planner: plan + measure.
    let rs = ratios(ctx.quick);
    let cells = cross(&harnesses, &rs);
    let planners: [Entry; 3] = [
        ("DP", || Box::new(DpPlanner::default())),
        ("SA", || Box::new(StructureAwarePlanner)),
        ("Greedy", || Box::new(GreedyPlanner)),
    ];
    let table = Table::run(
        ctx,
        &cells,
        &planners,
        |&(harness, &ratio), (_, planner)| {
            let cx = harness.context(Objective::OutputFidelity);
            match planner().plan(&cx, harness.budget(ratio)) {
                Ok(plan) => (cx.of_plan(&plan.tasks), harness.measure(&plan.tasks)),
                // DP can explode on large topologies (the paper hits the same
                // wall in §VI-C); report an absent point.
                Err(_) => (f64::NAN, f64::NAN),
            }
        },
    );

    harnesses
        .iter()
        .map(|harness| {
            let table = table.only(|(h, _)| h.kind == harness.kind);
            let mut fig = Figure::new(
                "fig13",
                format!("Planner comparison — {}", harness.kind.title()),
                "resource consumption",
                "OF / measured accuracy",
            );
            fig.series = table.by_entry(|(p, _)| format!("{p}-OF"), ratio_tick, |o| o.0);
            fig.series.extend(table.by_entry(
                |(p, _)| format!("{p}-Accuracy"),
                ratio_tick,
                |o| o.1,
            ));
            fig.note(
                "Expected shape (paper): SA tracks the optimal DP closely in both OF and \
                 accuracy; Greedy is clearly worse, especially at small budgets where its \
                 picks do not assemble complete MC-trees.",
            );
            fig
        })
        .collect()
}
