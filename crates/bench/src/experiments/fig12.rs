//! Fig. 12: does the OF metric predict the *actual* accuracy of tentative
//! outputs, and does the IC baseline mispredict it for queries with joins?
//!
//! For each replication budget, a plan is optimized for OF and another for
//! IC (both with the structure-aware planner). Each plan's metric value is
//! reported next to the *measured* accuracy of the tentative output when
//! every primary node dies (the worst-case correlated failure): the plan's
//! run is compared against a golden no-failure run over the batches between
//! failure detection and the end of the measurement window.

use super::grid::{cross, Table};
use super::{drive, held_down, Strategy};
use crate::runner::RunCtx;
use crate::Figure;
use ppa_core::Objective;
use ppa_core::{PlanContext, Planner, StructureAwarePlanner, TaskSet};
use ppa_engine::{FailureSpec, FailureTrace, RunReport, Simulation};
use ppa_sim::{SimDuration, SimTime};
use ppa_workloads::{
    incident_accuracy, q1_scenario, q2_scenario, topk_accuracy, NavigationConfig, Q1Config,
    Scenario,
};

/// Which evaluation query an accuracy harness drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    Q1,
    Q2,
}

impl QueryKind {
    /// Both evaluation queries, in figure order.
    pub(crate) const ALL: [QueryKind; 2] = [QueryKind::Q1, QueryKind::Q2];

    /// The query's name in figure titles.
    pub(crate) fn title(self) -> &'static str {
        match self {
            QueryKind::Q1 => "Q1 top-k",
            QueryKind::Q2 => "Q2 incidents",
        }
    }
}

/// Shared harness for the Fig. 12/13 accuracy experiments.
pub struct AccuracyHarness {
    pub(crate) kind: QueryKind,
    pub scenario: Scenario,
    golden: RunReport,
    fail_at: u64,
    duration: u64,
    from_batch: u64,
    to_batch: u64,
    seed: u64,
}

impl AccuracyHarness {
    /// Builds the harness, including its golden (no-failure) run. Heavy —
    /// submit as a leaf job.
    pub fn new(ctx: &RunCtx, kind: QueryKind, quick: bool) -> Self {
        let scenario = match (kind, quick) {
            (QueryKind::Q1, false) => q1_scenario(&Q1Config::default()),
            (QueryKind::Q1, true) => q1_scenario(&Q1Config {
                src_tasks: 8,
                o1_tasks: 4,
                o2_tasks: 2,
                rate: 150,
                n_objects: 150,
                k: 50,
                window_batches: 10,
                ..Q1Config::default()
            }),
            (QueryKind::Q2, false) => q2_scenario(&NavigationConfig::default()),
            (QueryKind::Q2, true) => q2_scenario(&NavigationConfig {
                loc_src_tasks: 4,
                o1_tasks: 2,
                o3_tasks: 2,
                location_rate: 1_000,
                n_segments: 200,
                ..NavigationConfig::default()
            }),
        };
        let (fail_at, settle) = match (kind, quick) {
            // Settle time: detection (≤5s) plus the query's state window, so
            // windowed aggregates fully turn over into degraded state before
            // accuracy is sampled.
            (QueryKind::Q1, false) => (45, 7 + 20),
            (QueryKind::Q1, true) => (30, 7 + 10),
            (QueryKind::Q2, _) => (if quick { 30 } else { 45 }, 7 + 6),
        };
        let from_batch = fail_at + settle;
        let to_batch = from_batch + if quick { 12 } else { 20 };
        let duration = to_batch + 5;
        let seed = 42;
        // A golden run has no failures; FtMode::None via an empty plan
        // would still checkpoint, so use a plain no-failure run.
        let strategy = Strategy::Checkpoint {
            interval_secs: 10_000,
        };
        let golden = drive(
            ctx,
            match kind {
                QueryKind::Q1 => "Q1-golden",
                QueryKind::Q2 => "Q2-golden",
            },
            &scenario,
            &strategy,
            strategy.config(scenario.graph().n_tasks(), SimDuration::from_secs(30), seed),
            &FailureTrace::new(),
            duration,
        )
        .report;
        AccuracyHarness {
            kind,
            scenario,
            golden,
            fail_at,
            duration,
            from_batch,
            to_batch,
            seed,
        }
    }

    /// Planning context over the harness's topology.
    pub fn context(&self, objective: Objective) -> PlanContext {
        PlanContext::new(self.scenario.query.topology())
            .expect("scenario topology is valid")
            .with_objective(objective)
    }

    /// Budget for a resource-consumption ratio.
    pub fn budget(&self, ratio: f64) -> usize {
        ((self.scenario.graph().n_tasks() as f64) * ratio).round() as usize
    }

    /// Measured tentative-output accuracy of `plan` under the worst-case
    /// correlated failure (every primary node dies).
    ///
    /// Passive recovery is `held_down` for the measurement so the window
    /// samples the plan's *steady-state* tentative quality.
    pub fn measure(&self, plan: &TaskSet) -> f64 {
        let strategy = Strategy::Ppa {
            plan: plan.clone(),
            interval_secs: 10,
        };
        let n = self.scenario.graph().n_tasks();
        let report = Simulation::run(
            &self.scenario.query,
            self.scenario.placement.clone(),
            held_down(strategy.config(n, SimDuration::from_secs(30), self.seed)),
            vec![FailureSpec {
                at: SimTime::from_secs(self.fail_at),
                nodes: self.scenario.placement.all_primary_nodes(),
            }],
            SimDuration::from_secs(self.duration),
        );
        match self.kind {
            QueryKind::Q1 => topk_accuracy(&self.golden, &report, self.from_batch, self.to_batch),
            QueryKind::Q2 => {
                incident_accuracy(&self.golden, &report, self.from_batch, self.to_batch)
            }
        }
    }
}

/// Resource-consumption ratios of the paper's x-axis.
pub(crate) fn ratios(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.3, 0.6]
    } else {
        vec![0.2, 0.4, 0.6, 0.8]
    }
}

/// Leaf phase 1 of Fig. 12/13 — one harness (golden run included) per
/// query.
pub(crate) fn harnesses(ctx: &RunCtx) -> Vec<AccuracyHarness> {
    ctx.map(QueryKind::ALL.to_vec(), |kind| {
        AccuracyHarness::new(ctx, kind, ctx.quick)
    })
}

/// A (harness, ratio) cell's x tick.
pub(crate) fn ratio_tick(&(_, ratio): &(&AccuracyHarness, &f64)) -> String {
    format!("{ratio:.1}")
}

pub(crate) fn run(ctx: &RunCtx) -> Vec<Figure> {
    let harnesses = harnesses(ctx);

    // Leaf phase 2 — one job per (query, ratio) × objective: plan, metric
    // value, and the measured accuracy under the worst-case failure.
    let rs = ratios(ctx.quick);
    let cells = cross(&harnesses, &rs);
    let objectives = [Objective::OutputFidelity, Objective::InternalCompleteness];
    let table = Table::run(
        ctx,
        &cells,
        &objectives,
        |&(harness, &ratio), &objective| {
            let cx = harness.context(objective);
            let plan = StructureAwarePlanner
                .plan(&cx, harness.budget(ratio))
                .expect("SA plan")
                .tasks;
            let metric = match objective {
                Objective::OutputFidelity => cx.of_plan(&plan),
                Objective::InternalCompleteness => cx.ic_plan(&plan),
            };
            (metric, harness.measure(&plan))
        },
    );

    QueryKind::ALL
        .iter()
        .map(|&kind| {
            let table = table.only(|(harness, _)| harness.kind == kind);
            let mut fig = Figure::new(
                "fig12",
                format!("Metric validation — {}", kind.title()),
                "resource consumption",
                "OF / IC / measured accuracy",
            );
            fig.series = vec![
                table.column(0, "OF", ratio_tick, |o| o.0),
                table.column(0, "OF-SA-Accuracy", ratio_tick, |o| o.1),
                table.column(1, "IC", ratio_tick, |o| o.0),
                table.column(1, "IC-SA-Accuracy", ratio_tick, |o| o.1),
            ];
            fig.note(match kind {
                QueryKind::Q1 => {
                    "Expected shape (paper): Q1 is join-free, so OF and IC both track the \
                     measured top-k accuracy well."
                }
                QueryKind::Q2 => {
                    "Expected shape (paper): Q2 joins two streams; IC keeps rising with \
                     resources while the accuracy of IC-optimized plans lags — IC ignores \
                     input-stream correlation. OF tracks accuracy."
                }
            });
            fig
        })
        .collect()
}
