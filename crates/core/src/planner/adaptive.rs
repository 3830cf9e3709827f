//! Dynamic plan adaptation (§V-C).
//!
//! The paper describes — but leaves as future work — adapting the partially
//! active replication plan as input rates drift: periodically collect task
//! rates, re-plan, deactivate replicas that fell out of the plan and spin up
//! replicas for tasks that entered it (initialized from their checkpoints).
//! This module implements the planning half:
//!
//! * [`adapt_plan`] computes the new plan against a re-rated context and
//!   returns the *migration* (replicas to activate / deactivate);
//! * [`AdaptivePlanner`] adds hysteresis: a migration is only worth doing if
//!   the OF improvement clears a threshold, since spinning up a replica
//!   costs a checkpoint ship plus catch-up (§V-C).

use super::{Plan, PlanContext, Planner};
use crate::error::Result;
use crate::model::TaskSet;

/// A plan migration: which replicas to create and which to tear down.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAdaptation {
    /// The plan after adaptation.
    pub plan: Plan,
    /// Tasks gaining an active replica (need checkpoint ship + catch-up).
    pub(crate) activate: TaskSet,
    /// Tasks losing their active replica (resources released).
    pub deactivate: TaskSet,
    /// OF (or IC) of the old plan under the *new* rates.
    pub(crate) old_value: f64,
}

impl PlanAdaptation {
    /// Number of replicas that must be newly created.
    pub(crate) fn activation_cost(&self) -> usize {
        self.activate.len()
    }

    /// Objective improvement bought by the migration.
    pub(crate) fn gain(&self) -> f64 {
        self.plan.value - self.old_value
    }
}

/// Re-plans under `cx` (built from freshly observed rates) and diffs against
/// `old_plan`.
pub(crate) fn adapt_plan(
    cx: &PlanContext,
    planner: &dyn Planner,
    old_plan: &TaskSet,
    budget: usize,
) -> Result<PlanAdaptation> {
    let new_plan = planner.plan(cx, budget)?;
    let old_value = cx.score_plan(old_plan);
    Ok(PlanAdaptation {
        activate: new_plan.tasks.difference(old_plan),
        deactivate: old_plan.difference(&new_plan.tasks),
        plan: new_plan,
        old_value,
    })
}

/// A planner wrapper implementing §V-C's periodic adaptation with
/// hysteresis: keep the current plan unless re-planning improves the
/// objective by at least `min_gain` *and* the improvement per newly created
/// replica is at least `min_gain_per_activation`.
pub struct AdaptivePlanner<P> {
    pub(crate) inner: P,
    /// Minimum absolute objective improvement to migrate at all.
    pub(crate) min_gain: f64,
    /// Minimum improvement per activated replica (each activation costs a
    /// checkpoint ship and a catch-up phase).
    pub(crate) min_gain_per_activation: f64,
}

impl<P: Planner> AdaptivePlanner<P> {
    pub fn new(inner: P) -> Self {
        AdaptivePlanner {
            inner,
            min_gain: 0.01,
            min_gain_per_activation: 0.002,
        }
    }

    /// Decides whether to migrate from `current` given freshly observed
    /// rates (already baked into `cx`). Returns the adopted adaptation —
    /// a no-op keeping `current` when the gain does not clear hysteresis.
    pub fn step(
        &self,
        cx: &PlanContext,
        current: &TaskSet,
        budget: usize,
    ) -> Result<PlanAdaptation> {
        let candidate = adapt_plan(cx, &self.inner, current, budget)?;
        let worth_it = candidate.gain() >= self.min_gain
            && (candidate.activation_cost() == 0
                || candidate.gain() / candidate.activation_cost() as f64
                    >= self.min_gain_per_activation);
        if worth_it {
            Ok(candidate)
        } else {
            let old_value = candidate.old_value;
            Ok(PlanAdaptation {
                plan: Plan {
                    tasks: current.clone(),
                    value: old_value,
                },
                activate: TaskSet::empty(cx.n_tasks()),
                deactivate: TaskSet::empty(cx.n_tasks()),
                old_value,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{
        OperatorSpec, Partitioning, TaskIndex, TaskWeights, Topology, TopologyBuilder,
    };
    use crate::planner::StructureAwarePlanner;

    /// 4 sources (weighted) -> 2 mids -> sink; the weights are the knob the
    /// "observed rates" turn.
    fn topo(weights: Vec<f64>) -> Topology {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(
            OperatorSpec::source("s", 4, 100.0).with_weights(TaskWeights::Explicit(weights)),
        );
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 1, 1.0));
        b.connect(s, m, Partitioning::Merge).unwrap();
        b.connect(m, k, Partitioning::Merge).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn rate_shift_migrates_the_plan() {
        // Plan for a left-heavy workload, then observe a right-heavy one.
        let cx_old = PlanContext::new(&topo(vec![10.0, 1.0, 1.0, 1.0])).unwrap();
        let planner = StructureAwarePlanner;
        let old = planner.plan(&cx_old, 3).unwrap().tasks;
        assert!(
            old.contains(TaskIndex(0)),
            "heavy source 0 replicated first"
        );

        let cx_new = PlanContext::new(&topo(vec![1.0, 1.0, 1.0, 10.0])).unwrap();
        let adaptation = adapt_plan(&cx_new, &planner, &old, 3).unwrap();
        assert!(
            adaptation.plan.tasks.contains(TaskIndex(3)),
            "hot source 3 now replicated"
        );
        assert!(adaptation.activate.contains(TaskIndex(3)));
        assert!(adaptation.deactivate.contains(TaskIndex(0)));
        assert!(adaptation.gain() > 0.0);
    }

    #[test]
    fn stable_rates_are_a_noop() {
        let cx = PlanContext::new(&topo(vec![10.0, 1.0, 1.0, 1.0])).unwrap();
        let planner = StructureAwarePlanner;
        let old = planner.plan(&cx, 3).unwrap().tasks;
        let adaptive = AdaptivePlanner::new(planner);
        let step = adaptive.step(&cx, &old, 3).unwrap();
        assert!(step.activate.is_empty(), "same rates, same plan: {step:?}");
        assert_eq!(step.plan.tasks, old);
    }

    #[test]
    fn hysteresis_suppresses_marginal_migrations() {
        let cx_old = PlanContext::new(&topo(vec![10.0, 1.0, 1.0, 1.0])).unwrap();
        let planner = StructureAwarePlanner;
        let old = planner.plan(&cx_old, 3).unwrap().tasks;
        // A barely different workload: re-planning would shuffle replicas
        // for a negligible gain; hysteresis must keep the current plan.
        let cx_new = PlanContext::new(&topo(vec![9.8, 1.05, 1.0, 1.0])).unwrap();
        let adaptive = AdaptivePlanner {
            inner: StructureAwarePlanner,
            min_gain: 0.05,
            min_gain_per_activation: 0.01,
        };
        let step = adaptive.step(&cx_new, &old, 3).unwrap();
        assert_eq!(step.plan.tasks, old, "marginal shift must not migrate");
    }

    #[test]
    fn hysteresis_allows_large_migrations() {
        let cx_old = PlanContext::new(&topo(vec![10.0, 1.0, 1.0, 1.0])).unwrap();
        let planner = StructureAwarePlanner;
        let old = planner.plan(&cx_old, 3).unwrap().tasks;
        let cx_new = PlanContext::new(&topo(vec![1.0, 1.0, 1.0, 20.0])).unwrap();
        let adaptive = AdaptivePlanner::new(StructureAwarePlanner);
        let step = adaptive.step(&cx_new, &old, 3).unwrap();
        assert_ne!(step.plan.tasks, old);
        assert!(step.plan.tasks.contains(TaskIndex(3)));
    }

    #[test]
    fn budget_shrink_deactivates_only() {
        let cx = PlanContext::new(&topo(vec![4.0, 3.0, 2.0, 1.0])).unwrap();
        let planner = StructureAwarePlanner;
        let old = planner.plan(&cx, 7).unwrap().tasks;
        let adaptation = adapt_plan(&cx, &planner, &old, 3).unwrap();
        assert!(adaptation.plan.resources() <= 3);
        assert!(adaptation.deactivate.len() >= 4, "budget shrank by 4");
    }
}
