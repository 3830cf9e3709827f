//! The test bed under the five failure sweeps: the Fig. 6 query at sweep
//! scale — on the paper's dedicated layout, or placed onto the racked
//! 12 + 12 cluster — the failure schedule, and the cascade the sweeps draw
//! their correlated failures from.

use super::{fig6_cfg, half_plan, held_down, schedule, Strategy};
use ppa_core::TaskSet;
use ppa_engine::{
    Cluster, DomainHealthPolicy, EngineConfig, FailureTrace, PlacementStrategy, RunReport,
    Simulation,
};
use ppa_faults::{CascadeProcess, FailureProcess, FaultDomainTree};
use ppa_sim::SimDuration;
use ppa_workloads::{Fig6Config, Scenario};

/// The racked cluster: the Fig. 6 query's 31 tasks on 12 workers, with 12
/// standby nodes for checkpoints and replicas. Racks are consecutive node
/// ranges over workers *and* standbys, so cascades can take replicas down
/// with their primaries — unless the placement separated them.
pub(super) const N_WORKERS: usize = 12;
pub(super) const N_STANDBY: usize = 12;

/// The sweeps' failure process: a burst of `fraction` of the origin rack
/// (`None` = a randomly drawn one) cascading to sibling racks with
/// probability `spread`, decaying by 0.5 per ring, 2 s per hop.
pub(super) fn cascade(origin: Option<usize>, spread: f64, fraction: f64) -> impl FailureProcess {
    CascadeProcess {
        level: 1,
        spread,
        decay: 0.5,
        hop_delay: SimDuration::from_secs(2),
        fraction,
        origin,
    }
}

/// The x tick (and run label) of a (burst size, spread) cascade cell.
pub(super) fn cell_label(&(burst, corr): &(&usize, &f64)) -> String {
    format!("burst:{burst} corr:{corr}")
}

/// One cell's test bed. Cheap to build, so every leaf job builds its own.
pub(super) struct Bed {
    pub(crate) cfg: Fig6Config,
    /// Failure onset and run length, seconds (see [`schedule`]).
    pub(crate) fail_at: u64,
    pub(crate) duration: u64,
    pub(crate) scenario: Scenario,
}

impl Bed {
    /// The paper's dedicated layout (one worker node per synthetic task).
    pub(super) fn dedicated(quick: bool) -> Self {
        let cfg = if quick {
            fig6_cfg(300, 10)
        } else {
            fig6_cfg(1000, 30)
        };
        let (fail_at, duration) = schedule(quick);
        Bed {
            scenario: ppa_workloads::fig6_scenario(&cfg),
            cfg,
            fail_at,
            duration,
        }
    }

    /// Placed by `placement` onto the 12 + 12 cluster in racks of
    /// `rack_size`.
    pub(super) fn racked(quick: bool, rack_size: usize, placement: &dyn PlacementStrategy) -> Self {
        let cluster = Cluster::racked(N_WORKERS, N_STANDBY, rack_size).expect("positive rack size");
        let mut bed = Bed::dedicated(quick);
        bed.scenario = bed
            .scenario
            .placed_with(placement, &cluster)
            .expect("fig6 fits the sweep cluster");
        bed
    }

    /// A cell's trace seed: the workload's seed, the sweep's `salt` and the
    /// cell's correlation coordinate — nothing else, so every roster entry
    /// replays the same failures and any `--jobs` count the same sweep.
    pub(super) fn trace_seed(&self, salt: u64, spread: f64) -> u64 {
        self.cfg.seed ^ salt ^ (((spread * 100.0) as u64) << 20)
    }

    /// The racked cluster's fault-domain tree — what a cell draws its
    /// trace from, so every roster entry replays the same node deaths.
    pub(super) fn racks(&self) -> &FaultDomainTree {
        let tree = self.scenario.placement.fault_domains();
        tree.expect("racked cluster has a tree")
    }

    /// The [`half_plan`] hedging this placement's own node → rack mapping:
    /// exactly the rack failures the placement can actually suffer.
    pub(super) fn half_plan(&self) -> TaskSet {
        let cx = self
            .scenario
            .placement
            .plan_context(self.scenario.query.topology())
            .expect("fig6 plans against its racked cluster");
        half_plan(&cx)
    }

    /// Attaches the domain-health control policy (evacuate a degraded
    /// rack's neighbours, re-plan replication within the `n/2` budget);
    /// without it a bed runs the static no-op policy.
    pub(super) fn with_domain_health(mut self) -> Self {
        let budget = self.scenario.graph().n_tasks() / 2;
        self.scenario = self
            .scenario
            .with_policy(move || Box::new(DomainHealthPolicy::new(Some(budget))));
        self
    }

    /// `strategy`'s engine configuration on this bed.
    pub(super) fn config(&self, strategy: &Strategy) -> EngineConfig {
        let n = self.scenario.graph().n_tasks();
        strategy.config(n, self.cfg.window, self.cfg.seed)
    }

    /// [`Bed::config`], [`held_down`] for steady-state tentative sampling.
    pub(super) fn held_down(&self, strategy: &Strategy) -> EngineConfig {
        held_down(self.config(strategy))
    }

    /// The failure-free run a driven run is scored against: same query,
    /// same placement, same configuration, so placement- and
    /// strategy-induced CPU contention cancels out. Not logged — it is a
    /// yardstick, not a result.
    pub(super) fn golden(&self, config: EngineConfig) -> RunReport {
        Simulation::run(
            &self.scenario.query,
            self.scenario.placement.clone(),
            config,
            &FailureTrace::new(),
            SimDuration::from_secs(self.duration),
        )
    }
}
