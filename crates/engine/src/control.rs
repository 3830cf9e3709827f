//! The control plane: online adaptation hooks over a running simulation.
//!
//! [`crate::Simulation::drive`] runs the engine's event loop with a
//! [`ControlPolicy`] in the loop: the policy's hooks fire at every failure
//! event and on a fixed epoch cadence, receive a [`HealthView`] — live
//! per-fault-domain health aggregated from the [`crate::Placement`]'s
//! node → domain mapping with time-decayed failure counts — and return
//! typed [`ControlAction`]s the engine applies:
//!
//! * [`ControlAction::Replan`] re-plans the active-replication set through
//!   `ppa_core::AdaptivePlanner::step` (§V-C's hysteresis) against a
//!   `PlanContext` derived from the placement's *current* node → domain
//!   mapping, then reconciles the running replicas with the adopted plan
//!   (tearing down dropped replicas, spinning up — or re-establishing —
//!   planned ones from checkpoints);
//! * [`ControlAction::MigrateTasks`] evacuates primaries and standbys off
//!   the named fault domains through the placement subsystem
//!   (`plan_evacuation`), with migration cost charged to the recovery
//!   model.
//!
//! Two policies ship: [`StaticPolicy`] (never acts — the control-plane
//! no-op baseline) and
//! [`DomainHealthPolicy`] (migrate away from degraded domains and their
//! cascade-threatened neighbours, then re-plan).

use crate::report::RunReport;
use ppa_faults::{DomainId, FaultDomainTree};
use ppa_sim::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// A typed instruction from a [`ControlPolicy`] to the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlAction {
    /// Re-plan active replication with this replica budget via
    /// `AdaptivePlanner::step` and reconcile running replicas with the
    /// adopted plan. Only meaningful under `FtMode::Ppa`.
    Replan { budget: usize },
    /// Evacuate live primaries and standbys off the named fault domains
    /// (and re-home replicas with their standbys).
    MigrateTasks { domains: Vec<DomainId> },
}

/// What actually happened when an action was applied — the engine reports
/// these in the [`DriveReport`] so experiments can count interventions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionOutcome {
    /// A `Replan` was adopted: how many replicas were newly established
    /// (including re-established ones lost to failures) and torn down.
    Replanned {
        activated: usize,
        deactivated: usize,
    },
    /// A `MigrateTasks` moved this many primaries and standbys.
    Migrated { primaries: usize, standbys: usize },
    /// The action had no effect, with the reason.
    NoEffect {
        action: &'static str,
        reason: &'static str,
    },
}

/// One applied control action, timestamped in virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionRecord {
    pub(crate) at: SimTime,
    pub(crate) outcome: ActionOutcome,
}

/// Everything a [`crate::Simulation::drive`] run produces: the ordinary
/// run report, the control actions taken, the CPU the control plane
/// charged for state shipping, and the run's metrics.
#[derive(Debug, Clone)]
pub struct DriveReport {
    pub report: RunReport,
    /// Applied control actions in virtual-time order.
    pub actions: Vec<ActionRecord>,
    /// CPU charged for control-plane state shipping (migrations and
    /// replica activations), over and above the report's per-task stats.
    pub control_cpu: SimDuration,
    /// Name-ordered snapshot of the run's counters: its event stream
    /// folded through [`ppa_obs::MetricsRegistry::record`], plus
    /// `engine.chaos.fired` and (approximate mode)
    /// `engine.approx.backups_skipped`.
    pub metrics: ppa_obs::MetricsSnapshot,
}

impl DriveReport {
    /// Count of applied actions with a given shape.
    pub fn count(&self, f: impl Fn(&ActionOutcome) -> bool) -> usize {
        self.actions.iter().filter(|a| f(&a.outcome)).count()
    }

    /// Total replicas activated across all replans.
    pub fn replicas_activated(&self) -> usize {
        self.actions
            .iter()
            .map(|a| match a.outcome {
                ActionOutcome::Replanned { activated, .. } => activated,
                _ => 0,
            })
            .sum()
    }

    /// Total primaries + standbys moved across all migrations.
    pub fn tasks_migrated(&self) -> usize {
        self.actions
            .iter()
            .map(|a| match a.outcome {
                ActionOutcome::Migrated {
                    primaries,
                    standbys,
                } => primaries + standbys,
                _ => 0,
            })
            .sum()
    }
}

/// Time-decayed per-fault-domain failure scores: each node failure adds 1
/// to every proper domain containing the node, and scores halve every
/// `half_life`. The decayed score is the "how degraded is this blast
/// radius right now" signal a [`HealthView`] exposes to policies.
#[derive(Debug, Clone)]
pub struct DomainHealth {
    half_life: SimDuration,
    scores: Vec<f64>,
    updated: Vec<SimTime>,
}

impl DomainHealth {
    /// A tracker over `n_domains` domains (indexed by [`DomainId`]).
    pub fn new(n_domains: usize, half_life: SimDuration) -> Self {
        assert!(!half_life.is_zero(), "half-life must be positive");
        DomainHealth {
            half_life,
            scores: vec![0.0; n_domains],
            updated: vec![SimTime::ZERO; n_domains],
        }
    }

    /// `0.5^(elapsed / half_life)`, written as `exp2` because an
    /// optimised build rewrites `0.5.powf(x)` into `exp2(-x)`: calling it
    /// directly keeps debug and release builds bit-identical.
    fn decay(&self, from: SimTime, to: SimTime) -> f64 {
        let elapsed = to.since(from);
        (-(elapsed.as_secs_f64() / self.half_life.as_secs_f64())).exp2()
    }

    /// Records one failure under `domain` at `at`.
    pub fn record(&mut self, domain: DomainId, at: SimTime) {
        let d = domain.0;
        self.scores[d] = self.score_at(domain, at) + 1.0;
        self.updated[d] = self.updated[d].max(at);
    }

    /// The decayed score of `domain` at `at` (monotonically non-increasing
    /// between failures).
    pub fn score_at(&self, domain: DomainId, at: SimTime) -> f64 {
        let d = domain.0;
        self.scores[d] * self.decay(self.updated[d], at.max(self.updated[d]))
    }

    /// All scores decayed to `at`, indexed by [`DomainId`].
    pub(crate) fn snapshot(&self, at: SimTime) -> Vec<f64> {
        (0..self.scores.len())
            .map(|d| self.score_at(DomainId(d), at))
            .collect()
    }
}

/// A policy's window into the running cluster: the placement's
/// fault-domain tree (when attached), every domain's time-decayed failure
/// score, and the recovery-setback count — re-failures are first-class
/// observations, not something a policy has to reconstruct from node
/// deaths.
pub struct HealthView<'a> {
    tree: Option<&'a FaultDomainTree>,
    /// Decayed score per domain, indexed by [`DomainId`]; empty when the
    /// placement carries no fault-domain mapping.
    scores: Vec<f64>,
    /// Monotone recovery-setback count (see
    /// [`HealthView::recovery_setbacks`]).
    setbacks: usize,
}

impl<'a> HealthView<'a> {
    pub(crate) fn new(
        tree: Option<&'a FaultDomainTree>,
        scores: Vec<f64>,
        setbacks: usize,
    ) -> Self {
        HealthView {
            tree,
            scores,
            setbacks,
        }
    }

    /// The decayed failure score of a domain (0 when unknown).
    pub(crate) fn score(&self, domain: DomainId) -> f64 {
        self.scores.get(domain.0).copied().unwrap_or(0.0)
    }

    /// Monotone count of recovery setbacks: re-failures, and deaths that
    /// re-armed an open outage mid-recovery (which do NOT grow the
    /// outage count) — a muted replica's death while its takeover was
    /// pending among them. Comparing against the value last acted on is
    /// how a policy detects that *something went backwards* since its
    /// last hook, even inside domains it already evacuated.
    pub(crate) fn recovery_setbacks(&self) -> usize {
        self.setbacks
    }

    /// Proper domains whose decayed score is at least `threshold`, in
    /// creation order.
    pub(crate) fn degraded(&self, threshold: f64) -> Vec<DomainId> {
        let Some(tree) = self.tree else {
            return Vec::new();
        };
        tree.proper_domains()
            .into_iter()
            .filter(|&d| self.score(d) >= threshold)
            .collect()
    }

    /// Siblings of `domain` within creation-order index distance `radius`
    /// — the "next cascade rings" a policy may want to evacuate
    /// preemptively (cascades spread to adjacent siblings first).
    pub(crate) fn ring_siblings(&self, domain: DomainId, radius: usize) -> Vec<DomainId> {
        let Some(tree) = self.tree else {
            return Vec::new();
        };
        let Some(parent) = tree.parent_of(domain) else {
            return Vec::new();
        };
        let family = tree.children_of(parent);
        let Some(origin) = family.iter().position(|&d| d == domain) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for d in 1..=radius {
            for idx in [origin.checked_sub(d), origin.checked_add(d)] {
                let Some(idx) = idx else { continue };
                if idx < family.len() && idx != origin {
                    out.push(family[idx]);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// The online-adaptation hook driving a [`crate::Simulation::drive`] run.
///
/// Hooks must be deterministic functions of the views they receive —
/// the repro harness's `--jobs N` byte-identical guarantee extends
/// through the control plane.
pub trait ControlPolicy {
    /// Short name used in run labels ("static", "domain-health", ...).
    fn name(&self) -> &'static str;

    /// Epoch cadence of [`ControlPolicy::on_epoch`]; `None` disables the
    /// epoch hook entirely (the failure hook still fires).
    fn epoch_interval(&self) -> Option<SimDuration> {
        None
    }

    /// Called every epoch with the cluster health at the epoch boundary.
    fn on_epoch(&mut self, view: &HealthView<'_>) -> Vec<ControlAction> {
        let _ = view;
        Vec::new()
    }

    /// Called immediately after every failure event fires.
    fn on_failure(&mut self, view: &HealthView<'_>) -> Vec<ControlAction> {
        let _ = view;
        Vec::new()
    }
}

/// The do-nothing policy: nobody at the controls. What
/// [`crate::Simulation::run`] drives with.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticPolicy;

impl ControlPolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        "static"
    }
}

/// React to degraded fault domains: evacuate them and their nearest
/// cascade rings, then re-plan active replication against the migrated
/// placement.
///
/// On every hook the policy looks for *freshly* degraded domains (decayed
/// score ≥ `threshold`, not yet acted on). For each batch of fresh
/// domains it emits one [`ControlAction::MigrateTasks`] covering the
/// degraded domains plus their ring siblings within `migrate_radius`
/// (cascades spread outward ring by ring, so the nearest neighbours are
/// the likeliest next victims), followed by one [`ControlAction::Replan`]
/// when `replan_budget` is set — re-planning against the post-migration
/// placement re-establishes replicas the burst destroyed and covers the
/// newly exposed domains.
#[derive(Debug, Clone)]
pub struct DomainHealthPolicy {
    /// Decayed score at which a domain counts as degraded.
    pub(crate) threshold: f64,
    /// How many rings of siblings to evacuate along with a degraded
    /// domain (0 = only the degraded domain itself).
    pub(crate) migrate_radius: usize,
    /// Replica budget for the follow-up re-plan; `None` migrates only.
    pub(crate) replan_budget: Option<usize>,
    /// Epoch cadence of the health check (failures also trigger it).
    pub(crate) epoch: SimDuration,
    /// Domains already acted on (a domain is evacuated once).
    acted: BTreeSet<DomainId>,
    /// Recovery setbacks already acted on — fresh ones (an activated
    /// replica died, a recovery was knocked back mid-flight) force
    /// another migrate + replan round even inside already-evacuated
    /// domains.
    setbacks_acted: usize,
}

impl DomainHealthPolicy {
    /// Defaults: act on any failure (threshold 1), evacuate one ring of
    /// neighbours, re-plan with `replan_budget`, check every second.
    pub fn new(replan_budget: Option<usize>) -> Self {
        DomainHealthPolicy {
            threshold: 1.0,
            migrate_radius: 1,
            replan_budget,
            epoch: SimDuration::from_secs(1),
            acted: BTreeSet::new(),
            setbacks_acted: 0,
        }
    }

    fn react(&mut self, view: &HealthView<'_>) -> Vec<ControlAction> {
        let fresh: Vec<DomainId> = view
            .degraded(self.threshold)
            .into_iter()
            .filter(|&d| self.acted.insert(d))
            .collect();
        // Recovery setbacks are first-class: an activated replica dying
        // (or a recovery knocked back mid-flight) lands inside domains
        // this policy may already have evacuated, so the fresh-domain
        // filter alone would ignore it forever. A fresh setback forces
        // another round over every currently degraded domain — re-homing
        // the dead standby is what lets the follow-up replan re-establish
        // the task's replica.
        let setbacks = view.recovery_setbacks();
        let knocked_back = setbacks > self.setbacks_acted;
        self.setbacks_acted = setbacks;
        if fresh.is_empty() && !knocked_back {
            return Vec::new();
        }
        let mut targets = fresh.clone();
        for &d in &fresh {
            targets.extend(view.ring_siblings(d, self.migrate_radius));
        }
        if knocked_back {
            // The setback may have landed in an already-acted domain
            // outside the fresh domains' neighbourhood: re-evacuate every
            // currently degraded domain regardless, so the dead standby
            // is re-homed even when the same hook also saw fresh damage.
            targets.extend(view.degraded(self.threshold));
        }
        targets.sort_unstable();
        targets.dedup();
        let mut actions = Vec::new();
        if !targets.is_empty() {
            actions.push(ControlAction::MigrateTasks { domains: targets });
        }
        if let Some(budget) = self.replan_budget {
            actions.push(ControlAction::Replan { budget });
        }
        actions
    }
}

impl ControlPolicy for DomainHealthPolicy {
    fn name(&self) -> &'static str {
        "domain-health"
    }

    fn epoch_interval(&self) -> Option<SimDuration> {
        Some(self.epoch)
    }

    fn on_epoch(&mut self, view: &HealthView<'_>) -> Vec<ControlAction> {
        self.react(view)
    }

    fn on_failure(&mut self, view: &HealthView<'_>) -> Vec<ControlAction> {
        self.react(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_halves_per_half_life() {
        let mut h = DomainHealth::new(3, SimDuration::from_secs(10));
        let d = DomainId(1);
        h.record(d, SimTime::from_secs(100));
        assert_eq!(h.score_at(d, SimTime::from_secs(100)), 1.0);
        let half = h.score_at(d, SimTime::from_secs(110));
        assert!((half - 0.5).abs() < 1e-12, "one half-life halves: {half}");
        // A second failure stacks on the decayed score.
        h.record(d, SimTime::from_secs(110));
        assert!((h.score_at(d, SimTime::from_secs(110)) - 1.5).abs() < 1e-12);
        // Other domains are untouched.
        assert_eq!(h.score_at(DomainId(2), SimTime::from_secs(110)), 0.0);
    }

    #[test]
    fn decay_is_monotone_between_failures() {
        let mut h = DomainHealth::new(2, SimDuration::from_secs(7));
        let d = DomainId(0);
        h.record(d, SimTime::from_secs(40));
        h.record(d, SimTime::from_secs(41));
        let mut prev = f64::INFINITY;
        for s in 41..120 {
            let score = h.score_at(d, SimTime::from_secs(s));
            assert!(score <= prev, "score rose from {prev} to {score} at {s}s");
            assert!(score > 0.0, "decay never reaches zero");
            prev = score;
        }
    }

    #[test]
    fn health_view_flags_degraded_domains_and_rings() {
        let tree = FaultDomainTree::racks(&(0..12).collect::<Vec<_>>(), 3);
        let racks = tree.domains_at_level(1);
        let mut h = DomainHealth::new(tree.n_domains(), SimDuration::from_secs(30));
        for _ in 0..3 {
            h.record(racks[1], SimTime::from_secs(50));
        }
        let view = HealthView::new(Some(&tree), h.snapshot(SimTime::from_secs(50)), 0);
        assert_eq!(view.degraded(1.0), vec![racks[1]]);
        assert_eq!(view.score(racks[1]), 3.0);
        assert_eq!(
            view.ring_siblings(racks[1], 1),
            vec![racks[0], racks[2]],
            "ring 1 = both adjacent racks"
        );
        assert_eq!(view.ring_siblings(racks[0], 1), vec![racks[1]]);
    }

    #[test]
    fn domain_health_policy_acts_once_per_domain() {
        let tree = FaultDomainTree::racks(&(0..12).collect::<Vec<_>>(), 3);
        let racks = tree.domains_at_level(1);
        let mut h = DomainHealth::new(tree.n_domains(), SimDuration::from_secs(30));
        h.record(racks[0], SimTime::from_secs(40));
        let mut policy = DomainHealthPolicy::new(Some(4));
        let view = HealthView::new(Some(&tree), h.snapshot(SimTime::from_secs(40)), 0);
        let actions = policy.on_failure(&view);
        assert_eq!(actions.len(), 2, "migrate + replan");
        assert_eq!(
            actions[0],
            ControlAction::MigrateTasks {
                domains: vec![racks[0], racks[1]]
            },
            "origin + ring 1"
        );
        assert_eq!(actions[1], ControlAction::Replan { budget: 4 });
        // The same degradation does not trigger twice.
        assert!(policy.on_epoch(&view).is_empty());
    }

    #[test]
    fn fresh_refailure_forces_another_round_in_acted_domains() {
        let tree = FaultDomainTree::racks(&(0..12).collect::<Vec<_>>(), 3);
        let racks = tree.domains_at_level(1);
        let mut h = DomainHealth::new(tree.n_domains(), SimDuration::from_secs(300));
        h.record(racks[0], SimTime::from_secs(40));
        let mut policy = DomainHealthPolicy::new(Some(4));
        policy.migrate_radius = 0;
        let view_at = |at: u64, setbacks: usize, h: &DomainHealth| {
            HealthView::new(Some(&tree), h.snapshot(SimTime::from_secs(at)), setbacks)
        };
        // First failure: the degraded rack is acted on once.
        let acts = policy.on_failure(&view_at(40, 0, &h));
        assert_eq!(acts.len(), 2, "migrate + replan: {acts:?}");
        assert!(policy.on_epoch(&view_at(41, 0, &h)).is_empty());
        // A re-failure (task 0's second outage — one recovery setback)
        // lands in the same, already-acted rack: the policy must go again
        // — evacuate the currently degraded domains and re-plan.
        h.record(racks[0], SimTime::from_secs(60));
        let acts = policy.on_failure(&view_at(60, 1, &h));
        assert_eq!(
            acts,
            vec![
                ControlAction::MigrateTasks {
                    domains: vec![racks[0]]
                },
                ControlAction::Replan { budget: 4 },
            ],
            "a fresh re-failure re-arms the acted domains"
        );
        // The same setback does not trigger twice.
        assert!(policy.on_epoch(&view_at(61, 1, &h)).is_empty());
        // A hook seeing BOTH fresh damage (rack 1) and another setback in
        // the already-acted rack 0 must cover both: the fresh domain's
        // neighbourhood AND every degraded acted domain. A mid-recovery
        // death re-arms the open record — outage counts stay flat, only
        // the setback counter moves — and must still trigger.
        h.record(racks[0], SimTime::from_secs(70));
        h.record(racks[1], SimTime::from_secs(70));
        let acts = policy.on_failure(&view_at(70, 2, &h));
        assert_eq!(
            acts[0],
            ControlAction::MigrateTasks {
                domains: vec![racks[0], racks[1]]
            },
            "fresh rack 1 + re-evacuated rack 0: {acts:?}"
        );
    }

    #[test]
    fn static_policy_never_acts() {
        let mut p = StaticPolicy;
        let view = HealthView::new(None, Vec::new(), 0);
        assert!(p.on_epoch(&view).is_empty());
        assert!(p.on_failure(&view).is_empty());
        assert!(p.epoch_interval().is_none());
        assert_eq!(p.name(), "static");
    }
}
