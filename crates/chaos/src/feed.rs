//! [`ChaosFeed`]: a [`FaultFeed`] composed with a seeded chaos adversary.
//!
//! The feed owns three responsibilities the swarm runner must not
//! improvise per-scenario:
//!
//! 1. **Base failures** — any combination of explicit specs, domain
//!    kills, replayable traces and generative [`FailureProcess`]es,
//!    delegated to the engine's own [`FaultFeed`] resolution.
//! 2. **Mid-recovery re-kills** — extra node deaths drawn a detection
//!    interval or two after a base wave, aimed at catching the engine
//!    while outages are still being worked (the re-arm path PR 5 built).
//! 3. **Buggify schedule** — seeded [`ChaosSpec`] draws (heartbeat
//!    drops/delays/duplicates, restore stalls/voids) over the run's
//!    horizon.
//!
//! Every kill candidate — base and re-kill alike — passes the
//! [`can_kill`] guard before entering the resolved trace: a kill that
//! would take down **both copies of a task's exactly-once state**
//! (its primary and its standby) or push the dead fraction of the
//! cluster past the configured ceiling is suppressed and counted, never
//! silently mutated. The swarm can therefore assert "no lost
//! exactly-once state" as an invariant instead of a hope.

use crate::schedule::ChaosSchedule;
use ppa_engine::{
    ChaosKind, ChaosSpec, EngineError, FailureSpec, FailureTrace, FaultFeed, Placement,
};
use ppa_faults::FailureProcess;
use ppa_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Tuning knobs of the chaos adversary. All draws come from one
/// [`StdRng`] seeded with `seed`, so a config + placement + horizon
/// triple resolves to exactly one `(trace, schedule)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the adversary's RNG stream (independent of the engine's
    /// workload seed).
    pub seed: u64,
    /// Number of buggify events to draw over the horizon.
    pub buggify: usize,
    /// Number of mid-recovery re-kill attempts, each anchored shortly
    /// after a base failure wave.
    pub rekills: usize,
    /// Ceiling on the fraction of cluster nodes the resolved trace may
    /// leave dead (`can_kill`'s budget rule).
    pub max_dead_frac: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            buggify: 3,
            rekills: 1,
            max_dead_frac: 0.4,
        }
    }
}

/// The fully resolved chaos scenario: what actually gets injected.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedChaos {
    /// Guarded, normalized node-kill trace (every event kills only
    /// still-alive nodes — replaying it reproduces the run exactly).
    pub trace: FailureTrace,
    /// The buggify schedule.
    pub schedule: ChaosSchedule,
    /// Kill candidates the [`can_kill`] guard suppressed.
    pub(crate) suppressed_kills: usize,
}

/// Whether killing `node` on top of `dead` keeps the run recoverable:
/// the dead set stays within `max_dead` nodes, and no task loses both
/// its primary and its standby (the last copy of its exactly-once
/// state). Nodes never revive in the simulation, so a conservative
/// running dead set is exact.
pub(crate) fn can_kill(
    node: usize,
    dead: &BTreeSet<usize>,
    placement: &Placement,
    max_dead: usize,
) -> bool {
    if dead.len() + 1 > max_dead {
        return false;
    }
    let paired_dead = |t: usize| -> bool {
        let (p, s) = (placement.primary[t], placement.standby[t]);
        (p == node && dead.contains(&s)) || (s == node && dead.contains(&p))
    };
    !(0..placement.primary.len()).any(paired_dead)
}

/// A [`FaultFeed`] composed with a seeded chaos adversary. Builder
/// methods mirror the inner feed's; [`ChaosFeed::resolve`] adds the
/// re-kill draws, the guard pass and the buggify schedule.
pub struct ChaosFeed {
    faults: FaultFeed,
    config: ChaosConfig,
}

impl ChaosFeed {
    /// A chaos feed with no base failures yet.
    pub(crate) fn new(config: ChaosConfig) -> Self {
        ChaosFeed {
            faults: FaultFeed::new(),
            config,
        }
    }

    /// Adds one explicit kill event to the base feed.
    pub fn with_spec(mut self, spec: FailureSpec) -> Self {
        self.faults = self.faults.with_spec(spec);
        self
    }

    /// Adds a live generative failure process to the base feed.
    pub(crate) fn with_process(
        mut self,
        process: Box<dyn FailureProcess>,
        start: SimTime,
        horizon: SimDuration,
        seed: u64,
    ) -> Self {
        self.faults = self.faults.with_process(process, start, horizon, seed);
        self
    }

    /// Resolves the composed scenario against a placement and a run
    /// horizon:
    ///
    /// 1. the base feed resolves through [`FaultFeed::resolve`];
    /// 2. base events past the horizon are rejected with
    ///    [`EngineError::EventPastHorizon`] — a kill that can never fire
    ///    is a scenario bug, not dead weight to carry silently;
    /// 3. seeded re-kills are drawn, anchored after base waves;
    /// 4. every kill candidate walks the `can_kill` guard in time
    ///    order (suppressions counted, already-dead nodes dropped);
    /// 5. the buggify schedule is drawn over `[1s, horizon)`.
    pub fn resolve(
        &self,
        placement: &Placement,
        horizon: SimTime,
    ) -> Result<ResolvedChaos, EngineError> {
        let base = self.faults.resolve(placement)?;
        for e in base.events() {
            if e.at > horizon {
                return Err(EngineError::EventPastHorizon { at: e.at, horizon });
            }
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n_nodes = placement.n_nodes();

        // Re-kill candidates: each picks a base wave and a node, landing
        // 6–20 s after the wave — past the default detection interval,
        // so the kill tends to catch a recovery in flight.
        let mut candidates: Vec<(SimTime, Vec<usize>)> = base
            .events()
            .iter()
            .map(|e| (e.at, e.nodes.clone()))
            .collect();
        if !base.is_empty() {
            for _ in 0..self.config.rekills {
                let anchor = base.events()[rng.gen_range(0..base.len())].at;
                let delay = SimDuration::from_micros(rng.gen_range(6_000_000..=20_000_000u64));
                let node = rng.gen_range(0..n_nodes);
                let at = anchor + delay;
                if at <= horizon {
                    candidates.push((at, vec![node]));
                }
            }
        }
        candidates.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        // The guard pass: walk candidates in time order with a running
        // dead set. `max_dead` is floored but never below 1 so a
        // minimal scenario can still kill something.
        let max_dead = ((self.config.max_dead_frac * n_nodes as f64).floor() as usize).max(1);
        let mut dead: BTreeSet<usize> = BTreeSet::new();
        let mut suppressed = 0usize;
        let mut trace = FailureTrace::new();
        for (at, nodes) in candidates {
            let mut kept = Vec::new();
            for node in nodes {
                if dead.contains(&node) {
                    continue; // redundant, not suppressed
                }
                if can_kill(node, &dead, placement, max_dead) {
                    dead.insert(node);
                    kept.push(node);
                } else {
                    suppressed += 1;
                }
            }
            trace.push(at, kept);
        }

        // The buggify schedule, over [1 s, horizon). Tasks are drawn
        // from the placement's primary map — the same task universe the
        // engine validates `inject_chaos` against.
        let mut schedule = ChaosSchedule::new();
        let n_tasks = placement.primary.len();
        let horizon_us = horizon.as_micros();
        if horizon_us > 1_000_000 && n_tasks > 0 {
            for _ in 0..self.config.buggify {
                let at = SimTime::from_micros(rng.gen_range(1_000_000..horizon_us));
                let kind = match rng.gen_range(0..5u32) {
                    0 => ChaosKind::HeartbeatDrop {
                        scans: rng.gen_range(1..=3u32),
                    },
                    1 => ChaosKind::HeartbeatDelay {
                        by: SimDuration::from_micros(rng.gen_range(1_000_000..=7_000_000u64)),
                    },
                    2 => ChaosKind::HeartbeatDuplicate,
                    3 => ChaosKind::RestoreStall {
                        task: rng.gen_range(0..n_tasks),
                        by: SimDuration::from_micros(rng.gen_range(1_000_000..=10_000_000u64)),
                    },
                    _ => ChaosKind::RestoreVoid {
                        task: rng.gen_range(0..n_tasks),
                    },
                };
                schedule.push(ChaosSpec { at, kind });
            }
        }

        Ok(ResolvedChaos {
            trace,
            schedule,
            suppressed_kills: suppressed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_core::{OperatorSpec, Partitioning, TaskGraph, TopologyBuilder};
    use ppa_faults::{DomainBurstProcess, FaultDomainTree};
    use std::error::Error;

    type TestResult = Result<(), Box<dyn Error>>;

    fn placement() -> Result<Placement, Box<dyn Error>> {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 2, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        b.connect(s, m, Partitioning::OneToOne)?;
        let graph = TaskGraph::new(b.build()?);
        let nodes: Vec<usize> = (0..8).collect();
        Ok(Placement::round_robin(&graph, 4, 4)?
            .with_fault_domains(FaultDomainTree::racks(&nodes, 2))?)
    }

    #[test]
    fn resolution_is_deterministic() -> TestResult {
        let p = placement()?;
        let feed = || {
            ChaosFeed::new(ChaosConfig {
                seed: 11,
                buggify: 4,
                rekills: 2,
                max_dead_frac: 0.5,
            })
            .with_process(
                Box::new(DomainBurstProcess {
                    level: 1,
                    bursts: 1,
                    fraction: 1.0,
                }),
                SimTime::from_secs(20),
                SimDuration::from_secs(20),
                7,
            )
        };
        let horizon = SimTime::from_secs(60);
        let a = feed().resolve(&p, horizon)?;
        let b = feed().resolve(&p, horizon)?;
        assert_eq!(a, b);
        assert!(!a.schedule.is_empty());
        Ok(())
    }

    #[test]
    fn zero_chaos_resolves_like_the_plain_feed() -> TestResult {
        let p = placement()?;
        let spec = FailureSpec {
            at: SimTime::from_secs(30),
            nodes: vec![1],
        };
        let quiet = ChaosConfig {
            seed: 3,
            buggify: 0,
            rekills: 0,
            max_dead_frac: 1.0,
        };
        let chaos = ChaosFeed::new(quiet).with_spec(spec.clone());
        let resolved = chaos.resolve(&p, SimTime::from_secs(60))?;
        let plain = FaultFeed::new().with_spec(spec).resolve(&p)?;
        assert_eq!(resolved.trace, plain, "no adversary ⇒ the base trace");
        assert!(resolved.schedule.is_empty());
        assert_eq!(resolved.suppressed_kills, 0);
        Ok(())
    }

    #[test]
    fn base_events_past_horizon_are_typed_errors() -> TestResult {
        let p = placement()?;
        let feed = ChaosFeed::new(ChaosConfig::default()).with_spec(FailureSpec {
            at: SimTime::from_secs(95),
            nodes: vec![0],
        });
        let horizon = SimTime::from_secs(60);
        assert_eq!(
            feed.resolve(&p, horizon),
            Err(EngineError::EventPastHorizon {
                at: SimTime::from_secs(95),
                horizon
            })
        );
        Ok(())
    }

    #[test]
    fn guard_never_kills_both_copies_of_a_task() -> TestResult {
        let p = placement()?;
        // Ask for every node at once: the guard must keep at least one
        // copy of each task and respect the 50 % dead budget.
        let all: Vec<usize> = (0..p.n_nodes()).collect();
        let feed = ChaosFeed::new(ChaosConfig {
            seed: 5,
            buggify: 0,
            rekills: 0,
            max_dead_frac: 0.5,
        })
        .with_spec(FailureSpec {
            at: SimTime::from_secs(30),
            nodes: all,
        });
        let resolved = feed.resolve(&p, SimTime::from_secs(60))?;
        let dead: BTreeSet<usize> = resolved.trace.killed_nodes().into_iter().collect();
        assert!(resolved.suppressed_kills > 0);
        assert!(dead.len() <= p.n_nodes() / 2, "dead budget respected");
        for t in 0..p.primary.len() {
            assert!(
                !(dead.contains(&p.primary[t]) && dead.contains(&p.standby[t])),
                "task {t} lost both copies"
            );
        }
        Ok(())
    }

    #[test]
    fn rekills_add_guarded_events_after_base_waves() -> TestResult {
        let p = placement()?;
        let base_at = SimTime::from_secs(20);
        let feed = ChaosFeed::new(ChaosConfig {
            seed: 9,
            buggify: 0,
            rekills: 8,
            max_dead_frac: 1.0,
        })
        .with_spec(FailureSpec {
            at: base_at,
            nodes: vec![0],
        });
        let resolved = feed.resolve(&p, SimTime::from_secs(60))?;
        // Some re-kill draws survive (duplicates of already-dead nodes
        // and pair-killing draws are dropped/suppressed).
        assert!(!resolved.trace.is_empty());
        for e in resolved.trace.events() {
            assert!(e.at >= base_at, "re-kills anchor after their wave");
        }
        Ok(())
    }
}
