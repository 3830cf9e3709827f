//! A deterministic metrics registry: monotone counters keyed by
//! `&'static str` names, and [`MetricsRegistry::record`], the one map
//! from an [`EngineEvent`] to the counters it moves. The engine counts
//! its run through `record`, and the chaos checker folds a recorded
//! stream through the same `record` to check those counts.
//!
//! Everything is `BTreeMap`-ordered, so a snapshot serializes in one
//! stable name order regardless of registration order — the same
//! guarantee the workspace's ban on `HashMap`/`HashSet` (clippy.toml)
//! enforces for every other iteration that escapes into reports.

use crate::event::EngineEvent;
use std::collections::BTreeMap;

/// The live registry a run updates in place.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments a monotone counter by 1.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increments a monotone counter by `n`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Counts one lifecycle transition into the counters it moves.
    pub fn record(&mut self, event: &EngineEvent) {
        match event {
            EngineEvent::FailureInjected { nodes } => {
                self.inc("engine.failures.waves");
                self.add("engine.failures.nodes_killed", nodes.len() as u64);
            }
            EngineEvent::OutageOpened { refail, .. } => {
                self.inc("engine.outages.opened");
                if *refail {
                    self.inc("engine.outages.refails");
                    self.inc("engine.recovery.setbacks");
                }
            }
            EngineEvent::RecoverySetback { .. } => self.inc("engine.recovery.setbacks"),
            EngineEvent::OutageDetected { .. } => self.inc("engine.outages.detected"),
            EngineEvent::RestoreStarted { .. } => self.inc("engine.restores.started"),
            EngineEvent::RestoreDone { .. } => self.inc("engine.recoveries.via_restore"),
            EngineEvent::RestoreVoided { .. } => self.inc("engine.restores.voided"),
            EngineEvent::ReplicaActivated { .. } => self.inc("engine.recoveries.via_replica"),
            EngineEvent::TentativeResumed { .. } => self.inc("engine.tentative.resumed"),
            EngineEvent::ApproxBackupShipped { .. } => self.inc("engine.approx.backups_shipped"),
            EngineEvent::ApproxRecovery { divergence, .. } => {
                self.add("engine.approx.divergence_at_recovery", *divergence);
            }
            EngineEvent::ReplanAdopted { .. } => self.inc("engine.control.replans"),
            EngineEvent::MigrationScheduled { .. } => self.inc("engine.control.migrations"),
            EngineEvent::ControlNoEffect { .. } => self.inc("engine.control.no_effect"),
            EngineEvent::EpochHealthSnapshot { .. } => self.inc("engine.epochs"),
        }
    }

    /// A counter's current value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// An immutable, name-ordered copy of every counter so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(&k, &v)| (k, v)).collect(),
        }
    }
}

/// A point-in-time reading of a [`MetricsRegistry`], in name order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    /// A counter's value in this snapshot (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_in_name_order() {
        let mut m = MetricsRegistry::new();
        m.inc("z.last");
        m.add("a.first", 2);
        m.inc("z.last");
        assert_eq!(m.counter("z.last"), 2);
        assert_eq!(m.counter("missing"), 0);
        let snap = m.snapshot();
        // BTreeMap order, not insertion order.
        assert_eq!(snap.counters, vec![("a.first", 2), ("z.last", 2)]);
        assert_eq!(snap.counter("a.first"), 2);
    }

    #[test]
    fn record_moves_the_counters_of_each_event_kind() {
        let moved = |event: EngineEvent| {
            let mut m = MetricsRegistry::new();
            m.record(&event);
            m.snapshot().counters
        };
        let cases = [
            (
                EngineEvent::FailureInjected { nodes: vec![3, 4] },
                vec![
                    ("engine.failures.nodes_killed", 2),
                    ("engine.failures.waves", 1),
                ],
            ),
            (
                EngineEvent::OutageOpened {
                    task: 0,
                    refail: false,
                },
                vec![("engine.outages.opened", 1)],
            ),
            (
                EngineEvent::OutageOpened {
                    task: 0,
                    refail: true,
                },
                vec![
                    ("engine.outages.opened", 1),
                    ("engine.outages.refails", 1),
                    ("engine.recovery.setbacks", 1),
                ],
            ),
            (
                EngineEvent::RecoverySetback { task: 0 },
                vec![("engine.recovery.setbacks", 1)],
            ),
            (
                EngineEvent::OutageDetected { task: 0 },
                vec![("engine.outages.detected", 1)],
            ),
            (
                EngineEvent::RestoreStarted { task: 0, node: 7 },
                vec![("engine.restores.started", 1)],
            ),
            (
                EngineEvent::RestoreDone { task: 0 },
                vec![("engine.recoveries.via_restore", 1)],
            ),
            (
                EngineEvent::RestoreVoided { task: 0 },
                vec![("engine.restores.voided", 1)],
            ),
            (
                EngineEvent::ReplicaActivated { task: 0 },
                vec![("engine.recoveries.via_replica", 1)],
            ),
            (
                EngineEvent::TentativeResumed { task: 0 },
                vec![("engine.tentative.resumed", 1)],
            ),
            (
                EngineEvent::ApproxBackupShipped {
                    task: 0,
                    divergence: 9,
                },
                vec![("engine.approx.backups_shipped", 1)],
            ),
            (
                EngineEvent::ApproxRecovery {
                    task: 0,
                    divergence: 42,
                    skipped_batches: 4,
                },
                vec![("engine.approx.divergence_at_recovery", 42)],
            ),
            (
                EngineEvent::ReplanAdopted {
                    activated: 2,
                    deactivated: 1,
                    plan_size: 5,
                },
                vec![("engine.control.replans", 1)],
            ),
            (
                EngineEvent::MigrationScheduled {
                    planned_primaries: 1,
                    planned_standbys: 1,
                    moved_primaries: 1,
                    moved_standbys: 0,
                },
                vec![("engine.control.migrations", 1)],
            ),
            (
                EngineEvent::ControlNoEffect {
                    action: "replan",
                    reason: "no_change",
                },
                vec![("engine.control.no_effect", 1)],
            ),
            (
                EngineEvent::EpochHealthSnapshot {
                    scores: vec![(0, 0.5)],
                },
                vec![("engine.epochs", 1)],
            ),
        ];
        for (event, counters) in cases {
            let kind = event.kind();
            assert_eq!(moved(event), counters, "{kind}");
        }
    }
}
