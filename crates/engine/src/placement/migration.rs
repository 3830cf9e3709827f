//! Evacuation planning: where tasks go when the control plane orders them
//! off degraded fault domains.
//!
//! [`plan_evacuation`] is the placement-subsystem half of
//! `ControlAction::MigrateTasks`: pure planning over the current
//! [`Placement`], the node liveness vector and the domains to evacuate.
//! The engine applies the returned moves (rewiring the running tasks and
//! charging state-ship CPU to the recovery model).

use super::{NodeId, Placement, PlacementError};
use ppa_core::TaskIndex;
use ppa_faults::DomainId;
use std::collections::BTreeSet;

/// Which incarnation of a task a move relocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MoveRole {
    /// The running primary (only planned off *live* nodes — a dead
    /// primary is the recovery path's business, not migration's).
    Primary,
    /// The standby slot (replica host / restore target). Planned off dead
    /// nodes too: re-homing a standby whose node died is exactly what
    /// lets a later re-plan re-establish the replica.
    Standby,
}

/// One planned relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskMove {
    pub(crate) task: TaskIndex,
    pub(crate) role: MoveRole,
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
}

/// Plans the evacuation of every primary and standby hosted under
/// `domains`: each evacuee moves to the least-loaded *alive* node of its
/// role range outside the evacuated domains (ties broken by node id, so
/// the plan is deterministic). Tasks with no valid destination — every
/// other node of the role range dead or evacuated — are left in place.
///
/// `node_alive[n]` is the engine's liveness vector. Returns
/// [`PlacementError::NoFaultDomains`] if the placement carries no
/// fault-domain mapping to expand `domains` through.
pub fn plan_evacuation(
    placement: &Placement,
    domains: &[DomainId],
    node_alive: &[bool],
) -> Result<Vec<TaskMove>, PlacementError> {
    let tree = placement
        .fault_domains()
        .ok_or(PlacementError::NoFaultDomains)?;
    let mut avoid: BTreeSet<NodeId> = BTreeSet::new();
    for &d in domains {
        avoid.extend(tree.nodes_under(d));
    }

    // Current per-node load (primaries + standbys), kept up to date as
    // moves are planned so evacuees spread instead of piling up.
    let mut load = vec![0usize; placement.n_nodes()];
    for &n in placement.primary.iter().chain(placement.standby.iter()) {
        load[n] += 1;
    }

    let alive = |n: NodeId| node_alive.get(n).copied().unwrap_or(false);
    let mut moves = Vec::new();
    let n_tasks = placement.primary.len();
    for t in 0..n_tasks {
        let from = placement.primary[t];
        // Primaries move only off *live* evacuated nodes: a dead node's
        // task is already dead, and recovery (not migration) owns it.
        if avoid.contains(&from) && alive(from) {
            let dest = (0..placement.n_workers)
                .filter(|n| !avoid.contains(n) && alive(*n))
                .min_by_key(|&n| (load[n], n));
            if let Some(to) = dest {
                load[from] -= 1;
                load[to] += 1;
                moves.push(TaskMove {
                    task: TaskIndex(t),
                    role: MoveRole::Primary,
                    from,
                    to,
                });
            }
        }
    }
    let standby_range = placement.n_workers..placement.n_nodes();
    for t in 0..n_tasks {
        let from = placement.standby[t];
        if avoid.contains(&from) {
            let dest = standby_range
                .clone()
                .filter(|n| !avoid.contains(n) && alive(*n))
                .min_by_key(|&n| (load[n], n));
            if let Some(to) = dest {
                load[from] -= 1;
                load[to] += 1;
                moves.push(TaskMove {
                    task: TaskIndex(t),
                    role: MoveRole::Standby,
                    from,
                    to,
                });
            }
        }
    }
    Ok(moves)
}

/// `(primaries, standbys)` planned in `moves` — the shape the
/// observability layer records for a scheduled migration.
pub(crate) fn move_counts(moves: &[TaskMove]) -> (usize, usize) {
    let primaries = moves.iter().filter(|m| m.role == MoveRole::Primary).count();
    (primaries, moves.len() - primaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_core::{OperatorSpec, Partitioning, TaskGraph, TopologyBuilder};
    use ppa_faults::FaultDomainTree;
    use std::error::Error;

    type TestResult = Result<(), Box<dyn Error>>;

    /// 6 tasks round-robin over 4 workers + 2 standbys, racks of 2 over
    /// all 6 nodes: worker racks {0,1} {2,3}, standby rack {4,5}.
    fn placement() -> Result<Placement, Box<dyn Error>> {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 4, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        b.connect(s, m, Partitioning::Merge)?;
        let g = TaskGraph::new(b.build()?);
        Ok(Placement::round_robin(&g, 4, 2)?
            .with_fault_domains(FaultDomainTree::racks(&[0, 1, 2, 3, 4, 5], 2))?)
    }

    #[test]
    fn evacuates_live_primaries_to_least_loaded_survivors() -> TestResult {
        let p = placement()?;
        let rack0 = p.domain_of(0).ok_or("node 0 has no fault domain")?;
        let alive = vec![true; 6];
        let moves = plan_evacuation(&p, &[rack0], &alive)?;
        // Primaries on nodes 0 and 1 (tasks 0, 4 on node 0; 1, 5 on 1).
        let primaries: Vec<_> = moves
            .iter()
            .filter(|m| m.role == MoveRole::Primary)
            .collect();
        assert_eq!(primaries.len(), 4);
        for m in &primaries {
            assert!(m.to == 2 || m.to == 3, "destination outside rack 0: {m:?}");
        }
        // Load balance: the 4 evacuees split 2 / 2 across nodes 2 and 3.
        let to2 = primaries.iter().filter(|m| m.to == 2).count();
        assert_eq!(to2, 2, "evacuees spread, not piled: {primaries:?}");
        // No standby lives in rack 0, so no standby moves.
        assert!(moves.iter().all(|m| m.role == MoveRole::Primary));
        Ok(())
    }

    #[test]
    fn dead_primaries_stay_but_dead_standbys_are_rehomed() -> TestResult {
        // 4 workers + 4 standbys, racks of 2: worker racks {0,1} {2,3},
        // standby racks {4,5} {6,7}.
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 4, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        b.connect(s, m, Partitioning::Merge)?;
        let g = TaskGraph::new(b.build()?);
        let p = Placement::round_robin(&g, 4, 4)?
            .with_fault_domains(FaultDomainTree::racks(&(0..8).collect::<Vec<_>>(), 2))?;
        // Rack {0,1} died: nodes 0 and 1 are dead.
        let rack0 = p.domain_of(0).ok_or("node 0 has no fault domain")?;
        let mut alive = vec![true; 8];
        alive[0] = false;
        alive[1] = false;
        let moves = plan_evacuation(&p, &[rack0], &alive)?;
        // Dead primaries are recovery's business — no primary moves.
        assert!(
            moves.iter().all(|m| m.role == MoveRole::Standby),
            "{moves:?}"
        );

        // Standby rack {4,5} evacuated while dead: its standbys (tasks
        // 0, 4 on node 4; 1, 5 on node 5) re-home to rack {6,7}.
        let rack2 = p.domain_of(4).ok_or("node 4 has no fault domain")?;
        let mut alive = vec![true; 8];
        alive[4] = false;
        alive[5] = false;
        let moves = plan_evacuation(&p, &[rack2], &alive)?;
        assert_eq!(moves.len(), 4, "{moves:?}");
        for m in &moves {
            assert_eq!(m.role, MoveRole::Standby);
            assert!(m.to == 6 || m.to == 7, "{m:?}");
        }
        Ok(())
    }

    #[test]
    fn whole_domain_evacuation_has_no_admission_bound() -> TestResult {
        // 24 tasks on 24 workers (+24 standbys), racks of 12: evacuating
        // one rack plans every hosted primary in a single round — nothing
        // caps how much state ships per epoch. This is the executable
        // expectation for the ROADMAP's migration-admission-control
        // follow-on: an admission bound would split these 12 moves across
        // rounds.
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 12, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 12, 1.0));
        b.connect(s, m, Partitioning::OneToOne)?;
        let g = TaskGraph::new(b.build()?);
        let p = Placement::round_robin(&g, 24, 24)?
            .with_fault_domains(FaultDomainTree::racks(&(0..24).collect::<Vec<_>>(), 12))?;
        let rack0 = p.domain_of(0).ok_or("node 0 has no fault domain")?;
        let moves = plan_evacuation(&p, &[rack0], &[true; 48])?;
        assert_eq!(moves.len(), 12, "every hosted primary moves at once");
        assert!(moves.iter().all(|mv| mv.role == MoveRole::Primary));
        // The 12 evacuees spread one-per-node over the surviving workers.
        let mut load = [0usize; 24];
        for mv in &moves {
            load[mv.to] += 1;
        }
        assert!((12..24).all(|n| load[n] == 1), "{moves:?}");
        Ok(())
    }

    #[test]
    fn move_counts_splits_roles() -> TestResult {
        let p = placement()?;
        let rack0 = p.domain_of(0).ok_or("node 0 has no fault domain")?;
        let moves = plan_evacuation(&p, &[rack0], &[true; 6])?;
        let (primaries, standbys) = move_counts(&moves);
        assert_eq!(primaries, 4);
        assert_eq!(standbys, 0);
        assert_eq!(move_counts(&[]), (0, 0));
        Ok(())
    }

    #[test]
    fn no_fault_domains_is_a_typed_error() -> TestResult {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 2, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 1, 1.0));
        b.connect(s, m, Partitioning::Merge)?;
        let g = TaskGraph::new(b.build()?);
        let bare = Placement::round_robin(&g, 2, 1)?;
        assert_eq!(
            plan_evacuation(&bare, &[DomainId(1)], &[true; 3]).unwrap_err(),
            PlacementError::NoFaultDomains
        );
        Ok(())
    }
}
