//! Task-to-node placement, mirroring the paper's cluster layout: primary
//! tasks on worker nodes, checkpoints and active replicas on standby nodes.
//!
//! Placement is a first-class subsystem:
//!
//! * [`Placement`] — the concrete task → node assignment, optionally
//!   carrying the cluster's node → fault-domain mapping (a
//!   [`FaultDomainTree`]) so the runtime and the planners can reason about
//!   which tasks share a blast radius;
//! * [`PlacementStrategy`] — how an assignment is chosen: [`RoundRobin`]
//!   (the historical default), [`Packed`] (fill nodes sequentially — the
//!   adversarial baseline), and [`DomainSpread`] (anti-affinity across
//!   fault domains: spread each MC-tree, separate every primary/standby
//!   pair);
//! * [`PlacementError`] — typed validation: malformed placements surface
//!   as errors naming the offending task, not aborts;
//! * [`plan_evacuation`] — migration planning for the control plane: when
//!   a `ControlPolicy` orders tasks off degraded fault domains, this is
//!   the pure where-do-they-go half the engine applies.

mod error;
mod migration;
mod strategy;

pub use error::PlacementError;
pub(crate) use migration::{move_counts, MoveRole};
pub use migration::{plan_evacuation, TaskMove};
pub use strategy::{Cluster, DomainSpread, Packed, PlacementStrategy, RoundRobin};

use ppa_core::PlanContext;
use ppa_core::{TaskGraph, TaskIndex};
use ppa_faults::{DomainId, FaultDomainTree};

/// Identifier of a simulated cluster node.
pub(crate) type NodeId = usize;

/// Placement of a task graph onto a cluster.
///
/// Nodes `0..n_workers` are workers, `n_workers..n_workers+n_standby` are
/// standby nodes. Task `t`'s active replica (if any) and its checkpoint
/// restore target both live on `standby[t]`.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Worker node of each primary task.
    pub primary: Vec<NodeId>,
    /// Standby node of each task (replica host / restore target).
    pub standby: Vec<NodeId>,
    pub n_workers: usize,
    pub n_standby: usize,
    /// The cluster's node → fault-domain mapping, when known. Attached by
    /// [`Placement::with_fault_domains`] (strategies built from a
    /// [`Cluster`] attach it automatically).
    domains: Option<FaultDomainTree>,
}

impl Placement {
    /// Round-robin placement: tasks are dealt across `n_workers` workers in
    /// task order; standbys are dealt across `n_standby` standby nodes.
    pub fn round_robin(
        graph: &TaskGraph,
        n_workers: usize,
        n_standby: usize,
    ) -> Result<Self, PlacementError> {
        if n_workers == 0 {
            return Err(PlacementError::NoWorkers);
        }
        if n_standby == 0 {
            return Err(PlacementError::NoStandby);
        }
        let n = graph.n_tasks();
        Ok(Placement {
            primary: (0..n).map(|t| t % n_workers).collect(),
            standby: (0..n).map(|t| n_workers + t % n_standby).collect(),
            n_workers,
            n_standby,
            domains: None,
        })
    }

    /// Explicit placement. `primary[t]` must be `< n_workers` and
    /// `standby[t]` in `n_workers..n_workers+n_standby`; violations are
    /// reported with the offending task index.
    pub fn explicit(
        primary: Vec<NodeId>,
        standby: Vec<NodeId>,
        n_workers: usize,
        n_standby: usize,
    ) -> Result<Self, PlacementError> {
        if n_workers == 0 {
            return Err(PlacementError::NoWorkers);
        }
        if n_standby == 0 {
            return Err(PlacementError::NoStandby);
        }
        if primary.len() != standby.len() {
            return Err(PlacementError::LengthMismatch {
                primary: primary.len(),
                standby: standby.len(),
            });
        }
        for (task, &node) in primary.iter().enumerate() {
            if node >= n_workers {
                return Err(PlacementError::PrimaryOutOfRange {
                    task,
                    node,
                    n_workers,
                });
            }
        }
        for (task, &node) in standby.iter().enumerate() {
            if !(n_workers..n_workers + n_standby).contains(&node) {
                return Err(PlacementError::StandbyOutOfRange {
                    task,
                    node,
                    n_workers,
                    n_standby,
                });
            }
        }
        Ok(Placement {
            primary,
            standby,
            n_workers,
            n_standby,
            domains: None,
        })
    }

    /// Attaches the cluster's fault-domain hierarchy. Every node the tree
    /// assigns must exist in the cluster; the tree may cover a subset of
    /// the nodes (e.g. workers only), leaving the rest outside any domain.
    pub fn with_fault_domains(mut self, domains: FaultDomainTree) -> Result<Self, PlacementError> {
        let n_nodes = self.n_nodes();
        if let Some(&node) = domains.all_nodes().iter().find(|&&n| n >= n_nodes) {
            return Err(PlacementError::DomainNodeOutOfRange { node, n_nodes });
        }
        self.domains = Some(domains);
        Ok(self)
    }

    /// The attached node → fault-domain mapping, if any.
    pub fn fault_domains(&self) -> Option<&FaultDomainTree> {
        self.domains.as_ref()
    }

    /// The fault domain hosting `node`, when a hierarchy is attached and
    /// covers the node.
    pub fn domain_of(&self, node: NodeId) -> Option<DomainId> {
        self.domains.as_ref()?.domain_of(node)
    }

    /// A planning context whose correlated-failure sets are derived from
    /// this placement's *actual* node → fault-domain mapping (the primaries
    /// hosted under each proper domain form one candidate failure set),
    /// rather than from an assumed worker grouping.
    /// [`PlacementError::NoFaultDomains`] if no hierarchy is attached;
    /// planner-side validation surfaces as [`PlacementError::Planner`].
    pub fn plan_context(
        &self,
        topology: &ppa_core::Topology,
    ) -> Result<PlanContext, PlacementError> {
        let tree = self
            .domains
            .as_ref()
            .ok_or(PlacementError::NoFaultDomains)?;
        Ok(PlanContext::with_fault_domains(
            topology,
            tree,
            &self.primary,
        )?)
    }

    /// Total number of nodes (workers + standby).
    pub fn n_nodes(&self) -> usize {
        self.n_workers + self.n_standby
    }

    /// All worker nodes hosting at least one of the given tasks.
    pub fn nodes_of(&self, tasks: impl IntoIterator<Item = TaskIndex>) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = tasks.into_iter().map(|t| self.primary[t.0]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// All worker nodes that host any primary task — killing these is the
    /// paper's correlated-failure injection (§VI-A).
    pub fn all_primary_nodes(&self) -> Vec<NodeId> {
        let mut nodes = self.primary.clone();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_core::{OperatorSpec, Partitioning, TopologyBuilder};

    fn graph() -> TaskGraph {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 4, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        b.connect(s, m, Partitioning::Merge).unwrap();
        TaskGraph::new(b.build().unwrap())
    }

    #[test]
    fn round_robin_deals_tasks() {
        let g = graph();
        let p = Placement::round_robin(&g, 3, 2).unwrap();
        assert_eq!(p.primary, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(p.standby, vec![3, 4, 3, 4, 3, 4]);
        assert_eq!(p.n_nodes(), 5);
    }

    #[test]
    fn nodes_of_dedups() {
        let g = graph();
        let p = Placement::round_robin(&g, 3, 2).unwrap();
        assert_eq!(p.nodes_of([TaskIndex(0), TaskIndex(3)]), vec![0]);
        assert_eq!(p.all_primary_nodes(), vec![0, 1, 2]);
    }

    #[test]
    fn explicit_validates_ranges_with_task_index() {
        assert_eq!(
            Placement::explicit(vec![0, 5], vec![2, 2], 2, 1).unwrap_err(),
            PlacementError::PrimaryOutOfRange {
                task: 1,
                node: 5,
                n_workers: 2
            }
        );
        assert_eq!(
            Placement::explicit(vec![0], vec![1], 2, 1).unwrap_err(),
            PlacementError::StandbyOutOfRange {
                task: 0,
                node: 1,
                n_workers: 2,
                n_standby: 1
            }
        );
        assert_eq!(
            Placement::explicit(vec![0], vec![2, 2], 2, 1).unwrap_err(),
            PlacementError::LengthMismatch {
                primary: 1,
                standby: 2
            }
        );
        assert_eq!(
            Placement::round_robin(&graph(), 0, 1).unwrap_err(),
            PlacementError::NoWorkers
        );
        assert_eq!(
            Placement::round_robin(&graph(), 1, 0).unwrap_err(),
            PlacementError::NoStandby
        );
    }

    #[test]
    fn fault_domain_attachment_validates_and_maps() {
        let g = graph();
        let p = Placement::round_robin(&g, 3, 2).unwrap();
        // Tree over a node the 5-node cluster does not have.
        let bad = FaultDomainTree::racks(&[0, 9], 2);
        assert_eq!(
            p.clone().with_fault_domains(bad).unwrap_err(),
            PlacementError::DomainNodeOutOfRange {
                node: 9,
                n_nodes: 5
            }
        );
        // Valid tree over all 5 nodes, racks of 2.
        let tree = FaultDomainTree::racks(&[0, 1, 2, 3, 4], 2);
        let p = p.with_fault_domains(tree).unwrap();
        let d0 = p.domain_of(0).unwrap();
        assert_eq!(p.domain_of(1), Some(d0), "nodes 0,1 share a rack");
        assert_ne!(p.domain_of(2), Some(d0));
        // A placement without domains maps no node.
        let bare = Placement::round_robin(&g, 3, 2).unwrap();
        assert_eq!(bare.domain_of(0), None);
    }

    #[test]
    fn plan_context_derives_from_actual_placement() {
        let g = graph();
        // 2 workers, 2 standbys; racks = {0,1} (workers), {2,3} (standbys).
        let p = Placement::round_robin(&g, 2, 2)
            .unwrap()
            .with_fault_domains(FaultDomainTree::racks(&[0, 1, 2, 3], 2))
            .unwrap();
        let topo = {
            let mut b = TopologyBuilder::new();
            let s = b.add_operator(OperatorSpec::source("s", 4, 10.0));
            let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
            b.connect(s, m, Partitioning::Merge).unwrap();
            b.build().unwrap()
        };
        let cx = p.plan_context(&topo).unwrap();
        // Only the worker rack holds primaries, so exactly one failure set
        // (the standby rack's set is empty and dropped).
        assert_eq!(cx.failure_sets().unwrap().len(), 1);
        assert_eq!(cx.failure_sets().unwrap()[0].len(), 6, "all tasks");
        let bare = Placement::round_robin(&g, 2, 2).unwrap();
        assert!(matches!(
            bare.plan_context(&topo),
            Err(PlacementError::NoFaultDomains)
        ));
    }
}
