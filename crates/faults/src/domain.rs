//! Cluster fault domains: the physical containment hierarchy along which
//! failures correlate.
//!
//! A [`FaultDomainTree`] models a cluster as a rooted tree of *domains* —
//! power zone → switch → rack → node, or any other stack of levels, at
//! arbitrary depth. Engine nodes are assigned to leaf domains
//! deterministically, so the same cluster description always yields the
//! same node → domain mapping (the reproduction harness depends on this).
//!
//! Domains are what the generative failure processes in
//! [`crate::process`] draw from: a *burst* kills (a fraction of) the nodes
//! hosted under one domain, a *cascade* spreads from a domain to its
//! siblings. The paper's §VI-A correlated failure — "all worker nodes die
//! simultaneously" — is the degenerate tree whose root is the only domain.

/// Identifier of a simulated cluster node. Mirrors `ppa_engine::NodeId`
/// (this crate sits below the engine in the dependency order, so it
/// re-declares the alias instead of importing it).
pub type NodeId = usize;

/// Index of a domain inside its [`FaultDomainTree`] (root = 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub usize);

/// One domain of the hierarchy.
#[derive(Debug, Clone)]
struct Domain {
    /// Depth in the tree: root = 0.
    level: usize,
    parent: Option<DomainId>,
    children: Vec<DomainId>,
    /// Nodes assigned *directly* to this domain (leaves only).
    nodes: Vec<NodeId>,
}

/// A rooted containment hierarchy of fault domains with engine nodes
/// assigned to its leaves.
///
/// Construct with [`FaultDomainTree::racks`] (the common single-level
/// case), or grow an arbitrary shape with [`FaultDomainTree::new`] +
/// [`FaultDomainTree::add_domain`] + [`FaultDomainTree::assign`].
#[derive(Debug, Clone)]
pub struct FaultDomainTree {
    domains: Vec<Domain>,
}

impl Default for FaultDomainTree {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultDomainTree {
    /// An empty tree holding only the root domain.
    pub fn new() -> Self {
        FaultDomainTree {
            domains: vec![Domain {
                level: 0,
                parent: None,
                children: Vec::new(),
                nodes: Vec::new(),
            }],
        }
    }

    /// The root domain (the whole cluster).
    pub fn root(&self) -> DomainId {
        DomainId(0)
    }

    /// Adds a child domain under `parent` and returns its id.
    pub fn add_domain(&mut self, parent: DomainId) -> DomainId {
        assert!(parent.0 < self.domains.len(), "unknown parent domain");
        let id = DomainId(self.domains.len());
        let level = self.domains[parent.0].level + 1;
        self.domains.push(Domain {
            level,
            parent: Some(parent),
            children: Vec::new(),
            nodes: Vec::new(),
        });
        self.domains[parent.0].children.push(id);
        id
    }

    /// Assigns a node to a domain (typically a leaf). A node may be
    /// assigned at most once; assignment order is part of the cluster
    /// description and therefore deterministic.
    pub fn assign(&mut self, domain: DomainId, node: NodeId) {
        assert!(domain.0 < self.domains.len(), "unknown domain");
        assert!(
            !self.domains.iter().any(|d| d.nodes.contains(&node)),
            "node {node} assigned twice"
        );
        self.domains[domain.0].nodes.push(node);
    }

    /// The common single-level case: `nodes` split into consecutive racks
    /// of `rack_size` (the last rack may be smaller). Consecutive grouping
    /// — not round-robin — so a rack burst kills a *contiguous* slice of
    /// the node range, matching how real placements co-locate neighbours.
    pub fn racks(nodes: &[NodeId], rack_size: usize) -> Self {
        assert!(rack_size > 0, "rack size must be positive");
        let mut tree = FaultDomainTree::new();
        for chunk in nodes.chunks(rack_size) {
            let rack = tree.add_domain(tree.root());
            for &node in chunk {
                tree.assign(rack, node);
            }
        }
        tree
    }

    /// Number of domains, including the root.
    pub fn n_domains(&self) -> usize {
        self.domains.len()
    }

    /// The parent of a domain (`None` for the root).
    pub fn parent_of(&self, domain: DomainId) -> Option<DomainId> {
        self.domains[domain.0].parent
    }

    /// All domains at `level`, in creation order.
    pub fn domains_at_level(&self, level: usize) -> Vec<DomainId> {
        (0..self.domains.len())
            .filter(|&i| self.domains[i].level == level)
            .map(DomainId)
            .collect()
    }

    /// Every domain except the root, in creation order — the candidate
    /// correlated-failure units.
    pub fn proper_domains(&self) -> Vec<DomainId> {
        (1..self.domains.len()).map(DomainId).collect()
    }

    /// The children of a domain, in creation order.
    pub fn children_of(&self, domain: DomainId) -> Vec<DomainId> {
        self.domains[domain.0].children.clone()
    }

    /// All nodes hosted under a domain (its whole subtree), sorted.
    pub fn nodes_under(&self, domain: DomainId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![domain];
        while let Some(d) = stack.pop() {
            out.extend_from_slice(&self.domains[d.0].nodes);
            stack.extend_from_slice(&self.domains[d.0].children);
        }
        out.sort_unstable();
        out
    }

    /// Every node assigned anywhere in the tree, sorted.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        self.nodes_under(self.root())
    }

    /// The deepest domain a node is assigned to, if any.
    pub fn domain_of(&self, node: NodeId) -> Option<DomainId> {
        (0..self.domains.len())
            .find(|&i| self.domains[i].nodes.contains(&node))
            .map(DomainId)
    }

    /// The ancestor of `node`'s domain at `level` (or the domain itself).
    pub fn domain_of_at_level(&self, node: NodeId, level: usize) -> Option<DomainId> {
        let mut d = self.domain_of(node)?;
        while self.domains[d.0].level > level {
            d = self.domains[d.0].parent?;
        }
        (self.domains[d.0].level == level).then_some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    type TestResult = Result<(), Box<dyn Error>>;

    /// A regular tree: 2 zones x 2 racks, nodes 0..8 dealt two per rack
    /// in order.
    fn zoned() -> FaultDomainTree {
        let mut t = FaultDomainTree::new();
        let mut node = 0;
        for _ in 0..2 {
            let zone = t.add_domain(t.root());
            for _ in 0..2 {
                let rack = t.add_domain(zone);
                for _ in 0..2 {
                    t.assign(rack, node);
                    node += 1;
                }
            }
        }
        t
    }

    #[test]
    fn regular_tree_shape_and_assignment() {
        let t = zoned();
        assert_eq!(t.n_domains(), 1 + 2 + 4);
        assert_eq!(t.domains_at_level(1).len(), 2);
        assert_eq!(t.domains_at_level(2).len(), 4);
        assert_eq!(t.all_nodes(), (0..8).collect::<Vec<_>>());
        let racks = t.domains_at_level(2);
        assert_eq!(t.nodes_under(racks[3]), vec![6, 7]);
        // A zone hosts its two racks' nodes.
        let zones = t.domains_at_level(1);
        assert_eq!(t.nodes_under(zones[0]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn racks_group_consecutively() {
        let nodes: Vec<NodeId> = (4..19).collect();
        let t = FaultDomainTree::racks(&nodes, 4);
        let racks = t.domains_at_level(1);
        assert_eq!(racks.len(), 4, "15 nodes in racks of 4 = 4 racks");
        assert_eq!(t.nodes_under(racks[0]), vec![4, 5, 6, 7]);
        assert_eq!(
            t.nodes_under(racks[3]),
            vec![16, 17, 18],
            "last rack is smaller"
        );
    }

    #[test]
    fn domain_lookup_and_siblings() -> TestResult {
        let t = zoned();
        let rack = t.domain_of(0).ok_or("node 0 lives in a rack")?;
        assert_eq!(t.domains_at_level(2)[0], rack);
        let zone = t.domain_of_at_level(0, 1).ok_or("node 0 lives in a zone")?;
        assert_eq!(t.parent_of(rack), Some(zone));
        let siblings = t.children_of(zone);
        assert_eq!(siblings.len(), 2, "rack 0 and its one sibling");
        assert!(siblings.contains(&rack));
        assert_eq!(t.parent_of(t.root()), None);
        assert_eq!(t.domain_of(99), None);
        Ok(())
    }

    #[test]
    #[should_panic]
    fn double_assignment_panics() {
        let mut t = FaultDomainTree::new();
        let d = t.add_domain(t.root());
        t.assign(d, 3);
        t.assign(d, 3);
    }
}
