//! Minimal Complete Trees (Definition 1).
//!
//! An MC-tree is a minimal tree-shaped subgraph of the task DAG whose leaves
//! are source-operator tasks and whose root is a sink-operator task, such
//! that the root keeps producing output iff every task of the tree is alive:
//!
//! * an **independent-input** task needs *one* upstream substream through
//!   exactly one of its input streams (union semantics — any surviving
//!   substream keeps data flowing);
//! * a **correlated-input** task needs one upstream substream from *each* of
//!   its input streams (join semantics — losing a whole input stream stops
//!   all output, cf. the Fig. 1 discussion).
//!
//! Enumeration is exponential in the worst case (`O(M^N)`, §IV-A), so it is
//! guarded by [`McTreeLimits`] and returns [`CoreError::McTreeExplosion`]
//! when the topology is too entangled; callers then fall back to the
//! structure-aware planner, exactly as the paper does for Fig. 14.

use crate::error::{CoreError, Result};
#[cfg(test)]
use crate::model::TaskIndex;
use crate::model::{InputSemantics, TaskGraph, TaskSet};
#[expect(
    clippy::disallowed_types,
    reason = "membership-only dedup below; iteration order never escapes"
)]
use std::collections::HashSet;

/// Guard rails for the exponential enumeration.
#[derive(Debug, Clone, Copy)]
pub struct McTreeLimits {
    /// Maximum number of distinct (partial or complete) trees tolerated at
    /// any point of the enumeration.
    pub max_trees: usize,
}

impl Default for McTreeLimits {
    fn default() -> Self {
        McTreeLimits { max_trees: 200_000 }
    }
}

/// Enumerates every MC-tree of the task graph as a [`TaskSet`].
///
/// Trees are returned in a deterministic order (sorted), deduplicated.
pub fn enumerate_mc_trees(graph: &TaskGraph, limits: McTreeLimits) -> Result<Vec<TaskSet>> {
    enumerate_mc_trees_with(graph, limits, false)
}

/// Like [`enumerate_mc_trees`], but with `joins_as_union = true` every
/// correlated-input operator is treated as independent-input: a "tree" then
/// needs only one input stream through a join. This is what a planner
/// optimizing the IC baseline metric believes the world looks like — the
/// Fig. 12 experiment uses it to show how IC-optimized plans strand joins.
pub fn enumerate_mc_trees_with(
    graph: &TaskGraph,
    limits: McTreeLimits,
    joins_as_union: bool,
) -> Result<Vec<TaskSet>> {
    let n = graph.n_tasks();
    // memo[t] = every partial tree rooted at task t (t plus upstream cover).
    let mut memo: Vec<Vec<TaskSet>> = vec![Vec::new(); n];

    for &t in graph.topo_tasks() {
        let inputs = graph.inputs(t);
        if inputs.is_empty() {
            memo[t.0] = vec![TaskSet::from_tasks(n, [t])];
            continue;
        }
        let op = graph.topology().operator(graph.operator_of(t));
        let correlated =
            !joins_as_union && op.semantics == InputSemantics::Correlated && inputs.len() > 1;

        let mut partials: Vec<TaskSet> = Vec::new();
        if correlated {
            // Cartesian product across input streams: one substream choice
            // (and one of its partial trees) per stream.
            let mut acc: Vec<TaskSet> = vec![TaskSet::from_tasks(n, [t])];
            for istream in inputs {
                let mut next: Vec<TaskSet> = Vec::new();
                for base in &acc {
                    for &s in &istream.substreams {
                        for sub in &memo[s.0] {
                            next.push(base.union(sub));
                            if next.len() > limits.max_trees {
                                return Err(CoreError::McTreeExplosion {
                                    limit: limits.max_trees,
                                });
                            }
                        }
                    }
                }
                acc = dedup(next);
            }
            partials = acc;
        } else {
            // Union semantics: one substream through exactly one stream.
            for istream in inputs {
                for &s in &istream.substreams {
                    for sub in &memo[s.0] {
                        let mut tree = sub.clone();
                        tree.insert(t);
                        partials.push(tree);
                        if partials.len() > limits.max_trees {
                            return Err(CoreError::McTreeExplosion {
                                limit: limits.max_trees,
                            });
                        }
                    }
                }
            }
            partials = dedup(partials);
        }
        memo[t.0] = partials;
    }

    let mut trees: Vec<TaskSet> = Vec::new();
    for t in graph.sink_tasks() {
        trees.extend(memo[t.0].iter().cloned());
        if trees.len() > limits.max_trees {
            return Err(CoreError::McTreeExplosion {
                limit: limits.max_trees,
            });
        }
    }
    let mut trees = dedup(trees);
    trees.sort();
    Ok(trees)
}

/// A lower bound on the size (task count) of the smallest MC-tree, without
/// enumerating trees.
///
/// Used by the structure-aware planner to reject budgets that cannot
/// complete any tree. The bound must be *admissible* (never exceed the true
/// minimum), so joins take the `max` over their input branches rather than
/// the sum — branches may share upstream tasks (diamonds), in which case the
/// sum would overshoot and wrongly reject feasible budgets.
pub fn min_tree_size(graph: &TaskGraph) -> usize {
    let n = graph.n_tasks();
    let mut best: Vec<usize> = vec![usize::MAX; n];
    for &t in graph.topo_tasks() {
        let inputs = graph.inputs(t);
        if inputs.is_empty() {
            best[t.0] = 1;
            continue;
        }
        let op = graph.topology().operator(graph.operator_of(t));
        let correlated = op.semantics == InputSemantics::Correlated && inputs.len() > 1;
        let per_stream_min = |istream: &crate::model::InputStream| {
            istream
                .substreams
                .iter()
                .map(|&s| best[s.0])
                .min()
                .unwrap_or(usize::MAX)
        };
        best[t.0] = if correlated {
            let mut worst_branch = 0usize;
            for istream in inputs {
                let m = per_stream_min(istream);
                if m == usize::MAX {
                    worst_branch = usize::MAX;
                    break;
                }
                worst_branch = worst_branch.max(m);
            }
            worst_branch.saturating_add(1)
        } else {
            inputs
                .iter()
                .map(per_stream_min)
                .min()
                .map(|m| m.saturating_add(1))
                .unwrap_or(usize::MAX)
        };
    }
    graph
        .sink_tasks()
        .into_iter()
        .map(|t| best[t.0])
        .min()
        .unwrap_or(usize::MAX)
}

fn dedup(sets: Vec<TaskSet>) -> Vec<TaskSet> {
    #[expect(
        clippy::disallowed_types,
        reason = "membership-only dedup; output preserves input order"
    )]
    let mut seen: HashSet<TaskSet> = HashSet::with_capacity(sets.len());
    let mut out = Vec::with_capacity(sets.len());
    for s in sets {
        if seen.insert(s.clone()) {
            out.push(s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{OperatorSpec, Partitioning, TopologyBuilder};
    use std::error::Error;

    type TestResult = Result<(), Box<dyn Error>>;

    /// 4 sources -(merge)-> 2 mids -(merge)-> 1 sink: each source picks a
    /// unique path, so there are exactly 4 MC-trees of 3 tasks each.
    fn merge_chain() -> Result<TaskGraph, Box<dyn Error>> {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 4, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 1, 1.0));
        b.connect(s, m, Partitioning::Merge)?;
        b.connect(m, k, Partitioning::Merge)?;
        Ok(TaskGraph::new(b.build()?))
    }

    #[test]
    fn merge_chain_has_one_tree_per_source() -> TestResult {
        let g = merge_chain()?;
        let trees = enumerate_mc_trees(&g, McTreeLimits::default())?;
        assert_eq!(trees.len(), 4);
        for tree in &trees {
            assert_eq!(tree.len(), 3);
            assert!(tree.contains(TaskIndex(6)), "all trees end at the sink");
        }
        Ok(())
    }

    /// 2+2 sources full into a 2-task independent op, full into 1 sink:
    /// trees = (2+2 sources) × 2 mid tasks = 8.
    #[test]
    fn independent_full_topology_counts() -> TestResult {
        let mut b = TopologyBuilder::new();
        let s1 = b.add_operator(OperatorSpec::source("s1", 2, 10.0));
        let s2 = b.add_operator(OperatorSpec::source("s2", 2, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 1, 1.0));
        b.connect(s1, m, Partitioning::Full)?;
        b.connect(s2, m, Partitioning::Full)?;
        b.connect(m, k, Partitioning::Merge)?;
        let g = TaskGraph::new(b.build()?);
        let trees = enumerate_mc_trees(&g, McTreeLimits::default())?;
        assert_eq!(trees.len(), 8);
        for tree in &trees {
            assert_eq!(tree.len(), 3, "source, mid, sink");
        }
        Ok(())
    }

    /// Same shape but the mid operator is a join: each mid task needs one
    /// source from *each* source operator: 2 × 2 × 2 = 8 trees of 4 tasks.
    #[test]
    fn correlated_full_topology_counts() -> TestResult {
        let mut b = TopologyBuilder::new();
        let s1 = b.add_operator(OperatorSpec::source("s1", 2, 10.0));
        let s2 = b.add_operator(OperatorSpec::source("s2", 2, 10.0));
        let m = b.add_operator(OperatorSpec::join("m", 2, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 1, 1.0));
        b.connect(s1, m, Partitioning::Full)?;
        b.connect(s2, m, Partitioning::Full)?;
        b.connect(m, k, Partitioning::Merge)?;
        let g = TaskGraph::new(b.build()?);
        let trees = enumerate_mc_trees(&g, McTreeLimits::default())?;
        assert_eq!(trees.len(), 8);
        for tree in &trees {
            assert_eq!(tree.len(), 4, "one source from each operator, mid, sink");
        }
        Ok(())
    }

    #[test]
    fn explosion_guard_fires() -> TestResult {
        // A full chain: 4 × 4 × 4 × 4 trees = 256 > limit 100.
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 4, 10.0));
        let m1 = b.add_operator(OperatorSpec::map("m1", 4, 1.0));
        let m2 = b.add_operator(OperatorSpec::map("m2", 4, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 4, 1.0));
        b.connect(s, m1, Partitioning::Full)?;
        b.connect(m1, m2, Partitioning::Full)?;
        b.connect(m2, k, Partitioning::Full)?;
        let g = TaskGraph::new(b.build()?);
        let err = enumerate_mc_trees(&g, McTreeLimits { max_trees: 100 }).unwrap_err();
        assert!(matches!(err, CoreError::McTreeExplosion { limit: 100 }));
        // And with a generous limit the count is exactly 4^4.
        let trees = enumerate_mc_trees(&g, McTreeLimits::default())?;
        assert_eq!(trees.len(), 256);
        Ok(())
    }

    #[test]
    fn trees_are_deduplicated_on_shared_sources() -> TestResult {
        // One source task shared by a join's both branches through two maps:
        // src -> a -> j, src -> b -> j. The join's two streams share src, so
        // each tree contains src once.
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 1, 10.0));
        let a = b.add_operator(OperatorSpec::map("a", 1, 1.0));
        let c = b.add_operator(OperatorSpec::map("b", 1, 1.0));
        let j = b.add_operator(OperatorSpec::join("j", 1, 1.0));
        b.connect(s, a, Partitioning::OneToOne)?;
        b.connect(s, c, Partitioning::OneToOne)?;
        b.connect(a, j, Partitioning::OneToOne)?;
        b.connect(c, j, Partitioning::OneToOne)?;
        let g = TaskGraph::new(b.build()?);
        let trees = enumerate_mc_trees(&g, McTreeLimits::default())?;
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].len(), 4);
        Ok(())
    }

    #[test]
    fn min_tree_size_matches_enumeration_on_chains() -> TestResult {
        let g = merge_chain()?;
        let trees = enumerate_mc_trees(&g, McTreeLimits::default())?;
        let min = trees.iter().map(TaskSet::len).min().ok_or("no trees")?;
        assert_eq!(min_tree_size(&g), min, "exact on join-free topologies");
        Ok(())
    }

    #[test]
    fn min_tree_size_is_an_admissible_bound_for_joins() -> TestResult {
        let mut b = TopologyBuilder::new();
        let s1 = b.add_operator(OperatorSpec::source("s1", 2, 10.0));
        let s2 = b.add_operator(OperatorSpec::source("s2", 2, 10.0));
        let j = b.add_operator(OperatorSpec::join("j", 1, 1.0));
        b.connect(s1, j, Partitioning::Merge)?;
        b.connect(s2, j, Partitioning::Merge)?;
        let g = TaskGraph::new(b.build()?);
        let trees = enumerate_mc_trees(&g, McTreeLimits::default())?;
        let true_min = trees.iter().map(TaskSet::len).min().ok_or("no trees")?;
        assert_eq!(true_min, 3);
        let bound = min_tree_size(&g);
        assert!(
            bound <= true_min,
            "bound {bound} must not exceed {true_min}"
        );
        assert!(bound >= 2, "join + one branch at least");
        Ok(())
    }

    #[test]
    fn min_tree_size_bound_holds_on_diamonds() -> TestResult {
        // Shared source between both join branches: the true minimum tree is
        // 4 tasks (src, a, b, j); the sum rule would claim 2+2+1+... > 4.
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 1, 10.0));
        let a = b.add_operator(OperatorSpec::map("a", 1, 1.0));
        let c = b.add_operator(OperatorSpec::map("b", 1, 1.0));
        let j = b.add_operator(OperatorSpec::join("j", 1, 1.0));
        b.connect(s, a, Partitioning::OneToOne)?;
        b.connect(s, c, Partitioning::OneToOne)?;
        b.connect(a, j, Partitioning::OneToOne)?;
        b.connect(c, j, Partitioning::OneToOne)?;
        let g = TaskGraph::new(b.build()?);
        let trees = enumerate_mc_trees(&g, McTreeLimits::default())?;
        let true_min = trees.iter().map(TaskSet::len).min().ok_or("no trees")?;
        assert!(min_tree_size(&g) <= true_min);
        Ok(())
    }

    #[test]
    fn multi_sink_topologies_collect_all_roots() -> TestResult {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 2, 10.0));
        let k1 = b.add_operator(OperatorSpec::map("k1", 2, 1.0));
        let k2 = b.add_operator(OperatorSpec::map("k2", 2, 1.0));
        b.connect(s, k1, Partitioning::OneToOne)?;
        b.connect(s, k2, Partitioning::OneToOne)?;
        let g = TaskGraph::new(b.build()?);
        let trees = enumerate_mc_trees(&g, McTreeLimits::default())?;
        assert_eq!(trees.len(), 4, "2 per sink operator");
        Ok(())
    }
}
