//! Unit splitting and segment enumeration for structured sub-topologies
//! (§IV-C1).
//!
//! A structured sub-topology can still hold very many MC-trees; the paper
//! splits it into *units* so that within a unit the number of segments stays
//! close to the number of input substreams. Unit boundaries are placed on:
//!
//! * every internal `Merge` edge whose downstream operator also `Split`s its
//!   output (the multi-input × multi-output case of Fig. 3(a));
//! * every internal `Merge` edge into a correlated-input (join) operator
//!   with more than one input stream (the Fig. 3(b) case).
//!
//! Units are the connected components left after cutting those edges; a
//! *segment* is an MC-tree of the unit's internal task graph.

use crate::model::{EdgeId, InputSemantics, OperatorId, Partitioning, TaskGraph, TaskSet};
// Membership-only sets below keep HashSet for O(1) probes; everything
// whose iteration order reaches a UnitGraph is a BTreeSet.
#[expect(
    clippy::disallowed_types,
    reason = "HashSet uses below are membership-only or explicitly allowed"
)]
use std::collections::{BTreeSet, HashSet};

/// One unit of a structured sub-topology.
#[derive(Debug, Clone)]
pub(crate) struct Unit {
    /// Segments (unit-local MC-trees) as task sets, with their weight
    /// (sum of λout over the segment's unit-sink tasks) used for ranking.
    pub(crate) segments: Vec<(TaskSet, f64)>,
}

/// The units of one structured sub-topology.
#[derive(Debug, Clone)]
pub(crate) struct UnitGraph {
    pub(crate) units: Vec<Unit>,
}

impl UnitGraph {
    /// Builds the unit graph of the sub-topology consisting of `ops`,
    /// optionally treating joins as unions (see
    /// [`crate::mctree::enumerate_mc_trees_with`]).
    ///
    /// `cap` truncates the per-unit segment enumeration (segments
    /// are kept in descending weight order, so truncation keeps the most
    /// valuable ones).
    pub(crate) fn build_with(
        graph: &TaskGraph,
        rates: &crate::rates::RateModel,
        ops: &[OperatorId],
        cap: usize,
        joins_as_union: bool,
    ) -> UnitGraph {
        let topo = graph.topology();
        #[expect(
            clippy::disallowed_types,
            reason = "membership probes only; never iterated"
        )]
        let member: HashSet<usize> = ops.iter().map(|o| o.0).collect();

        // Internal edges of the sub-topology.
        let internal: Vec<EdgeId> = (0..topo.edges().len())
            .map(EdgeId)
            .filter(|&e| {
                let edge = topo.edge(e);
                member.contains(&edge.from.0) && member.contains(&edge.to.0)
            })
            .collect();

        // Cut edges per the two boundary rules.
        let cut: BTreeSet<usize> = internal
            .iter()
            .filter(|&&e| {
                let edge = topo.edge(e);
                if edge.partitioning != Partitioning::Merge {
                    return false;
                }
                let x = edge.to;
                let splits_out = topo.output_edges(x).iter().any(|&oe| {
                    let out = topo.edge(oe);
                    member.contains(&out.to.0) && out.partitioning == Partitioning::Split
                });
                let is_join = topo.operator(x).semantics == InputSemantics::Correlated
                    && topo.input_edges(x).len() > 1;
                splits_out || is_join
            })
            .map(|e| e.0)
            .collect();

        // Connected components over non-cut internal edges.
        let mut comp: Vec<Option<usize>> = vec![None; topo.n_operators()];
        let mut units_ops: Vec<Vec<OperatorId>> = Vec::new();
        for &start in ops {
            if comp[start.0].is_some() {
                continue;
            }
            let id = units_ops.len();
            let mut stack = vec![start];
            comp[start.0] = Some(id);
            let mut members = vec![start];
            while let Some(o) = stack.pop() {
                for &e in &internal {
                    if cut.contains(&e.0) {
                        continue;
                    }
                    let edge = topo.edge(e);
                    let next = if edge.from == o {
                        Some(edge.to)
                    } else if edge.to == o {
                        Some(edge.from)
                    } else {
                        None
                    };
                    if let Some(next) = next {
                        if comp[next.0].is_none() {
                            comp[next.0] = Some(id);
                            members.push(next);
                            stack.push(next);
                        }
                    }
                }
            }
            members.sort();
            units_ops.push(members);
        }

        let units = units_ops
            .into_iter()
            .map(|unit_ops| {
                let mut segments =
                    enumerate_unit_segments(graph, rates, &unit_ops, cap, joins_as_union);
                segments.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                segments.truncate(cap);
                Unit { segments }
            })
            .collect();

        UnitGraph { units }
    }
}

/// Enumerates the segments (unit-local MC-trees) of the task subgraph
/// induced by `ops`, together with each segment's weight.
///
/// Leaves are tasks with no upstream inside the unit; roots are tasks of
/// operators with no downstream inside the unit. The enumeration mirrors
/// [`crate::mctree::enumerate_mc_trees`] but is truncated (never erroring)
/// at `cap` partial trees per task, since segments feed a heuristic.
pub(crate) fn enumerate_unit_segments(
    graph: &TaskGraph,
    rates: &crate::rates::RateModel,
    ops: &[OperatorId],
    cap: usize,
    joins_as_union: bool,
) -> Vec<(TaskSet, f64)> {
    let topo = graph.topology();
    #[expect(
        clippy::disallowed_types,
        reason = "membership probes only; never iterated"
    )]
    let member: HashSet<usize> = ops.iter().map(|o| o.0).collect();
    let n = graph.n_tasks();
    let mut memo: Vec<Vec<TaskSet>> = vec![Vec::new(); n];

    // Operators with no downstream inside the unit are the unit sinks.
    #[expect(
        clippy::disallowed_types,
        reason = "membership probes only; never iterated"
    )]
    let unit_sinks: HashSet<usize> = ops
        .iter()
        .filter(|&&o| {
            !topo
                .output_edges(o)
                .iter()
                .any(|&e| member.contains(&topo.edge(e).to.0))
        })
        .map(|o| o.0)
        .collect();

    for &t in graph.topo_tasks() {
        let op = graph.operator_of(t);
        if !member.contains(&op.0) {
            continue;
        }
        let internal_inputs: Vec<_> = graph
            .inputs(t)
            .iter()
            .filter(|is| member.contains(&is.from_op.0))
            .collect();
        if internal_inputs.is_empty() {
            memo[t.0] = vec![TaskSet::from_tasks(n, [t])];
            continue;
        }
        let correlated = !joins_as_union
            && topo.operator(op).semantics == InputSemantics::Correlated
            && internal_inputs.len() > 1;
        let mut partials: Vec<TaskSet> = Vec::new();
        if correlated {
            let mut acc: Vec<TaskSet> = vec![TaskSet::from_tasks(n, [t])];
            for istream in &internal_inputs {
                let mut next = Vec::new();
                'outer: for base in &acc {
                    for &s in &istream.substreams {
                        for sub in &memo[s.0] {
                            next.push(base.union(sub));
                            if next.len() >= cap {
                                break 'outer;
                            }
                        }
                    }
                }
                acc = dedup(next);
            }
            partials = acc;
        } else {
            'outer: for istream in &internal_inputs {
                for &s in &istream.substreams {
                    for sub in &memo[s.0] {
                        let mut seg = sub.clone();
                        seg.insert(t);
                        partials.push(seg);
                        if partials.len() >= cap {
                            break 'outer;
                        }
                    }
                }
            }
            partials = dedup(partials);
        }
        memo[t.0] = partials;
    }

    let mut segments: Vec<TaskSet> = Vec::new();
    for &o in ops {
        if !unit_sinks.contains(&o.0) {
            continue;
        }
        for t in graph.op_tasks(OperatorId(o.0)) {
            segments.extend(memo[t.0].iter().cloned());
        }
    }
    let segments = dedup(segments);
    segments
        .into_iter()
        .map(|seg| {
            let weight: f64 = seg
                .iter()
                .filter(|&t| unit_sinks.contains(&graph.operator_of(t).0))
                .map(|t| rates.output_rate(t))
                .sum();
            (seg, weight)
        })
        .collect()
}

fn dedup(sets: Vec<TaskSet>) -> Vec<TaskSet> {
    #[expect(
        clippy::disallowed_types,
        reason = "membership-only dedup; output preserves input order"
    )]
    let mut seen = HashSet::with_capacity(sets.len());
    let mut out = Vec::with_capacity(sets.len());
    for s in sets {
        if seen.insert(s.clone()) {
            out.push(s);
        }
    }
    out
}

/// Whether any task edge connects a task of `a` with a task of `b` (in
/// either direction). Used by Algorithm 3's BFS to chain segments of
/// neighbouring units into complete MC-trees.
pub(super) fn sets_connected(graph: &TaskGraph, a: &TaskSet, b: &TaskSet) -> bool {
    for t in a.iter() {
        if graph.downstream_tasks(t).iter().any(|&d| b.contains(d))
            || graph.upstream_tasks(t).iter().any(|&u| b.contains(u))
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{OperatorSpec, TaskIndex, TopologyBuilder};
    use crate::rates::RateModel;

    /// Fig. 3(a): src -(merge)-> X -(split)-> Y. The merge edge is cut
    /// because X has a split output.
    fn fig3a() -> (TaskGraph, RateModel, Vec<OperatorId>) {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("O1", 4, 10.0));
        let x = b.add_operator(OperatorSpec::map("O2", 2, 1.0));
        let y = b.add_operator(OperatorSpec::map("O3", 4, 1.0));
        b.connect(s, x, Partitioning::Merge).unwrap();
        b.connect(x, y, Partitioning::Split).unwrap();
        let g = TaskGraph::new(b.build().unwrap());
        let r = RateModel::compute(&g);
        let ops = vec![OperatorId(0), OperatorId(1), OperatorId(2)];
        (g, r, ops)
    }

    /// The operators a unit's segments cover, ascending.
    fn ops_of(g: &TaskGraph, unit: &Unit) -> Vec<OperatorId> {
        let ops: BTreeSet<OperatorId> = unit
            .segments
            .iter()
            .flat_map(|(seg, _)| seg.iter())
            .map(|t| g.operator_of(t))
            .collect();
        ops.into_iter().collect()
    }

    #[test]
    fn fig3a_merge_before_split_is_cut() {
        let (g, r, ops) = fig3a();
        let ug = UnitGraph::build_with(&g, &r, &ops, 128, false);
        assert_eq!(ug.units.len(), 2, "boundary between O1 and O2");
        // One unit is {O1} alone, the other {O2, O3}.
        let sizes: Vec<usize> = ug.units.iter().map(|u| ops_of(&g, u).len()).collect();
        assert!(sizes.contains(&1) && sizes.contains(&2));
    }

    #[test]
    fn fig3b_merge_into_join_is_cut() {
        // Fig. 3(b): O1 -(merge)-> O3 (join) <-(one-to-one)- O2.
        let mut b = TopologyBuilder::new();
        let o1 = b.add_operator(OperatorSpec::source("O1", 4, 10.0));
        let o2 = b.add_operator(OperatorSpec::source("O2", 2, 10.0));
        let o3 = b.add_operator(OperatorSpec::join("O3", 2, 1.0));
        b.connect(o1, o3, Partitioning::Merge).unwrap();
        b.connect(o2, o3, Partitioning::OneToOne).unwrap();
        let g = TaskGraph::new(b.build().unwrap());
        let r = RateModel::compute(&g);
        let ug = UnitGraph::build_with(
            &g,
            &r,
            &[OperatorId(0), OperatorId(1), OperatorId(2)],
            128,
            false,
        );
        assert_eq!(
            ug.units.len(),
            2,
            "boundary on the merge edge into the join"
        );
        // O1 is alone; O2 and O3 stay together via the one-to-one edge.
        let lone = ug.units.iter().find(|u| ops_of(&g, u).len() == 1).unwrap();
        assert_eq!(ops_of(&g, lone), vec![OperatorId(0)]);
    }

    #[test]
    fn plain_merge_chain_is_one_unit() {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 4, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 1, 1.0));
        b.connect(s, m, Partitioning::Merge).unwrap();
        b.connect(m, k, Partitioning::Merge).unwrap();
        let g = TaskGraph::new(b.build().unwrap());
        let r = RateModel::compute(&g);
        let ug = UnitGraph::build_with(
            &g,
            &r,
            &[OperatorId(0), OperatorId(1), OperatorId(2)],
            128,
            false,
        );
        assert_eq!(ug.units.len(), 1);
        assert_eq!(ug.units[0].segments.len(), 4, "one segment per source path");
    }

    #[test]
    fn segments_of_source_only_unit_are_single_tasks() {
        let (g, r, ops) = fig3a();
        let ug = UnitGraph::build_with(&g, &r, &ops, 128, false);
        let source_unit = ug.units.iter().find(|u| ops_of(&g, u).len() == 1).unwrap();
        assert_eq!(source_unit.segments.len(), 4);
        for (seg, w) in &source_unit.segments {
            assert_eq!(seg.len(), 1);
            assert!(*w > 0.0);
        }
    }

    #[test]
    fn segments_are_ranked_by_weight() {
        let (g, r, ops) = fig3a();
        let ug = UnitGraph::build_with(&g, &r, &ops, 128, false);
        for unit in &ug.units {
            for pair in unit.segments.windows(2) {
                assert!(
                    pair[0].1 >= pair[1].1,
                    "segments sorted by descending weight"
                );
            }
        }
    }

    #[test]
    fn sets_connected_detects_edges() {
        let (g, _r, _ops) = fig3a();
        let src0 = TaskSet::from_tasks(g.n_tasks(), [TaskIndex(0)]);
        let x0 = TaskSet::from_tasks(g.n_tasks(), [TaskIndex(4)]);
        let x1 = TaskSet::from_tasks(g.n_tasks(), [TaskIndex(5)]);
        assert!(sets_connected(&g, &src0, &x0), "source 0 feeds X task 0");
        assert!(
            !sets_connected(&g, &src0, &x1),
            "source 0 does not feed X task 1"
        );
    }
}
