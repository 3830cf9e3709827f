//! Structure-aware planning (§IV-C): decompose the topology into *full* and
//! *structured* sub-topologies (Algorithm 5's split step), plan each with a
//! dedicated algorithm (Algorithms 3 and 4), and combine expansions by
//! profit density.

mod aware;
mod full;
mod structured;
mod units;

pub use aware::StructureAwarePlanner;

use crate::model::{OperatorId, Partitioning, Topology};

/// The two sub-topology classes of §IV-C.
///
/// * `Full` — every operator partitions its output with `Full`.
/// * `Structured` — no internal edge uses `Full` (only the sub-topology's
///   output operators may partition with `Full`, toward the next
///   sub-topology).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SubKind {
    Structured,
    Full,
}

/// One sub-topology produced by [`decompose`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct SubTopology {
    pub(crate) kind: SubKind,
    /// Member operators, ascending by id.
    pub(crate) ops: Vec<OperatorId>,
}

/// Splits a topology into full/structured sub-topologies with multiple
/// upstream DFS passes starting from the sink operators (§IV-C3).
///
/// Starting from each start point, the DFS absorbs upstream operators whose
/// connecting edge is compatible with the sub-topology's kind (`Full` edges
/// for full sub-topologies, non-`Full` edges for structured ones);
/// incompatible upstream operators become new start points. Every operator
/// is claimed by exactly one sub-topology. Sub-topologies are returned in
/// discovery order (sink-side first).
pub(super) fn decompose(topology: &Topology) -> Vec<SubTopology> {
    let n = topology.n_operators();
    let mut claimed = vec![false; n];
    let mut start_points: Vec<OperatorId> = topology.sinks();
    let mut subs = Vec::new();

    let mut sp_head = 0;
    while sp_head < start_points.len() {
        let os = start_points[sp_head];
        sp_head += 1;
        if claimed[os.0] {
            continue;
        }

        // Kind from the partitioning of the start operator's input edges:
        // all-Full inputs seed a full sub-topology, anything else (including
        // a pure source) seeds a structured one.
        let in_edges = topology.input_edges(os);
        let kind = if !in_edges.is_empty()
            && in_edges
                .iter()
                .all(|&e| topology.edge(e).partitioning == Partitioning::Full)
        {
            SubKind::Full
        } else {
            SubKind::Structured
        };

        claimed[os.0] = true;
        let mut ops = vec![os];
        let mut stack = vec![os];
        while let Some(o) = stack.pop() {
            for &e in topology.input_edges(o) {
                let edge = topology.edge(e);
                let up = edge.from;
                let compatible = match kind {
                    SubKind::Full => edge.partitioning == Partitioning::Full,
                    SubKind::Structured => edge.partitioning != Partitioning::Full,
                };
                if claimed[up.0] {
                    continue;
                }
                if compatible {
                    claimed[up.0] = true;
                    ops.push(up);
                    stack.push(up);
                } else {
                    start_points.push(up);
                }
            }
        }
        ops.sort();
        subs.push(SubTopology { kind, ops });
    }
    subs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{OperatorSpec, TopologyBuilder};

    #[test]
    fn all_full_topology_is_one_full_sub() {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 2, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 3, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 2, 1.0));
        b.connect(s, m, Partitioning::Full).unwrap();
        b.connect(m, k, Partitioning::Full).unwrap();
        let t = b.build().unwrap();
        let subs = decompose(&t);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].kind, SubKind::Full);
        assert_eq!(subs[0].ops.len(), 3);
    }

    #[test]
    fn all_structured_topology_is_one_structured_sub() {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 4, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 1, 1.0));
        b.connect(s, m, Partitioning::Merge).unwrap();
        b.connect(m, k, Partitioning::Merge).unwrap();
        let t = b.build().unwrap();
        let subs = decompose(&t);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].kind, SubKind::Structured);
    }

    #[test]
    fn mixed_topology_splits_at_full_boundary() {
        // Fig. 4 style: structured upstream half feeding a downstream half
        // through a Full edge.
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("O1", 4, 10.0));
        let o2 = b.add_operator(OperatorSpec::map("O2", 2, 1.0));
        let o3 = b.add_operator(OperatorSpec::map("O3", 2, 1.0));
        let o4 = b.add_operator(OperatorSpec::map("O4", 3, 1.0));
        let o5 = b.add_operator(OperatorSpec::map("O5", 1, 1.0));
        b.connect(s, o2, Partitioning::Merge).unwrap();
        b.connect(o2, o3, Partitioning::OneToOne).unwrap();
        b.connect(o3, o4, Partitioning::Full).unwrap();
        b.connect(o4, o5, Partitioning::Merge).unwrap();
        let t = b.build().unwrap();
        let subs = decompose(&t);
        assert_eq!(subs.len(), 2);
        // Sink-side sub first: {O4, O5} structured (O4->O5 is merge).
        assert_eq!(subs[0].ops, vec![OperatorId(3), OperatorId(4)]);
        assert_eq!(subs[0].kind, SubKind::Structured);
        // Upstream sub: {O1, O2, O3}.
        assert_eq!(
            subs[1].ops,
            vec![OperatorId(0), OperatorId(1), OperatorId(2)]
        );
        assert_eq!(subs[1].kind, SubKind::Structured);
    }

    #[test]
    fn full_tail_is_detected() {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 2, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 2, 1.0));
        b.connect(s, m, Partitioning::OneToOne).unwrap();
        b.connect(m, k, Partitioning::Full).unwrap();
        let t = b.build().unwrap();
        let subs = decompose(&t);
        assert_eq!(subs.len(), 2);
        assert_eq!(
            subs[0].kind,
            SubKind::Full,
            "sink with full input seeds a full sub"
        );
        // The mid operator partitions its output with Full, so it belongs
        // to the full sub-topology too.
        assert_eq!(subs[0].ops, vec![OperatorId(1), OperatorId(2)]);
        assert_eq!(subs[1].kind, SubKind::Structured);
        assert_eq!(subs[1].ops, vec![OperatorId(0)]);
    }

    #[test]
    fn every_operator_is_claimed_exactly_once() {
        let mut b = TopologyBuilder::new();
        let s1 = b.add_operator(OperatorSpec::source("s1", 2, 10.0));
        let s2 = b.add_operator(OperatorSpec::source("s2", 2, 10.0));
        let j = b.add_operator(OperatorSpec::join("j", 2, 1.0));
        let k = b.add_operator(OperatorSpec::map("k", 2, 1.0));
        b.connect(s1, j, Partitioning::Full).unwrap();
        b.connect(s2, j, Partitioning::OneToOne).unwrap();
        b.connect(j, k, Partitioning::OneToOne).unwrap();
        let t = b.build().unwrap();
        let subs = decompose(&t);
        let mut seen = vec![0usize; t.n_operators()];
        for sub in &subs {
            for op in &sub.ops {
                seen[op.0] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "claim counts: {seen:?}");
    }
}
