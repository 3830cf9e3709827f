//! Operator-level topology DAG and its validating builder.

use super::{EdgeId, OperatorId, OperatorSpec, Partitioning};
use crate::error::{CoreError, Result};

/// A directed operator-level edge carrying a partitioned stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub from: OperatorId,
    pub to: OperatorId,
    pub partitioning: Partitioning,
}

/// A validated operator-level query topology (a DAG, §II-A).
///
/// Construct via [`TopologyBuilder`]; a constructed `Topology` is guaranteed
/// acyclic, with at least one source and one sink, and with every edge's
/// partitioning compatible with the parallelism of its endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    operators: Vec<OperatorSpec>,
    edges: Vec<Edge>,
    /// Incoming edge ids per operator, ordered by insertion.
    inputs: Vec<Vec<EdgeId>>,
    /// Outgoing edge ids per operator, ordered by insertion.
    outputs: Vec<Vec<EdgeId>>,
    /// Operators in a topological order (sources first).
    topo_order: Vec<OperatorId>,
}

impl Topology {
    pub fn operators(&self) -> &[OperatorSpec] {
        &self.operators
    }

    pub fn operator(&self, id: OperatorId) -> &OperatorSpec {
        &self.operators[id.0]
    }

    pub fn n_operators(&self) -> usize {
        self.operators.len()
    }

    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    pub(crate) fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.0]
    }

    /// Ids of the edges feeding `op`, in insertion order. Each incoming edge
    /// corresponds to one *input stream* of the operator's tasks.
    pub(crate) fn input_edges(&self, op: OperatorId) -> &[EdgeId] {
        &self.inputs[op.0]
    }

    /// Ids of the edges leaving `op`, in insertion order.
    pub(crate) fn output_edges(&self, op: OperatorId) -> &[EdgeId] {
        &self.outputs[op.0]
    }

    pub(crate) fn is_source(&self, op: OperatorId) -> bool {
        self.inputs[op.0].is_empty()
    }

    pub(crate) fn is_sink(&self, op: OperatorId) -> bool {
        self.outputs[op.0].is_empty()
    }

    /// Source operators (no input edges).
    pub(crate) fn sources(&self) -> Vec<OperatorId> {
        (0..self.operators.len())
            .map(OperatorId)
            .filter(|&o| self.is_source(o))
            .collect()
    }

    /// Sink operators (no output edges); these produce the final outputs.
    pub fn sinks(&self) -> Vec<OperatorId> {
        (0..self.operators.len())
            .map(OperatorId)
            .filter(|&o| self.is_sink(o))
            .collect()
    }

    /// Operators in topological order, sources first.
    pub(crate) fn topo_order(&self) -> &[OperatorId] {
        &self.topo_order
    }

    /// Total number of tasks across all operators.
    pub fn n_tasks(&self) -> usize {
        self.operators.iter().map(|o| o.parallelism).sum()
    }
}

/// Fluent builder for [`Topology`]; validation happens in [`Self::build`]
/// and (for arity) eagerly in [`Self::connect`].
#[derive(Debug, Default, Clone)]
pub struct TopologyBuilder {
    operators: Vec<OperatorSpec>,
    edges: Vec<Edge>,
}

impl TopologyBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an operator and returns its id.
    pub fn add_operator(&mut self, spec: OperatorSpec) -> OperatorId {
        self.operators.push(spec);
        OperatorId(self.operators.len() - 1)
    }

    /// Connects `from` to `to` with the given partitioning, validating the
    /// arity constraint immediately.
    pub fn connect(
        &mut self,
        from: OperatorId,
        to: OperatorId,
        partitioning: Partitioning,
    ) -> Result<EdgeId> {
        if from.0 >= self.operators.len() {
            return Err(CoreError::UnknownOperator(from.0));
        }
        if to.0 >= self.operators.len() {
            return Err(CoreError::UnknownOperator(to.0));
        }
        if from == to {
            return Err(CoreError::SelfEdge(from.0));
        }
        if self.edges.iter().any(|e| e.from == from && e.to == to) {
            return Err(CoreError::DuplicateEdge {
                from: from.0,
                to: to.0,
            });
        }
        let n1 = self.operators[from.0].parallelism;
        let n2 = self.operators[to.0].parallelism;
        if !partitioning.is_compatible(n1, n2) {
            return Err(CoreError::PartitioningArity {
                from: from.0,
                to: to.0,
                scheme: partitioning.name(),
                upstream: n1,
                downstream: n2,
            });
        }
        self.edges.push(Edge {
            from,
            to,
            partitioning,
        });
        Ok(EdgeId(self.edges.len() - 1))
    }

    /// Validates the whole graph and freezes it into a [`Topology`].
    pub fn build(self) -> Result<Topology> {
        let n = self.operators.len();
        if n == 0 {
            return Err(CoreError::NoSource);
        }
        for (i, op) in self.operators.iter().enumerate() {
            if op.parallelism == 0 {
                return Err(CoreError::ZeroParallelism(i));
            }
            if !op.selectivity.is_finite() || op.selectivity <= 0.0 {
                return Err(CoreError::InvalidRate {
                    operator: i,
                    value: op.selectivity,
                });
            }
            if let Some(rate) = op.source_rate {
                if !rate.is_finite() || rate <= 0.0 {
                    return Err(CoreError::InvalidRate {
                        operator: i,
                        value: rate,
                    });
                }
            }
            if !op.weights.validate(op.parallelism) {
                return Err(CoreError::InvalidWeights(i));
            }
        }

        let mut inputs = vec![Vec::new(); n];
        let mut outputs = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            inputs[e.to.0].push(EdgeId(i));
            outputs[e.from.0].push(EdgeId(i));
        }

        // Sources must carry a rate; non-sources must not.
        for (i, op) in self.operators.iter().enumerate() {
            let is_source = inputs[i].is_empty();
            if is_source != op.is_source() {
                return Err(CoreError::SourceRate {
                    operator: i,
                    is_source,
                });
            }
        }
        if !inputs.iter().any(|v| v.is_empty()) {
            return Err(CoreError::NoSource);
        }
        if !outputs.iter().any(|v| v.is_empty()) {
            return Err(CoreError::NoSink);
        }

        // Kahn's algorithm: topological order + cycle detection.
        let mut indegree: Vec<usize> = inputs.iter().map(Vec::len).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut topo_order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            topo_order.push(OperatorId(u));
            for &e in &outputs[u] {
                let v = self.edges[e.0].to.0;
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if topo_order.len() != n {
            return Err(CoreError::CyclicTopology);
        }

        Ok(Topology {
            operators: self.operators,
            edges: self.edges,
            inputs,
            outputs,
            topo_order,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::InputSemantics;

    fn diamond() -> Topology {
        // src -> (a, b) -> join
        let mut b = TopologyBuilder::new();
        let src = b.add_operator(OperatorSpec::source("src", 4, 100.0));
        let a = b.add_operator(OperatorSpec::map("a", 2, 0.5));
        let c = b.add_operator(OperatorSpec::map("b", 4, 0.5));
        let j = b.add_operator(OperatorSpec::join("join", 2, 0.1));
        b.connect(src, a, Partitioning::Merge).unwrap();
        b.connect(src, c, Partitioning::OneToOne).unwrap();
        b.connect(a, j, Partitioning::OneToOne).unwrap();
        b.connect(c, j, Partitioning::Merge).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_a_valid_diamond() {
        let t = diamond();
        assert_eq!(t.n_operators(), 4);
        assert_eq!(t.n_tasks(), 12);
        assert_eq!(t.sources(), vec![OperatorId(0)]);
        assert_eq!(t.sinks(), vec![OperatorId(3)]);
        assert_eq!(t.topo_order()[0], OperatorId(0));
        assert_eq!(t.topo_order()[3], OperatorId(3));
        assert_eq!(
            t.operator(OperatorId(3)).semantics,
            InputSemantics::Correlated
        );
        let from = |e: &EdgeId| t.edge(*e).from;
        let to = |e: &EdgeId| t.edge(*e).to;
        let upstream: Vec<_> = t.input_edges(OperatorId(3)).iter().map(from).collect();
        assert_eq!(upstream, vec![OperatorId(1), OperatorId(2)]);
        let downstream: Vec<_> = t.output_edges(OperatorId(0)).iter().map(to).collect();
        assert_eq!(downstream, vec![OperatorId(1), OperatorId(2)]);
    }

    #[test]
    fn rejects_incompatible_arity() {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 3, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        let err = b.connect(s, m, Partitioning::OneToOne).unwrap_err();
        assert!(matches!(err, CoreError::PartitioningArity { .. }));
        let err = b.connect(s, m, Partitioning::Merge).unwrap_err();
        assert!(matches!(err, CoreError::PartitioningArity { .. }));
    }

    #[test]
    fn rejects_self_and_duplicate_edges() {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 2, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        assert!(matches!(
            b.connect(s, s, Partitioning::OneToOne),
            Err(CoreError::SelfEdge(0))
        ));
        b.connect(s, m, Partitioning::OneToOne).unwrap();
        assert!(matches!(
            b.connect(s, m, Partitioning::Full),
            Err(CoreError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn rejects_missing_source_rate() {
        let mut b = TopologyBuilder::new();
        // A "map" with no inputs is a source without a rate.
        b.add_operator(OperatorSpec::map("m", 2, 1.0));
        assert!(matches!(b.build(), Err(CoreError::SourceRate { .. })));
    }

    #[test]
    fn rejects_source_rate_on_non_source() {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 2, 10.0));
        let m = b.add_operator(OperatorSpec::source("m", 2, 10.0));
        b.connect(s, m, Partitioning::OneToOne).unwrap();
        assert!(matches!(b.build(), Err(CoreError::SourceRate { .. })));
    }

    #[test]
    fn rejects_zero_parallelism_and_bad_selectivity() {
        let mut b = TopologyBuilder::new();
        b.add_operator(OperatorSpec::source("s", 0, 10.0));
        assert!(matches!(b.build(), Err(CoreError::ZeroParallelism(0))));

        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 2, 10.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, -1.0));
        b.connect(s, m, Partitioning::OneToOne).unwrap();
        assert!(matches!(b.build(), Err(CoreError::InvalidRate { .. })));
    }

    #[test]
    fn edge_accessors() {
        let t = diamond();
        assert_eq!(t.input_edges(OperatorId(3)).len(), 2);
        assert_eq!(t.output_edges(OperatorId(0)).len(), 2);
        let e = t.edge(t.input_edges(OperatorId(3))[0]);
        assert_eq!(e.to, OperatorId(3));
    }
}
