//! Stream-rate propagation through the task graph.
//!
//! The loss model of §III weights information losses by stream rates
//! (Eq. 1, 3, 4), so every task and substream needs a steady-state rate.
//! Rates are derived from the source rates declared on source operators:
//!
//! * a **source task**'s output rate is `source_rate × parallelism × share`,
//!   where `share` is the task's normalized workload weight (so the mean
//!   per-task rate equals `source_rate` and skew shifts load between tasks);
//! * a **non-source task**'s output rate is `selectivity × Σ input-stream
//!   rates`. The paper uses the Cartesian product as the *effective input*
//!   of a correlated operator only for loss propagation (Eq. 2, which is
//!   rate-free); it never defines a join's output rate, so we use the same
//!   sum rule for both operator kinds (documented in README.md §Design notes);
//! * a task's output stream is copied to every subscribing downstream
//!   operator and split among that operator's tasks proportionally to the
//!   workload weights of the reachable targets.

use crate::model::{TaskGraph, TaskIndex};

/// Steady-state rates for every task and substream of a [`TaskGraph`].
#[derive(Debug, Clone)]
pub(crate) struct RateModel {
    /// λout per task.
    task_out: Vec<f64>,
    /// `substream[t][s][k]`: rate of the substream from task `t` on its
    /// `s`-th output stream to the `k`-th target of that stream.
    substream: Vec<Vec<Vec<f64>>>,
}

impl RateModel {
    /// Computes rates for the whole graph in topological order.
    pub(crate) fn compute(graph: &TaskGraph) -> Self {
        let n = graph.n_tasks();
        let topo = graph.topology();
        let mut task_out = vec![0.0; n];
        let mut substream: Vec<Vec<Vec<f64>>> = vec![Vec::new(); n];

        // Normalized workload shares per operator, reused for splitting.
        let shares: Vec<Vec<f64>> = topo
            .operators()
            .iter()
            .map(|op| op.weights.shares(op.parallelism))
            .collect();

        // Input rate accumulator: per task, per input stream index.
        let mut input_acc: Vec<Vec<f64>> = (0..n)
            .map(|t| vec![0.0; graph.inputs(TaskIndex(t)).len()])
            .collect();

        for &t in graph.topo_tasks() {
            let op = graph.operator_of(t);
            let spec = topo.operator(op);
            let out = if let Some(rate) = spec.source_rate {
                rate * spec.parallelism as f64 * shares[op.0][graph.local_index(t)]
            } else {
                let total_in: f64 = input_acc[t.0].iter().sum();
                spec.selectivity * total_in
            };
            task_out[t.0] = out;

            // Split the output among each output stream's targets.
            let mut streams = Vec::with_capacity(graph.outputs(t).len());
            for ostream in graph.outputs(t) {
                let to_op = ostream.to_op;
                let weight_sum: f64 = ostream
                    .targets
                    .iter()
                    .map(|&d| shares[to_op.0][graph.local_index(d)])
                    .sum();
                let mut rates = Vec::with_capacity(ostream.targets.len());
                for &d in &ostream.targets {
                    let w = shares[to_op.0][graph.local_index(d)];
                    let r = if weight_sum > 0.0 {
                        out * w / weight_sum
                    } else {
                        0.0
                    };
                    rates.push(r);
                    // Accumulate into the downstream task's input stream for
                    // this operator edge.
                    #[expect(
                        clippy::expect_used,
                        reason = "inputs and outputs are two views of the same edge list, built together by TaskGraph::new; a target without the matching input is a bug there, not an input error"
                    )]
                    let si = graph
                        .inputs(d)
                        .iter()
                        .position(|is| is.edge == ostream.edge)
                        .expect("downstream input stream must exist for edge");
                    input_acc[d.0][si] += r;
                }
                streams.push(rates);
            }
            substream[t.0] = streams;
        }

        RateModel {
            task_out,
            substream,
        }
    }

    /// λout of a task.
    pub(crate) fn output_rate(&self, t: TaskIndex) -> f64 {
        self.task_out[t.0]
    }

    /// Rate of the substream from upstream task `from` into downstream task
    /// `to` along the operator edge `edge` (0 if not connected).
    pub(crate) fn substream_rate_between(
        &self,
        graph: &TaskGraph,
        from: TaskIndex,
        to: TaskIndex,
    ) -> f64 {
        for (si, ostream) in graph.outputs(from).iter().enumerate() {
            if let Some(k) = ostream.targets.iter().position(|&d| d == to) {
                return self.substream[from.0][si][k];
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{OperatorSpec, Partitioning, TaskWeights, TopologyBuilder};

    fn chain() -> TaskGraph {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 4, 100.0));
        let m = b.add_operator(OperatorSpec::map("m", 2, 0.5));
        let k = b.add_operator(OperatorSpec::map("k", 1, 1.0));
        b.connect(s, m, Partitioning::Merge).unwrap();
        b.connect(m, k, Partitioning::Merge).unwrap();
        TaskGraph::new(b.build().unwrap())
    }

    #[test]
    fn rates_flow_through_a_merge_chain() {
        let g = chain();
        let r = RateModel::compute(&g);
        // 4 sources at 100 each.
        for t in 0..4 {
            assert!((r.output_rate(TaskIndex(t)) - 100.0).abs() < 1e-9);
        }
        // Each m task merges 2 sources and halves: 0.5 * 200 = 100.
        assert!((r.output_rate(TaskIndex(4)) - 100.0).abs() < 1e-9);
        assert!((r.output_rate(TaskIndex(5)) - 100.0).abs() < 1e-9);
        // Sink: 1.0 * 200 = 200.
        assert!((r.output_rate(TaskIndex(6)) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn substream_rates_sum_to_output_rate() {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 2, 60.0));
        let m = b.add_operator(OperatorSpec::map("m", 3, 1.0));
        b.connect(s, m, Partitioning::Full).unwrap();
        let g = TaskGraph::new(b.build().unwrap());
        let r = RateModel::compute(&g);
        for t in 0..2 {
            let t = TaskIndex(t);
            let sum: f64 = (2..5)
                .map(|d| r.substream_rate_between(&g, t, TaskIndex(d)))
                .sum();
            assert!((sum - r.output_rate(t)).abs() < 1e-9);
        }
    }

    #[test]
    fn skewed_weights_skew_substream_rates() {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 1, 100.0));
        let m = b.add_operator(
            OperatorSpec::map("m", 2, 1.0).with_weights(TaskWeights::Explicit(vec![3.0, 1.0])),
        );
        b.connect(s, m, Partitioning::Full).unwrap();
        let g = TaskGraph::new(b.build().unwrap());
        let r = RateModel::compute(&g);
        let t0 = TaskIndex(0);
        assert!((r.substream_rate_between(&g, t0, TaskIndex(1)) - 75.0).abs() < 1e-9);
        assert!((r.substream_rate_between(&g, t0, TaskIndex(2)) - 25.0).abs() < 1e-9);
        // Downstream output rates reflect the skew.
        assert!((r.output_rate(TaskIndex(1)) - 75.0).abs() < 1e-9);
        assert!((r.output_rate(TaskIndex(2)) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn source_weights_scale_source_rates() {
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(
            OperatorSpec::source("s", 2, 1.5).with_weights(TaskWeights::Explicit(vec![1.0, 2.0])),
        );
        let m = b.add_operator(OperatorSpec::map("m", 1, 1.0));
        b.connect(s, m, Partitioning::Merge).unwrap();
        let g = TaskGraph::new(b.build().unwrap());
        let r = RateModel::compute(&g);
        assert!((r.output_rate(TaskIndex(0)) - 1.0).abs() < 1e-9);
        assert!((r.output_rate(TaskIndex(1)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn substream_rate_between_unconnected_tasks_is_zero() {
        let g = chain();
        let r = RateModel::compute(&g);
        // Source 0 feeds m0 (task 4), not m1 (task 5).
        assert!(r.substream_rate_between(&g, TaskIndex(0), TaskIndex(5)) == 0.0);
        assert!(r.substream_rate_between(&g, TaskIndex(0), TaskIndex(4)) > 0.0);
    }
}
