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
///
/// Substream rates are kept **receiver-side**, in the order the loss
/// propagation of §III reads them: for each task, its input streams in
/// [`TaskGraph::inputs`] order, each with its `(upstream task, λ)` pairs in
/// `InputStream::substreams` order and its Σλ (Eq. 1's denominator). Each
/// task's Eq. 3 denominator and the sink tasks' `(task, λout)` with their
/// Σ (Eq. 4's denominator) are summed here as well, once per graph, so
/// evaluating a failure set only reads these tables.
#[derive(Debug, Clone)]
pub(crate) struct RateModel {
    /// λout per task.
    task_out: Vec<f64>,
    /// `inputs[t][i]`: the substreams of task `t`'s `i`-th input stream.
    inputs: Vec<Vec<StreamRates>>,
    /// Per task, the sum of its input streams' Σλ: its input rate, and
    /// Eq. 3's denominator.
    input_total: Vec<f64>,
    /// `(task, λout)` of every sink-operator task, in
    /// `TaskGraph::sink_tasks` order.
    sinks: Vec<(TaskIndex, f64)>,
    /// Σ λout over `sinks` (Eq. 4's denominator).
    sink_total: f64,
}

/// The substreams of one input stream, as its receiving task sees them.
#[derive(Debug, Clone)]
pub(crate) struct StreamRates {
    /// `(upstream task, λ)` in `InputStream::substreams` order.
    pub(crate) substreams: Vec<(TaskIndex, f64)>,
    /// Σλ over `substreams` (Eq. 1's denominator).
    pub(crate) total: f64,
}

impl RateModel {
    /// Computes rates for the whole graph in topological order.
    pub(crate) fn compute(graph: &TaskGraph) -> Self {
        let n = graph.n_tasks();
        let topo = graph.topology();
        let mut task_out = vec![0.0; n];
        let mut input_total = vec![0.0; n];

        // Normalized workload shares per operator, reused for splitting.
        let shares: Vec<Vec<f64>> = topo
            .operators()
            .iter()
            .map(|op| op.weights.shares(op.parallelism))
            .collect();

        // The receiver-side table, shaped after `graph.inputs`; each λ is
        // filled in when its sender splits its output, which topological
        // order puts before the receiver's own turn.
        let mut inputs: Vec<Vec<StreamRates>> = (0..n)
            .map(|t| {
                graph
                    .inputs(TaskIndex(t))
                    .iter()
                    .map(|istream| StreamRates {
                        substreams: istream.substreams.iter().map(|&u| (u, 0.0)).collect(),
                        total: 0.0,
                    })
                    .collect()
            })
            .collect();

        for &t in graph.topo_tasks() {
            // Every sender of `t` has had its turn: sum what it takes in.
            for stream in &mut inputs[t.0] {
                let mut total = 0.0;
                for &(_, lambda) in &stream.substreams {
                    total += lambda;
                }
                stream.total = total;
            }
            input_total[t.0] = inputs[t.0].iter().map(|s| s.total).sum();

            let op = graph.operator_of(t);
            let spec = topo.operator(op);
            let out = if let Some(rate) = spec.source_rate {
                rate * spec.parallelism as f64 * shares[op.0][graph.local_index(t)]
            } else {
                spec.selectivity * input_total[t.0]
            };
            task_out[t.0] = out;

            // Split the output among each output stream's targets.
            for ostream in graph.outputs(t) {
                let to_op = ostream.to_op;
                let weight_sum: f64 = ostream
                    .targets
                    .iter()
                    .map(|&d| shares[to_op.0][graph.local_index(d)])
                    .sum();
                for &d in &ostream.targets {
                    let w = shares[to_op.0][graph.local_index(d)];
                    let r = if weight_sum > 0.0 {
                        out * w / weight_sum
                    } else {
                        0.0
                    };
                    // Record it in the downstream task's input stream for
                    // this operator edge.
                    #[expect(
                        clippy::expect_used,
                        reason = "inputs and outputs are two views of the same edge list, built together by TaskGraph::new; a target that does not list its sender is a bug there, not an input error"
                    )]
                    let slot = graph
                        .inputs(d)
                        .iter()
                        .position(|is| is.edge == ostream.edge)
                        .and_then(|si| inputs[d.0][si].substreams.iter_mut().find(|s| s.0 == t))
                        .expect("downstream input stream must list the sender");
                    slot.1 = r;
                }
            }
        }

        let sinks: Vec<(TaskIndex, f64)> = graph
            .sink_tasks()
            .into_iter()
            .map(|t| (t, task_out[t.0]))
            .collect();
        let mut sink_total = 0.0;
        for &(_, rate) in &sinks {
            sink_total += rate;
        }

        RateModel {
            task_out,
            inputs,
            input_total,
            sinks,
            sink_total,
        }
    }

    /// λout of a task.
    pub(crate) fn output_rate(&self, t: TaskIndex) -> f64 {
        self.task_out[t.0]
    }

    /// The input streams of task `t`, in [`TaskGraph::inputs`] order (none
    /// for a source task).
    pub(crate) fn input_streams(&self, t: TaskIndex) -> &[StreamRates] {
        &self.inputs[t.0]
    }

    /// The sum of task `t`'s input streams' Σλ: Eq. 3's denominator.
    pub(crate) fn input_total(&self, t: TaskIndex) -> f64 {
        self.input_total[t.0]
    }

    /// `(task, λout)` of every sink-operator task.
    pub(crate) fn sinks(&self) -> &[(TaskIndex, f64)] {
        &self.sinks
    }

    /// Σ λout over the sink-operator tasks: Eq. 4's denominator.
    pub(crate) fn sink_total(&self) -> f64 {
        self.sink_total
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

    /// λ of the substream `from → to`, read off the receiver's table.
    fn lambda(r: &RateModel, from: TaskIndex, to: TaskIndex) -> f64 {
        let mut found = r
            .input_streams(to)
            .iter()
            .flat_map(|s| &s.substreams)
            .filter(|&&(u, _)| u == from);
        let (_, lambda) = *found.next().expect("`from` feeds `to`");
        assert!(found.next().is_none(), "one substream per task pair");
        lambda
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
            let sum: f64 = (2..5).map(|d| lambda(&r, t, TaskIndex(d))).sum();
            assert!((sum - r.output_rate(t)).abs() < 1e-9);
        }
        // Each receiver's Σλ is what it takes in, and its output rate.
        for d in 2..5 {
            let d = TaskIndex(d);
            let [stream] = r.input_streams(d) else {
                panic!("one input stream")
            };
            let sum: f64 = stream.substreams.iter().map(|&(_, l)| l).sum();
            assert!((stream.total - sum).abs() < 1e-9);
            assert!((r.input_total(d) - r.output_rate(d)).abs() < 1e-9);
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
        assert!((lambda(&r, t0, TaskIndex(1)) - 75.0).abs() < 1e-9);
        assert!((lambda(&r, t0, TaskIndex(2)) - 25.0).abs() < 1e-9);
        // Downstream output rates reflect the skew.
        assert!((r.output_rate(TaskIndex(1)) - 75.0).abs() < 1e-9);
        assert!((r.output_rate(TaskIndex(2)) - 25.0).abs() < 1e-9);
        // Both are sinks: Eq. 4 weighs them 3 : 1.
        assert_eq!(r.sinks(), [(TaskIndex(1), 75.0), (TaskIndex(2), 25.0)]);
        assert!((r.sink_total() - 100.0).abs() < 1e-9);
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
}
