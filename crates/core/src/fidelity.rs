//! The operator output-loss model and the **Output Fidelity (OF)** metric of
//! §III, plus the **Internal Completeness (IC)** baseline metric of
//! Bellavista et al. (EDBT'14) used in the Fig. 12 comparison.
//!
//! Given a set of failed tasks, information loss (IL) propagates from the
//! failures to the sink operator:
//!
//! * **Eq. 1** — the loss of an input stream is the rate-weighted average of
//!   the losses of its substreams;
//! * **Eq. 2** — a *correlated-input* (join) task's output loss treats the
//!   effective input as the Cartesian product of its input streams:
//!   `ILout = 1 − Π_j (1 − ILin_j)`;
//! * **Eq. 3** — an *independent-input* task's output loss is the
//!   rate-weighted average of its input-stream losses;
//! * **Eq. 4** — `OF = 1 − Σ λout_i·ILout_i / Σ λout_i` over the tasks of
//!   the sink operators.
//!
//! IC is the identical propagation with every operator treated as
//! independent-input — precisely the "fundamental difference" the paper
//! calls out: IC ignores the correlation of a task's input streams.

use crate::model::{InputSemantics, TaskGraph, TaskIndex, TaskSet};
use crate::rates::{RateModel, StreamRates};

/// Output-loss propagation and OF/IC evaluation over one task graph.
///
/// The model borrows the graph and rates; it is cheap to construct and to
/// copy around. Eq. 1–3 live in one place, the per-task step of the
/// propagation pass, which walks the tasks in topological order and reads
/// the receiver-side rate table of `RateModel`; Eq. 4 is the sink sum. A
/// one-off evaluation (`output_fidelity`, `of_plan`, …) is a full pass,
/// `O(tasks + substreams)`, into a fresh loss vector.
///
/// A planner scores many failure sets that differ in a few tasks, so it
/// runs a *delta pass* instead: it keeps the previous call's failed words
/// and losses (an anchor), looks the tasks whose failed bit flipped up in
/// the context's downstream-closure rows (one row of bit words per task,
/// built once per planning context), and recomputes only those tasks'
/// downstream closure. A task outside that closure has its own failed bit
/// and every upstream loss unchanged, and a task's loss is a pure function
/// of those, so its stored value is exactly what a full pass would
/// compute, bit for bit. The sink sum is always recomputed in full, in its
/// original order.
#[derive(Debug, Clone, Copy)]
pub struct FidelityModel<'g> {
    graph: &'g TaskGraph,
    rates: &'g RateModel,
}

/// What a delta pass starts from: the failed words and the per-task losses
/// of the previous pass, the objective they were computed under, and the
/// dirty-mask scratch. Its contents only decide how much a pass
/// recomputes, never what it returns.
#[derive(Debug, Clone)]
pub(crate) struct LossAnchor {
    failed: Vec<u64>,
    loss: Vec<f64>,
    /// Topological positions to recompute, one bit each.
    dirty: Vec<u64>,
    /// `all_independent` of `loss`; `None` before the first pass.
    independent: Option<bool>,
}

impl LossAnchor {
    pub(crate) fn new(n_tasks: usize) -> Self {
        let words = n_tasks.div_ceil(64);
        LossAnchor {
            failed: vec![0; words],
            loss: vec![0.0; n_tasks],
            dirty: vec![0; words],
            independent: None,
        }
    }

    /// Whether a pass has run: only then can the next one be a delta.
    pub(crate) fn primed(&self) -> bool {
        self.independent.is_some()
    }
}

/// Each task's downstream closure, itself included: one row of
/// `n.div_ceil(64)` bit words per task, whose bit `p` is the task at
/// topological position `p`, so a mask of rows is walked in topological
/// order by its set bits.
#[derive(Debug)]
pub(crate) struct DownstreamClosure {
    words: usize,
    rows: Vec<u64>,
}

impl DownstreamClosure {
    pub(crate) fn new(graph: &TaskGraph) -> Self {
        let n = graph.n_tasks();
        let words = n.div_ceil(64);
        let topo = graph.topo_tasks();
        let mut rows = vec![0u64; n * words];
        // Reverse topological order: every downstream row is complete
        // before an upstream one reads it.
        for (p, &t) in topo.iter().enumerate().rev() {
            rows[t.0 * words + p / 64] |= 1 << (p % 64);
            for stream in graph.outputs(t) {
                for &d in &stream.targets {
                    for i in 0..words {
                        rows[t.0 * words + i] |= rows[d.0 * words + i];
                    }
                }
            }
        }
        DownstreamClosure { words, rows }
    }

    fn row(&self, t: usize) -> &[u64] {
        &self.rows[t * self.words..(t + 1) * self.words]
    }
}

impl<'g> FidelityModel<'g> {
    pub(crate) fn new(graph: &'g TaskGraph, rates: &'g RateModel) -> Self {
        FidelityModel { graph, rates }
    }

    /// Output Fidelity (Eq. 4) of the topology when `failed` tasks are down.
    pub fn output_fidelity(&self, failed: &TaskSet) -> f64 {
        self.full_pass(failed.words(), false)
    }

    /// OF of a replication plan under the paper's worst-case correlated
    /// failure: every task *not* in the plan fails (§IV: "there is at least
    /// one failed task in every MC-tree").
    pub(crate) fn of_plan(&self, plan: &TaskSet) -> f64 {
        self.output_fidelity(&plan.complement())
    }

    /// Internal Completeness of the topology when `failed` tasks are down:
    /// same propagation but joins treated as independent-input.
    pub fn internal_completeness(&self, failed: &TaskSet) -> f64 {
        self.full_pass(failed.words(), true)
    }

    /// IC of a replication plan under the worst-case correlated failure.
    pub(crate) fn ic_plan(&self, plan: &TaskSet) -> f64 {
        self.internal_completeness(&plan.complement())
    }

    /// OF (or IC, with `all_independent`) when the tasks of the `failed`
    /// bit words are down, recomputing from `anchor`: with `closure` and an
    /// anchor primed under the same objective, only the downstream closure
    /// of the tasks whose failed bit differs from the anchor's; otherwise
    /// every task. The anchor then holds this call's words and losses.
    pub(crate) fn score_delta(
        &self,
        failed: &[u64],
        all_independent: bool,
        closure: Option<&DownstreamClosure>,
        anchor: &mut LossAnchor,
    ) -> f64 {
        let LossAnchor {
            failed: previous,
            loss,
            dirty,
            independent,
        } = anchor;
        let dirty = match closure {
            Some(closure) if *independent == Some(all_independent) => {
                dirty.fill(0);
                for (i, (&now, &was)) in failed.iter().zip(previous.iter()).enumerate() {
                    let mut flipped = now ^ was;
                    while flipped != 0 {
                        let t = i * 64 + flipped.trailing_zeros() as usize;
                        flipped &= flipped - 1;
                        for (d, &c) in dirty.iter_mut().zip(closure.row(t)) {
                            *d |= c;
                        }
                    }
                }
                Some(&dirty[..])
            }
            _ => None,
        };
        self.propagate(failed, all_independent, dirty, loss);
        previous.copy_from_slice(failed);
        *independent = Some(all_independent);
        self.sink_fidelity(loss)
    }

    /// A full pass into a fresh loss vector.
    fn full_pass(&self, failed: &[u64], all_independent: bool) -> f64 {
        let mut loss = vec![0.0; self.graph.n_tasks()];
        self.propagate(failed, all_independent, None, &mut loss);
        self.sink_fidelity(&loss)
    }

    /// Eq. 4 aggregation over sink-operator tasks given per-task losses.
    fn sink_fidelity(&self, loss: &[f64]) -> f64 {
        let mut weighted = 0.0;
        for &(t, rate) in self.rates.sinks() {
            weighted += rate * loss[t.0];
        }
        let total = self.rates.sink_total();
        if total <= 0.0 {
            // A topology with no output rate conveys no information at all.
            return 0.0;
        }
        1.0 - weighted / total
    }

    /// Writes `ILout` into `loss` for the tasks at the topological
    /// positions set in `dirty` (every task when `None`), in topological
    /// order; the other entries must already hold their values.
    ///
    /// `failed` holds one bit per task; `all_independent` switches Eq. 2
    /// off (the IC baseline).
    fn propagate(
        &self,
        failed: &[u64],
        all_independent: bool,
        dirty: Option<&[u64]>,
        loss: &mut [f64],
    ) {
        let topo = self.graph.topo_tasks();
        match dirty {
            None => {
                for &t in topo {
                    loss[t.0] = self.task_loss(t, failed, all_independent, loss);
                }
            }
            Some(dirty) => {
                for (i, &word) in dirty.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        let t = topo[i * 64 + word.trailing_zeros() as usize];
                        word &= word - 1;
                        loss[t.0] = self.task_loss(t, failed, all_independent, loss);
                    }
                }
            }
        }
    }

    /// Eq. 1–3: the output loss of task `t` from its upstream tasks' losses.
    fn task_loss(&self, t: TaskIndex, failed: &[u64], all_independent: bool, loss: &[f64]) -> f64 {
        if failed[t.0 / 64] & (1 << (t.0 % 64)) != 0 {
            return 1.0;
        }
        let inputs = self.rates.input_streams(t);
        if inputs.is_empty() {
            return 0.0; // healthy source: no loss
        }
        let op = self.graph.topology().operator(self.graph.operator_of(t));
        let correlated =
            !all_independent && op.semantics == InputSemantics::Correlated && inputs.len() > 1;

        // Eq. 1 for one input stream.
        let stream_loss = |stream: &StreamRates| {
            let mut weighted = 0.0;
            for &(s, lambda) in &stream.substreams {
                weighted += lambda * loss[s.0];
            }
            // A stream with no rate carries no information: treat as
            // fully lost so a join over it cannot pretend to be healthy.
            if stream.total > 0.0 {
                weighted / stream.total
            } else {
                1.0
            }
        };

        if correlated {
            // Eq. 2.
            1.0 - inputs.iter().map(|s| 1.0 - stream_loss(s)).product::<f64>()
        } else {
            // Eq. 3.
            let total = self.rates.input_total(t);
            if total > 0.0 {
                inputs.iter().map(|s| stream_loss(s) * s.total).sum::<f64>() / total
            } else {
                1.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{
        OperatorId, OperatorSpec, Partitioning, TaskIndex, TaskWeights, TopologyBuilder,
    };

    /// Every task's `ILout` from a full pass. The vector starts as NaN, so
    /// a task the pass does not write (a healthy source too) shows.
    fn losses(m: &FidelityModel<'_>, failed: &TaskSet, all_independent: bool) -> Vec<f64> {
        let mut loss = vec![f64::NAN; m.graph.n_tasks()];
        m.propagate(failed.words(), all_independent, None, &mut loss);
        loss
    }

    /// The exact Fig. 2 example: O1 {t11:1, t12:2 tuples/s} and
    /// O2 {t21:3, t22:2} feed the single join task t31; t22 fails.
    /// The paper derives ILout31 = 2/5 (correlated) and 1/4 (independent).
    fn fig2(correlated: bool) -> (TaskGraph, RateModel) {
        let mut b = TopologyBuilder::new();
        let o1 = b.add_operator(
            OperatorSpec::source("O1", 2, 1.5).with_weights(TaskWeights::Explicit(vec![1.0, 2.0])),
        );
        let o2 = b.add_operator(
            OperatorSpec::source("O2", 2, 2.5).with_weights(TaskWeights::Explicit(vec![3.0, 2.0])),
        );
        let o3 = if correlated {
            b.add_operator(OperatorSpec::join("O3", 1, 1.0))
        } else {
            b.add_operator(OperatorSpec::map("O3", 1, 1.0))
        };
        b.connect(o1, o3, Partitioning::Merge).unwrap();
        b.connect(o2, o3, Partitioning::Merge).unwrap();
        let g = TaskGraph::new(b.build().unwrap());
        let r = RateModel::compute(&g);
        (g, r)
    }

    #[test]
    fn fig2_correlated_loss_matches_paper() {
        let (g, r) = fig2(true);
        let m = FidelityModel::new(&g, &r);
        let t22 = g.op_tasks(OperatorId(1)).nth(1).unwrap();
        let failed = TaskSet::from_tasks(g.n_tasks(), [t22]);
        let loss = losses(&m, &failed, false);
        let t31 = g.op_tasks(OperatorId(2)).next().unwrap();
        assert!(
            (loss[t31.0] - 0.4).abs() < 1e-12,
            "ILout31 = 2/5, got {}",
            loss[t31.0]
        );
        assert!((m.output_fidelity(&failed) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn fig2_independent_loss_matches_paper() {
        let (g, r) = fig2(false);
        let m = FidelityModel::new(&g, &r);
        let t22 = g.op_tasks(OperatorId(1)).nth(1).unwrap();
        let failed = TaskSet::from_tasks(g.n_tasks(), [t22]);
        let loss = losses(&m, &failed, false);
        let t31 = g.op_tasks(OperatorId(2)).next().unwrap();
        assert!(
            (loss[t31.0] - 0.25).abs() < 1e-12,
            "ILout31 = 1/4, got {}",
            loss[t31.0]
        );
        assert!((m.output_fidelity(&failed) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ic_equals_of_without_joins() {
        let (g, r) = fig2(false);
        let m = FidelityModel::new(&g, &r);
        let failed = TaskSet::from_tasks(g.n_tasks(), [TaskIndex(0), TaskIndex(3)]);
        assert!((m.output_fidelity(&failed) - m.internal_completeness(&failed)).abs() < 1e-12);
    }

    #[test]
    fn ic_overestimates_fidelity_on_joins() {
        let (g, r) = fig2(true);
        let m = FidelityModel::new(&g, &r);
        let t22 = g.op_tasks(OperatorId(1)).nth(1).unwrap();
        let failed = TaskSet::from_tasks(g.n_tasks(), [t22]);
        // IC ignores the correlation and reports the independent value.
        assert!(m.internal_completeness(&failed) > m.output_fidelity(&failed));
        assert!((m.internal_completeness(&failed) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn no_failure_is_perfect_fidelity() {
        let (g, r) = fig2(true);
        let m = FidelityModel::new(&g, &r);
        let none = TaskSet::empty(g.n_tasks());
        assert!((m.output_fidelity(&none) - 1.0).abs() < 1e-12);
        assert!((m.internal_completeness(&none) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_failed_is_zero_fidelity() {
        let (g, r) = fig2(true);
        let m = FidelityModel::new(&g, &r);
        let all = TaskSet::full(g.n_tasks());
        assert_eq!(m.output_fidelity(&all), 0.0);
    }

    #[test]
    fn failed_sink_kills_its_share() {
        // Two sink tasks with equal rates: failing one halves fidelity.
        let mut b = TopologyBuilder::new();
        let s = b.add_operator(OperatorSpec::source("s", 2, 10.0));
        let m_ = b.add_operator(OperatorSpec::map("m", 2, 1.0));
        b.connect(s, m_, Partitioning::OneToOne).unwrap();
        let g = TaskGraph::new(b.build().unwrap());
        let r = RateModel::compute(&g);
        let fm = FidelityModel::new(&g, &r);
        let failed = TaskSet::from_tasks(g.n_tasks(), [g.op_tasks(OperatorId(1)).next().unwrap()]);
        assert!((fm.output_fidelity(&failed) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn of_plan_complements_correctly() {
        let (g, r) = fig2(true);
        let m = FidelityModel::new(&g, &r);
        // Plan replicating everything ⇒ no failures ⇒ OF 1.
        assert!((m.of_plan(&TaskSet::full(g.n_tasks())) - 1.0).abs() < 1e-12);
        // Empty plan ⇒ everything fails ⇒ OF 0.
        assert_eq!(m.of_plan(&TaskSet::empty(g.n_tasks())), 0.0);
    }

    #[test]
    fn join_with_one_dead_stream_loses_everything() {
        let (g, r) = fig2(true);
        let m = FidelityModel::new(&g, &r);
        // Both O2 tasks fail: the whole second input stream is lost, so the
        // join's Cartesian input is empty.
        let failed = TaskSet::from_tasks(
            g.n_tasks(),
            [
                g.op_tasks(OperatorId(1)).next().unwrap(),
                g.op_tasks(OperatorId(1)).nth(1).unwrap(),
            ],
        );
        assert_eq!(m.output_fidelity(&failed), 0.0);
        // The independent counterpart would retain the O1 share.
        assert!(m.internal_completeness(&failed) > 0.0);
    }

    #[test]
    fn loss_is_monotone_in_failures() {
        let (g, r) = fig2(true);
        let m = FidelityModel::new(&g, &r);
        let mut failed = TaskSet::empty(g.n_tasks());
        let mut prev = m.output_fidelity(&failed);
        for t in 0..g.n_tasks() {
            failed.insert(TaskIndex(t));
            let next = m.output_fidelity(&failed);
            assert!(
                next <= prev + 1e-12,
                "fidelity must not increase with more failures"
            );
            prev = next;
        }
    }

    /// The propagation as Eq. 1–3 read before the rate table went
    /// receiver-side: per-call stream vectors, per-call sums and a linear
    /// λ lookup on the sender. The kernel must match it bit for bit.
    fn reference_propagate(
        g: &TaskGraph,
        r: &RateModel,
        failed: &TaskSet,
        all_independent: bool,
    ) -> Vec<f64> {
        let n = g.n_tasks();
        let mut loss = vec![0.0; n];
        for &t in g.topo_tasks() {
            if failed.contains(t) {
                loss[t.0] = 1.0;
                continue;
            }
            let inputs = g.inputs(t);
            if inputs.is_empty() {
                loss[t.0] = 0.0; // healthy source
                continue;
            }
            let op = g.topology().operator(g.operator_of(t));
            let correlated =
                !all_independent && op.semantics == InputSemantics::Correlated && inputs.len() > 1;

            // Eq. 1 per input stream.
            let mut stream_loss = Vec::with_capacity(inputs.len());
            let mut stream_rate = Vec::with_capacity(inputs.len());
            for istream in inputs {
                let mut weighted = 0.0;
                let mut total = 0.0;
                for &s in &istream.substreams {
                    let lambda = sender_lambda(g, r, s, t);
                    weighted += lambda * loss[s.0];
                    total += lambda;
                }
                let il = if total > 0.0 { weighted / total } else { 1.0 };
                stream_loss.push(il);
                stream_rate.push(total);
            }

            loss[t.0] = if correlated {
                // Eq. 2.
                1.0 - stream_loss.iter().map(|il| 1.0 - il).product::<f64>()
            } else {
                // Eq. 3.
                let total: f64 = stream_rate.iter().sum();
                if total > 0.0 {
                    stream_loss
                        .iter()
                        .zip(&stream_rate)
                        .map(|(il, r)| il * r)
                        .sum::<f64>()
                        / total
                } else {
                    1.0
                }
            };
        }
        loss
    }

    /// Eq. 4 over `TaskGraph::sink_tasks`, summed per call.
    fn reference_sink_fidelity(g: &TaskGraph, r: &RateModel, loss: &[f64]) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0.0;
        for t in g.sink_tasks() {
            let rate = r.output_rate(t);
            weighted += rate * loss[t.0];
            total += rate;
        }
        if total <= 0.0 {
            return 0.0;
        }
        1.0 - weighted / total
    }

    /// λ of `from → to` as the sender splits its output: the first output
    /// stream of `from` that reaches `to`, its share of `from`'s λout.
    fn sender_lambda(g: &TaskGraph, r: &RateModel, from: TaskIndex, to: TaskIndex) -> f64 {
        for ostream in g.outputs(from) {
            if ostream.targets.contains(&to) {
                let op = g.topology().operator(ostream.to_op);
                let shares = op.weights.shares(op.parallelism);
                let weight_sum: f64 = ostream
                    .targets
                    .iter()
                    .map(|&d| shares[g.local_index(d)])
                    .sum();
                let w = shares[g.local_index(to)];
                return if weight_sum > 0.0 {
                    r.output_rate(from) * w / weight_sum
                } else {
                    0.0
                };
            }
        }
        0.0
    }

    #[test]
    fn kernel_matches_the_reference_bit_for_bit() {
        use crate::random::{RandomTopologySpec, Skew, TopologyStyle};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let spec = RandomTopologySpec {
            join_fraction: 0.5,
            skew: Skew::Zipf { s: 0.1 },
            style: TopologyStyle::Full,
            ..RandomTopologySpec::default()
        };
        let mut rng = StdRng::seed_from_u64(39);
        let mut joins = 0;
        for _ in 0..40 {
            let g = TaskGraph::new(spec.generate(&mut rng));
            let r = RateModel::compute(&g);
            let m = FidelityModel::new(&g, &r);
            let n = g.n_tasks();
            joins += (0..n)
                .filter(|&t| {
                    let t = TaskIndex(t);
                    let op = g.topology().operator(g.operator_of(t));
                    op.semantics == InputSemantics::Correlated && g.inputs(t).len() > 1
                })
                .count();
            for _ in 0..25 {
                let p: f64 = rng.gen_range(0.0..0.6);
                let failed =
                    TaskSet::from_tasks(n, (0..n).filter(|_| rng.gen_bool(p)).map(TaskIndex));
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for (all_independent, score) in [
                    (false, m.output_fidelity(&failed)),
                    (true, m.internal_completeness(&failed)),
                ] {
                    let want = reference_propagate(&g, &r, &failed, all_independent);
                    assert_eq!(bits(&losses(&m, &failed, all_independent)), bits(&want));
                    let want = reference_sink_fidelity(&g, &r, &want);
                    assert_eq!(score.to_bits(), want.to_bits());
                }
            }
        }
        assert!(joins > 0, "the corpus exercises Eq. 2");
    }
}
