//! Random topology generation for the Fig. 14 experiments (§VI-C).
//!
//! The paper's generator produces topologies "with different specifications":
//! operator count (5–10), per-operator parallelism (1–10 or 10–20), task
//! workload skew (uniform vs Zipf), structured vs full partitioning, and
//! join-operator fraction (0 or 50%). This module reproduces those knobs.
//!
//! Generation is layered: sources in layer 0, one sink in the last layer,
//! every non-source operator drawing one input (two for joins) from earlier
//! layers. Partitioning schemes are sampled to respect the arity rules of
//! §II-A, adjusting downstream parallelism on an operator's first inbound
//! edge and falling back to `Full` when no non-full scheme fits a later
//! inbound edge (only possible for joins in structured mode; rare and
//! harmless for the experiment).

use crate::model::{
    InputSemantics, OperatorId, OperatorSpec, Partitioning, TaskWeights, Topology, TopologyBuilder,
};
use rand::Rng;

/// Workload skew across the tasks of each operator (Fig. 14(a)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Skew {
    Uniform,
    /// Zipf with exponent `s` (the paper uses `s = 0.1`).
    Zipf {
        s: f64,
    },
}

impl Skew {
    /// The weights of an operator with `parallelism` tasks: under Zipf,
    /// task `i` (0-based) gets a share proportional to `1 / (i+1)^s`.
    pub(crate) fn weights(self, parallelism: usize) -> TaskWeights {
        match self {
            Skew::Uniform => TaskWeights::Uniform,
            Skew::Zipf { s } => TaskWeights::Explicit(
                (0..parallelism)
                    .map(|i| 1.0 / ((i + 1) as f64).powf(s))
                    .collect(),
            ),
        }
    }
}

/// Partitioning style of the generated topology (Fig. 14(c)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyStyle {
    /// Only one-to-one / split / merge edges (full only as a last-resort
    /// fallback for join arity conflicts).
    Structured,
    /// Every edge uses full partitioning.
    Full,
    /// Each edge is full with the given probability, structured otherwise.
    Mixed { full_probability: f64 },
}

/// Specification for one random topology.
#[derive(Debug, Clone)]
pub struct RandomTopologySpec {
    /// Inclusive range of operator counts (paper: 5..=10).
    pub n_operators: (usize, usize),
    /// Inclusive range of per-operator parallelism (paper: 1..=10, 10..=20).
    pub parallelism: (usize, usize),
    /// Fraction of eligible operators made correlated-input (paper: 0, 0.5).
    pub join_fraction: f64,
    /// Task workload skew.
    pub skew: Skew,
    /// Partitioning style.
    pub style: TopologyStyle,
    /// Mean per-task rate of source operators.
    pub source_rate: f64,
    /// Inclusive selectivity range for non-source operators.
    pub selectivity: (f64, f64),
}

impl Default for RandomTopologySpec {
    fn default() -> Self {
        RandomTopologySpec {
            n_operators: (5, 10),
            parallelism: (1, 10),
            join_fraction: 0.0,
            skew: Skew::Uniform,
            style: TopologyStyle::Structured,
            source_rate: 1_000.0,
            selectivity: (0.3, 1.0),
        }
    }
}

impl RandomTopologySpec {
    /// Generates one topology from this spec using `rng`.
    pub fn generate(&self, rng: &mut impl Rng) -> Topology {
        loop {
            // Retry on the (rare) occasions the sampled layout fails
            // validation; the generator below is constructed so this should
            // not happen, but a retry loop keeps the API infallible.
            if let Ok(t) = self.try_generate(rng) {
                return t;
            }
        }
    }

    fn try_generate(&self, rng: &mut impl Rng) -> crate::error::Result<Topology> {
        let n_ops = rng
            .gen_range(self.n_operators.0..=self.n_operators.1)
            .max(2);
        let (pmin, pmax) = self.parallelism;

        // Layering: sources, middles, one sink.
        let n_layers = rng.gen_range(2..=4usize.min(n_ops));
        let mut layer_of = vec![0usize; n_ops];
        // Last op is the sink, alone in the last layer.
        layer_of[n_ops - 1] = n_layers - 1;
        // First op(s) in layer 0; the rest spread over 0..n_layers-1.
        for (i, l) in layer_of.iter_mut().enumerate().take(n_ops - 1) {
            *l = if i == 0 {
                0
            } else {
                rng.gen_range(0..n_layers.saturating_sub(1).max(1))
            };
        }

        // Sample parallelism; the sink tends to be narrow in real queries,
        // but we keep the paper's uniform sampling.
        let mut parallelism: Vec<usize> = (0..n_ops).map(|_| rng.gen_range(pmin..=pmax)).collect();

        // Choose join operators among those we will give two inputs.
        let mut is_join = vec![false; n_ops];

        // Edges: (from, to). Built operator by operator in layer order.
        let mut order: Vec<usize> = (0..n_ops).collect();
        order.sort_by_key(|&i| (layer_of[i], i));
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut has_input = vec![false; n_ops];
        let mut has_output = vec![false; n_ops];

        for &i in &order {
            if layer_of[i] == 0 {
                continue; // source
            }
            let candidates: Vec<usize> = (0..n_ops)
                .filter(|&u| layer_of[u] < layer_of[i] && u != i)
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let n_inputs =
                if rng.gen_bool(self.join_fraction.clamp(0.0, 1.0)) && candidates.len() >= 2 {
                    is_join[i] = true;
                    2
                } else {
                    1
                };
            let mut chosen: Vec<usize> = Vec::new();
            while chosen.len() < n_inputs {
                let u = candidates[rng.gen_range(0..candidates.len())];
                if !chosen.contains(&u) {
                    chosen.push(u);
                }
            }
            for u in chosen {
                edges.push((u, i));
                has_input[i] = true;
                has_output[u] = true;
            }
        }

        // Dangling non-sink middle operators feed a later operator when a
        // compatible scheme will exist; otherwise they stay as extra sinks
        // (the model allows multiple sink operators). Connecting them
        // unconditionally would force `Full` fallback edges in structured
        // mode, which would leak full partitioning into Fig. 14(c)'s
        // structured corpus.
        for i in 0..n_ops - 1 {
            if !has_output[i] {
                let later: Vec<usize> = (0..n_ops)
                    .filter(|&v| layer_of[v] > layer_of[i] && v != i)
                    .collect();
                let compatible_later = later.iter().copied().find(|&v| {
                    !has_input[v]
                        || matches!(
                            self.style,
                            TopologyStyle::Full | TopologyStyle::Mixed { .. }
                        )
                        || parallelism[i] == parallelism[v]
                        || (parallelism[i] > parallelism[v]
                            && parallelism[i].is_multiple_of(parallelism[v]))
                        || (parallelism[v] > parallelism[i]
                            && parallelism[v].is_multiple_of(parallelism[i]))
                });
                if let Some(v) = compatible_later {
                    if !edges.contains(&(i, v)) {
                        edges.push((i, v));
                        has_input[v] = true;
                        has_output[i] = true;
                    }
                }
            }
        }

        // Assign partitionings in edge insertion order, adjusting the
        // downstream parallelism on first inbound edges.
        let mut partitionings: Vec<Partitioning> = Vec::with_capacity(edges.len());
        let mut seen_input = vec![false; n_ops];
        // Sort edges by downstream op so first-inbound adjustment is well
        // defined, preserving relative order otherwise.
        let mut edge_order: Vec<usize> = (0..edges.len()).collect();
        edge_order.sort_by_key(|&e| (layer_of[edges[e].1], edges[e].1, e));

        let mut parts_by_edge: Vec<Option<Partitioning>> = vec![None; edges.len()];
        for &e in &edge_order {
            let (u, v) = edges[e];
            let n1 = parallelism[u];
            let want_full = match self.style {
                TopologyStyle::Full => true,
                TopologyStyle::Structured => false,
                TopologyStyle::Mixed { full_probability } => rng.gen_bool(full_probability),
            };
            let part = if want_full {
                Partitioning::Full
            } else if !seen_input[v] {
                // First inbound edge: we may adjust v's parallelism.
                let choice = rng.gen_range(0..3);
                match choice {
                    0 => {
                        parallelism[v] = n1;
                        Partitioning::OneToOne
                    }
                    1 => {
                        let k = rng.gen_range(2..=3usize);
                        if n1 * k <= pmax.max(n1 * 2) {
                            parallelism[v] = n1 * k;
                            Partitioning::Split
                        } else {
                            parallelism[v] = n1;
                            Partitioning::OneToOne
                        }
                    }
                    _ => {
                        let divisors: Vec<usize> = (1..n1)
                            .filter(|d| n1.is_multiple_of(*d) && *d < n1)
                            .collect();
                        if let Some(&d) = divisors.get(rng.gen_range(0..divisors.len().max(1))) {
                            parallelism[v] = d;
                            Partitioning::Merge
                        } else {
                            parallelism[v] = n1;
                            Partitioning::OneToOne
                        }
                    }
                }
            } else {
                // Later inbound edge: find any compatible non-full scheme.
                let n2 = parallelism[v];
                if n1 == n2 {
                    Partitioning::OneToOne
                } else if n1 > n2 && n1.is_multiple_of(n2) {
                    Partitioning::Merge
                } else if n2 > n1 && n2.is_multiple_of(n1) {
                    Partitioning::Split
                } else if matches!(self.style, TopologyStyle::Structured) && !is_join[v] {
                    // Dropping the edge keeps the corpus purely structured;
                    // the upstream operator simply becomes an extra sink.
                    continue;
                } else {
                    Partitioning::Full // last resort (join arity conflict)
                }
            };
            seen_input[v] = true;
            parts_by_edge[e] = Some(part);
        }
        let kept: Vec<(usize, (usize, usize), Partitioning)> = edges
            .iter()
            .enumerate()
            .filter_map(|(e, &uv)| parts_by_edge[e].map(|p| (e, uv, p)))
            .collect();
        partitionings.extend(kept.iter().map(|&(_, _, p)| p));
        let edges: Vec<(usize, usize)> = kept.iter().map(|&(_, uv, _)| uv).collect();

        // Dropped edges may orphan a downstream operator's inputs entirely;
        // recompute input presence so specs stay consistent.
        let mut has_input = vec![false; n_ops];
        for &(_, v) in &edges {
            has_input[v] = true;
        }

        // Build the topology.
        let mut b = TopologyBuilder::new();
        for i in 0..n_ops {
            let para = parallelism[i].max(1);
            let weights = self.skew.weights(para);
            let spec = if !has_input[i] {
                OperatorSpec::source(format!("O{i}"), para, self.source_rate).with_weights(weights)
            } else {
                let sel = rng.gen_range(self.selectivity.0..=self.selectivity.1);
                let mut s = OperatorSpec::map(format!("O{i}"), para, sel).with_weights(weights);
                if is_join[i] {
                    s = s.with_semantics(InputSemantics::Correlated);
                }
                s
            };
            b.add_operator(spec);
        }
        for (e, &(u, v)) in edges.iter().enumerate() {
            b.connect(OperatorId(u), OperatorId(v), partitionings[e])?;
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gen_many(spec: &RandomTopologySpec, n: usize, seed: u64) -> Vec<Topology> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| spec.generate(&mut rng)).collect()
    }

    #[test]
    fn structured_spec_generates_valid_topologies() {
        let spec = RandomTopologySpec::default();
        for t in gen_many(&spec, 50, 1) {
            assert!(t.n_operators() >= 2);
            assert!(!t.sources().is_empty());
            assert!(!t.sinks().is_empty());
        }
    }

    #[test]
    fn full_spec_uses_only_full_edges() {
        let spec = RandomTopologySpec {
            style: TopologyStyle::Full,
            ..RandomTopologySpec::default()
        };
        for t in gen_many(&spec, 30, 2) {
            for e in t.edges() {
                assert_eq!(e.partitioning, Partitioning::Full);
            }
        }
    }

    #[test]
    fn structured_spec_avoids_full_edges_for_single_input_ops() {
        let spec = RandomTopologySpec::default(); // join_fraction = 0
        for t in gen_many(&spec, 30, 3) {
            for e in t.edges() {
                assert_ne!(
                    e.partitioning,
                    Partitioning::Full,
                    "structured non-join topologies never need the full fallback"
                );
            }
        }
    }

    #[test]
    fn join_fraction_produces_correlated_operators() {
        let spec = RandomTopologySpec {
            join_fraction: 1.0,
            n_operators: (6, 8),
            ..RandomTopologySpec::default()
        };
        let ts = gen_many(&spec, 20, 4);
        let joins: usize = ts
            .iter()
            .flat_map(|t| t.operators())
            .filter(|o| o.semantics == InputSemantics::Correlated)
            .count();
        assert!(joins > 0, "with join_fraction=1 some joins must appear");
    }

    #[test]
    fn zipf_skew_sets_weights() {
        let spec = RandomTopologySpec {
            skew: Skew::Zipf { s: 0.1 },
            ..RandomTopologySpec::default()
        };
        let t = spec.generate(&mut StdRng::seed_from_u64(5));
        for op in t.operators() {
            assert_eq!(op.weights, Skew::Zipf { s: 0.1 }.weights(op.parallelism));
            assert_ne!(op.weights, TaskWeights::Uniform);
        }
    }

    #[test]
    fn parallelism_respects_range_lower_bound() {
        let spec = RandomTopologySpec {
            parallelism: (10, 20),
            ..RandomTopologySpec::default()
        };
        for t in gen_many(&spec, 20, 6) {
            for op in t.operators() {
                assert!(op.parallelism >= 1);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = RandomTopologySpec::default();
        let a = gen_many(&spec, 5, 42);
        let b = gen_many(&spec, 5, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn generated_topologies_are_plannable() {
        use crate::planner::{GreedyPlanner, PlanContext, Planner, StructureAwarePlanner};
        let spec = RandomTopologySpec {
            n_operators: (5, 7),
            parallelism: (1, 6),
            join_fraction: 0.5,
            style: TopologyStyle::Mixed {
                full_probability: 0.3,
            },
            ..RandomTopologySpec::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let t = spec.generate(&mut rng);
            let cx = PlanContext::new(&t).unwrap();
            let budget = (t.n_tasks() / 2).max(1);
            let sa = StructureAwarePlanner.plan(&cx, budget).unwrap();
            let gr = GreedyPlanner.plan(&cx, budget).unwrap();
            assert!(sa.resources() <= budget);
            assert!(gr.resources() <= budget);
            assert!((0.0..=1.0 + 1e-9).contains(&sa.value));
            assert!((0.0..=1.0 + 1e-9).contains(&gr.value));
        }
    }
}
