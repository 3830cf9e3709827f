//! `plan_corpus` — the planner only. A corpus of random topologies (equal
//! shares from four specifications mirroring Fig. 14's panels) planned by
//! SA and Greedy at six replication ratios, plus the exact DP on the
//! Fig. 6, Q1 and Q2 topologies at four. `fig14` is the longest experiment
//! of `reproduce --quick`; the engine does nothing here, so every engine
//! change predicts no movement.
//!
//! The corpus's shapes (operators, parallelism, edges) come from a fixed
//! stream; the seed redraws every source rate and selectivity. SA's cost
//! over random shapes is heavy-tailed — over 60 draws per specification the
//! median topology plans in 6 ms and the slowest in 1.9 s — so a corpus
//! re-shaped per seed moves an iteration's time fourfold between seeds, and
//! no two seeds would measure comparable work.

use super::{mix, Hash, Outcome, Workload};
use crate::spans::{count, span};
use ppa_core::{
    DpPlanner, GreedyPlanner, PlanContext, Planner, RandomTopologySpec, Skew,
    StructureAwarePlanner, Topology, TopologyBuilder, TopologyStyle,
};
use ppa_workloads::{
    fig6_scenario, q1_scenario, q2_scenario, Fig6Config, NavigationConfig, Q1Config,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Topologies drawn from each of the four specifications.
pub const PER_SPEC: usize = 8;
/// Root of the fixed stream the corpus's shapes are drawn from.
const SHAPE_STREAM: u64 = 3;
const CORPUS_RATIOS: [f64; 6] = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8];
const DP_RATIOS: [f64; 4] = [0.2, 0.4, 0.6, 0.8];

fn specs() -> [RandomTopologySpec; 4] {
    let base = RandomTopologySpec {
        n_operators: (5, 10),
        parallelism: (1, 10),
        ..RandomTopologySpec::default()
    };
    [
        base.clone(),
        RandomTopologySpec {
            skew: Skew::Zipf { s: 0.1 },
            ..base.clone()
        },
        RandomTopologySpec {
            style: TopologyStyle::Full,
            ..base.clone()
        },
        RandomTopologySpec {
            join_fraction: 0.5,
            ..base
        },
    ]
}

pub struct PlanCorpus {
    corpus: Vec<Topology>,
    /// The Fig. 6, Q1 and Q2 topologies the exact DP plans.
    named: Vec<Topology>,
}

/// The same shape with every source rate and selectivity redrawn.
fn redraw(shape: &Topology, spec: &RandomTopologySpec, rng: &mut StdRng) -> Topology {
    let mut b = TopologyBuilder::new();
    for op in shape.operators() {
        let mut op = op.clone();
        if op.is_source() {
            op.source_rate = Some(spec.source_rate * rng.gen_range(0.5..=1.5));
        } else {
            op.selectivity = rng.gen_range(spec.selectivity.0..=spec.selectivity.1);
        }
        b.add_operator(op);
    }
    for e in shape.edges() {
        b.connect(e.from, e.to, e.partitioning)
            .expect("the shape's own edges are valid");
    }
    b.build().expect("the shape was a valid topology")
}

fn budget(cx: &PlanContext, ratio: f64) -> usize {
    (cx.n_tasks() as f64 * ratio).round() as usize
}

impl Workload for PlanCorpus {
    fn setup(seed: u64) -> Self {
        let corpus = span("core.topology_gen", || {
            let mut corpus = Vec::new();
            for (si, spec) in specs().iter().enumerate() {
                for i in 0..PER_SPEC {
                    // One generator per topology, so the corpus does not
                    // depend on generation order.
                    let index = (si * PER_SPEC + i) as u64;
                    let shape = spec.generate(&mut StdRng::seed_from_u64(mix(SHAPE_STREAM, index)));
                    let mut rng = StdRng::seed_from_u64(mix(seed, index));
                    corpus.push(redraw(&shape, spec, &mut rng));
                }
            }
            corpus
        });
        let named = span("workloads.scenario_build", || {
            vec![
                fig6_scenario(&Fig6Config::default())
                    .query
                    .topology()
                    .clone(),
                q1_scenario(&Q1Config::default()).query.topology().clone(),
                q2_scenario(&NavigationConfig::default())
                    .query
                    .topology()
                    .clone(),
            ]
        });
        PlanCorpus { corpus, named }
    }

    fn iterate(&mut self) -> Outcome {
        let mut out = Outcome::default();
        let mut h = Hash::default();
        let (mut sa_sum, mut greedy_sum, mut plans) = (0.0, 0.0, 0u32);
        // Contexts are rebuilt every iteration: they cache MC-trees, and a
        // user planning a topology pays for that enumeration.
        for topology in &self.corpus {
            let cx = span("core.plan_context", || {
                PlanContext::new(topology).expect("generated topologies are valid")
            });
            count("core.tasks", cx.n_tasks() as f64);
            for ratio in CORPUS_RATIOS {
                let budget = budget(&cx, ratio);
                let sa = span("core.sa_plan", || {
                    StructureAwarePlanner::default()
                        .plan(&cx, budget)
                        .expect("SA plans every valid topology")
                });
                let greedy = span("core.greedy_plan", || {
                    GreedyPlanner
                        .plan(&cx, budget)
                        .expect("Greedy plans every valid topology")
                });
                let (sa_of, greedy_of) = span("core.score", || {
                    (cx.of_plan(&sa.tasks), cx.of_plan(&greedy.tasks))
                });
                for (plan, of) in [(&sa, sa_of), (&greedy, greedy_of)] {
                    out.check(plan.tasks.len() <= budget && (0.0..=1.0).contains(&of));
                    h.word(of.to_bits());
                }
                sa_sum += sa_of;
                greedy_sum += greedy_of;
                plans += 1;
            }
        }
        count("core.plans", 2.0 * f64::from(plans));
        out.check(sa_sum >= greedy_sum);
        out.figures.push(("plan_of", sa_sum / f64::from(plans)));

        for topology in &self.named {
            let cx = span("core.plan_context", || {
                PlanContext::new(topology).expect("the evaluation topologies are valid")
            });
            count("core.tasks", cx.n_tasks() as f64);
            for ratio in DP_RATIOS {
                let budget = budget(&cx, ratio);
                count("core.plans", 1.0);
                // An explosion error is the DP's documented answer to a
                // topology too rich for it, not a failed check.
                match span("core.dp_plan", || DpPlanner::default().plan(&cx, budget)) {
                    Ok(plan) => {
                        let of = span("core.score", || cx.of_plan(&plan.tasks));
                        out.check(plan.tasks.len() <= budget && (0.0..=1.0).contains(&of));
                        h.word(of.to_bits());
                    }
                    Err(_) => {
                        count("core.dp_failed", 1.0);
                        h.word(u64::MAX);
                    }
                }
            }
            count(
                "core.mc_trees",
                cx.mc_trees().map_or(0.0, |trees| trees.len() as f64),
            );
        }
        out.fingerprint.push(h.finish());
        out
    }

    fn ops_per_iteration(&self) -> u64 {
        // One op = one plan request.
        (self.corpus.len() * CORPUS_RATIOS.len() * 2 + self.named.len() * DP_RATIOS.len()) as u64
    }
}
