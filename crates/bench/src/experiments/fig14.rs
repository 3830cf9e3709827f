//! Fig. 14: SA vs Greedy over corpora of random topologies, sweeping the
//! replication ratio, across four specification knobs:
//! (a) task-workload skew, (b) parallelism range, (c) structured vs full
//! partitioning, (d) join-operator fraction.
//!
//! 100 topologies per specification (12 in quick mode); the DP is omitted,
//! as in the paper. MC-tree enumeration succeeds on these topologies
//! (median 34–452 trees per corpus), but the DP's search is exponential in
//! the tree count: under its default cap of 2 000 000 scored plans it
//! plans every (topology, ratio) call of 14a with at most 24 trees, about
//! two thirds of those with 25–49 and about a third of those with more.

use crate::runner::RunCtx;
use crate::{Figure, Series};
use ppa_core::{
    GreedyPlanner, PlanContext, Planner, RandomTopologySpec, Skew, StructureAwarePlanner,
    TopologyStyle,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ratios(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.1, 0.3, 0.6]
    } else {
        vec![0.05, 0.1, 0.2, 0.4, 0.6, 0.8]
    }
}

/// Mean OF of SA and Greedy plans over `n` random topologies for each
/// ratio. Returns (sa_means, greedy_means); each topology is one leaf job
/// on the shared pool.
fn corpus_means(
    ctx: &RunCtx,
    spec: &RandomTopologySpec,
    n: usize,
    seed: u64,
    ratios: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let per_topo: Vec<(Vec<f64>, Vec<f64>)> = ctx.map((0..n).collect(), |i| {
        // One RNG per topology keeps results independent of scheduling.
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37));
        let topo = spec.generate(&mut rng);
        let cx = PlanContext::new(&topo).expect("random topology is valid");
        let n_tasks = cx.n_tasks();
        let mut sa_vals = Vec::with_capacity(ratios.len());
        let mut gr_vals = Vec::with_capacity(ratios.len());
        for &r in ratios {
            let budget = ((n_tasks as f64) * r).round() as usize;
            let sa = StructureAwarePlanner
                .plan(&cx, budget)
                .expect("SA never errors");
            let gr = GreedyPlanner
                .plan(&cx, budget)
                .expect("greedy never errors");
            sa_vals.push(cx.of_plan(&sa.tasks));
            gr_vals.push(cx.of_plan(&gr.tasks));
        }
        (sa_vals, gr_vals)
    });

    let n = per_topo.len().max(1);
    let mut sa_means = vec![0.0; ratios.len()];
    let mut gr_means = vec![0.0; ratios.len()];
    for (s, g) in &per_topo {
        for k in 0..ratios.len() {
            sa_means[k] += s[k];
            gr_means[k] += g[k];
        }
    }
    for k in 0..ratios.len() {
        sa_means[k] /= n as f64;
        gr_means[k] /= n as f64;
    }
    (sa_means, gr_means)
}

fn base_spec() -> RandomTopologySpec {
    RandomTopologySpec {
        n_operators: (5, 10),
        parallelism: (1, 10),
        join_fraction: 0.0,
        skew: Skew::Uniform,
        style: TopologyStyle::Structured,
        ..RandomTopologySpec::default()
    }
}

pub(crate) fn run(ctx: &RunCtx) -> Vec<Figure> {
    let quick = ctx.quick;
    let n = if quick { 12 } else { 100 };
    let ratios = ratios(quick);
    let xs: Vec<String> = ratios.iter().map(|r| format!("{r:.2}")).collect();

    let panel = |id: &str,
                 title: &str,
                 variants: Vec<(&str, RandomTopologySpec)>,
                 note: &str,
                 seed: u64|
     -> Figure {
        let mut fig = Figure::new(id, title, "replication ratio", "output fidelity");
        for (label, spec) in variants {
            let (sa, gr) = corpus_means(ctx, &spec, n, seed, &ratios);
            let mut s_sa = Series::new(format!("SA-{label}"));
            let mut s_gr = Series::new(format!("Greedy-{label}"));
            for (k, x) in xs.iter().enumerate() {
                s_sa.push(x.clone(), sa[k]);
                s_gr.push(x.clone(), gr[k]);
            }
            fig.series.push(s_sa);
            fig.series.push(s_gr);
        }
        fig.note(note);
        fig
    };

    vec![
        panel(
            "fig14a",
            "Random topologies — workload skewness",
            vec![
                (
                    "zipf",
                    RandomTopologySpec {
                        skew: Skew::Zipf { s: 0.1 },
                        ..base_spec()
                    },
                ),
                ("uniform", base_spec()),
            ],
            "Expected shape (paper): SA > Greedy everywhere; skewed workloads widen \
             SA's lead because heavy MC-trees dominate OF.",
            1,
        ),
        panel(
            "fig14b",
            "Random topologies — degree of parallelization",
            vec![
                (
                    "para:10~20",
                    RandomTopologySpec {
                        parallelism: (10, 20),
                        ..base_spec()
                    },
                ),
                ("para:1~10", base_spec()),
            ],
            "Expected shape (paper): SA > Greedy for both ranges.",
            2,
        ),
        panel(
            "fig14c",
            "Random topologies — structured vs full partitioning",
            vec![
                ("Structure", base_spec()),
                (
                    "Full",
                    RandomTopologySpec {
                        style: TopologyStyle::Full,
                        ..base_spec()
                    },
                ),
            ],
            "Expected shape (paper): structured topologies reach higher OF than full \
             ones (a full-partitioned failure degrades every downstream task); on \
             full topologies SA and Greedy converge.",
            3,
        ),
        panel(
            "fig14d",
            "Random topologies — fraction of join operators",
            vec![
                ("NoJoin", base_spec()),
                (
                    "Join-50%",
                    RandomTopologySpec {
                        join_fraction: 0.5,
                        ..base_spec()
                    },
                ),
            ],
            "Expected shape (paper): joins lower OF at equal budget — losing one \
             input stream of a join wastes the surviving correlated stream.",
            4,
        ),
    ]
}
