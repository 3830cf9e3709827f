//! Seeded scenario generation: one root seed and an index deterministically
//! expand into a topology × placement × fault-tolerance mode × failure
//! process × chaos config — the swarm's whole input space.
//!
//! Every parameter is drawn from one [`StdRng`] stream in a fixed order,
//! so `(root_seed, index)` names a scenario completely: the repro workflow
//! is "re-run the same pair", and shrunk artifacts stay replayable against
//! the scenario they came from.

use crate::feed::{ChaosConfig, ChaosFeed};
use ppa_core::{OperatorSpec, Partitioning};
use ppa_core::{Planner, StructureAwarePlanner};
use ppa_engine::CountingSource;
use ppa_engine::{
    Cluster, DomainSpread, EngineConfig, FtMode, Packed, Placement, PlacementStrategy, Query,
    QueryBuilder, RoundRobin,
};
use ppa_faults::{CascadeProcess, DomainBurstProcess, FailureProcess, IndependentProcess};
use ppa_sim::{SimDuration, SimTime};
use ppa_workloads::SyntheticOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Scenario construction failure: a drawn parameter combination the
/// underlying builders reject. Always a swarm bug (the generator must
/// only draw valid combinations), so the swarm surfaces it as an error
/// rather than skipping the seed silently.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError(pub String);

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario construction failed: {}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

/// Placement strategy choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyTag {
    RoundRobin,
    Packed,
    DomainSpread,
}

impl StrategyTag {
    fn name(self) -> &'static str {
        match self {
            StrategyTag::RoundRobin => "rr",
            StrategyTag::Packed => "packed",
            StrategyTag::DomainSpread => "spread",
        }
    }
}

/// Fault-tolerance mode choice (materialized into [`FtMode`] once the
/// placement exists — PPA plans need the placement's fault-domain tree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeTag {
    Active,
    Checkpoint {
        interval_secs: u64,
    },
    PpaHalf,
    Storm,
    /// Divergence-bounded approximate backups with lossy recovery.
    Approx {
        error_bound: u64,
    },
}

impl ModeTag {
    fn name(self) -> &'static str {
        match self {
            ModeTag::Active => "active",
            ModeTag::Checkpoint { .. } => "checkpoint",
            ModeTag::PpaHalf => "ppa",
            ModeTag::Storm => "storm",
            ModeTag::Approx { .. } => "approx",
        }
    }
}

/// Base failure process choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessTag {
    /// Independent Poisson node failures.
    Independent,
    /// One correlated rack-level burst.
    DomainBurst,
    /// A cascade spreading across racks.
    Cascade,
    /// No base failures — buggify-only scenario.
    Quiet,
}

impl ProcessTag {
    fn name(self) -> &'static str {
        match self {
            ProcessTag::Independent => "indep",
            ProcessTag::DomainBurst => "burst",
            ProcessTag::Cascade => "cascade",
            ProcessTag::Quiet => "quiet",
        }
    }
}

/// Everything one swarm scenario is parameterized by — a pure function
/// of `(root_seed, index)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioParams {
    pub index: usize,
    /// The derived per-scenario seed (workload + engine seed).
    pub seed: u64,
    pub sources: usize,
    pub rate: usize,
    pub mids: usize,
    pub window_batches: u64,
    pub selectivity: f64,
    pub workers: usize,
    pub rack_size: usize,
    pub strategy: StrategyTag,
    pub mode: ModeTag,
    pub process: ProcessTag,
    pub chaos: ChaosConfig,
    pub horizon_secs: u64,
}

/// Splitmix-style seed derivation: spreads consecutive indices across
/// the seed space so per-scenario streams are independent.
fn derive_seed(root: u64, index: usize) -> u64 {
    let mut z = root ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ScenarioParams {
    /// Expands `(root_seed, index)` into a full scenario parameterization.
    pub fn for_seed(root_seed: u64, index: usize) -> Self {
        let seed = derive_seed(root_seed, index);
        let mut rng = StdRng::seed_from_u64(seed);
        let sources = rng.gen_range(2..=3usize);
        let rate = rng.gen_range(40..=160usize);
        let mids = rng.gen_range(1..=3usize);
        let window_batches = rng.gen_range(5..=10u64);
        let selectivity = rng.gen_range(0.5..=1.0f64);
        let workers = rng.gen_range(8..=12usize);
        let rack_size = rng.gen_range(2..=4usize);
        let strategy = match rng.gen_range(0..3u32) {
            0 => StrategyTag::RoundRobin,
            1 => StrategyTag::Packed,
            _ => StrategyTag::DomainSpread,
        };
        let mode = match rng.gen_range(0..5u32) {
            0 => ModeTag::Active,
            1 => ModeTag::Checkpoint {
                interval_secs: rng.gen_range(2..=5u64),
            },
            2 => ModeTag::PpaHalf,
            3 => ModeTag::Storm,
            // Bounds spanning "ships every couple of batches" (the rate
            // floor is 40 tuples/batch) to "ships rarely" — the lossy
            // recovery gets exercised across the whole cadence range.
            _ => ModeTag::Approx {
                error_bound: rng.gen_range(100..=4_000u64),
            },
        };
        let process = match rng.gen_range(0..4u32) {
            0 => ProcessTag::Independent,
            1 => ProcessTag::DomainBurst,
            2 => ProcessTag::Cascade,
            _ => ProcessTag::Quiet,
        };
        let chaos = ChaosConfig {
            seed: seed ^ 0xC4A0_55AA,
            buggify: rng.gen_range(0..=5usize),
            rekills: rng.gen_range(0..=2usize),
            max_dead_frac: 0.4,
        };
        ScenarioParams {
            index,
            seed,
            sources,
            rate,
            mids,
            window_batches,
            selectivity,
            workers,
            rack_size,
            strategy,
            mode,
            process,
            chaos,
            horizon_secs: 60,
        }
    }

    /// Total logical tasks of the scenario's query.
    pub(crate) fn n_tasks(&self) -> usize {
        self.sources + self.mids + 1
    }

    /// A compact, stable one-line description for swarm reports.
    pub(crate) fn label(&self) -> String {
        format!(
            "src={}x{} mid={} {} {} {} bug={} rekill={}",
            self.sources,
            self.rate,
            self.mids,
            self.strategy.name(),
            self.mode.name(),
            self.process.name(),
            self.chaos.buggify,
            self.chaos.rekills,
        )
    }
}

/// A scenario materialized and ready to run.
pub struct BuiltScenario {
    pub query: Query,
    pub placement: Placement,
    pub config: EngineConfig,
    pub feed: ChaosFeed,
    pub horizon: SimTime,
}

/// Materializes a parameterization: builds the query, places it on the
/// racked cluster, derives the engine config (PPA plans against the
/// placement's own fault-domain tree) and assembles the chaos feed.
pub fn build(params: &ScenarioParams) -> Result<BuiltScenario, ScenarioError> {
    let err = |e: &dyn fmt::Display| ScenarioError(e.to_string());

    // Topology: `sources` counting sources → a chain of `mids` windowed
    // synthetic operators → one sink operator collecting output.
    let mut q = QueryBuilder::new();
    let seed = params.seed;
    let rate = params.rate;
    let src = q.add_source(
        OperatorSpec::source("src", params.sources, rate as f64),
        move |task| {
            Box::new(CountingSource {
                per_batch: rate,
                seed: seed ^ ((task as u64) << 8),
                key_space: 1 << 20,
            })
        },
    );
    let window = params.window_batches;
    let sel = params.selectivity;
    // The sources (parallelism ≥ 2) merge into the first mid; the rest
    // of the chain is parallelism-1 → one-to-one edges.
    let mut prev = src;
    for i in 0..params.mids {
        let op = q.add_operator(OperatorSpec::map(format!("mid{i}"), 1, sel), move |_| {
            Box::new(SyntheticOp::new(window, sel))
        });
        let part = if i == 0 {
            Partitioning::Merge
        } else {
            Partitioning::OneToOne
        };
        q.connect(prev, op, part).map_err(|e| err(&e))?;
        prev = op;
    }
    let sink = q.add_operator(OperatorSpec::map("sink", 1, 1.0), move |_| {
        Box::new(SyntheticOp::new(window, 1.0))
    });
    q.connect(prev, sink, Partitioning::OneToOne)
        .map_err(|e| err(&e))?;
    let query = q.build().map_err(|e| err(&e))?;

    // Placement on a racked cluster (standbys mirror the workers).
    let graph = ppa_core::TaskGraph::new(query.topology().clone());
    let cluster =
        Cluster::racked(params.workers, params.workers, params.rack_size).map_err(|e| err(&e))?;
    let placement = match params.strategy {
        StrategyTag::RoundRobin => RoundRobin.place(&graph, &cluster),
        StrategyTag::Packed => Packed.place(&graph, &cluster),
        StrategyTag::DomainSpread => DomainSpread::default().place(&graph, &cluster),
    }
    .map_err(|e| err(&e))?;

    // Engine config. The mode is materialized here because a PPA plan
    // needs the placement's fault-domain tree.
    let n_tasks = params.n_tasks();
    let mut config = EngineConfig {
        seed: params.seed,
        ..EngineConfig::default()
    };
    config.mode = match params.mode {
        ModeTag::Active => FtMode::active(n_tasks),
        ModeTag::Checkpoint { interval_secs } => {
            FtMode::checkpoint(n_tasks, SimDuration::from_secs(interval_secs))
        }
        ModeTag::PpaHalf => {
            let cx = placement
                .plan_context(query.topology())
                .map_err(|e| err(&e))?;
            let plan = StructureAwarePlanner::default()
                .plan(&cx, n_tasks / 2)
                .map_err(|e| err(&e))?
                .tasks;
            FtMode::ppa(plan, SimDuration::from_secs(5))
        }
        ModeTag::Storm => FtMode::SourceReplay {
            buffer: SimDuration::from_secs(params.window_batches + 5),
        },
        ModeTag::Approx { error_bound } => {
            FtMode::approximate(n_tasks, SimDuration::from_secs(5), error_bound)
        }
    };

    // The failure process covers [20 s, 45 s) of the 60 s horizon,
    // leaving detection + recovery room before the end-of-run checks.
    let start = SimTime::from_secs(20);
    let span = SimDuration::from_secs(25);
    let process: Option<Box<dyn FailureProcess>> = match params.process {
        ProcessTag::Independent => Some(Box::new(IndependentProcess {
            mtbf: SimDuration::from_secs(600),
        })),
        ProcessTag::DomainBurst => Some(Box::new(DomainBurstProcess {
            level: 1,
            bursts: 1,
            fraction: 1.0,
        })),
        ProcessTag::Cascade => Some(Box::new(CascadeProcess {
            level: 1,
            spread: 0.5,
            decay: 0.5,
            hop_delay: SimDuration::from_secs(2),
            fraction: 1.0,
            origin: None,
        })),
        ProcessTag::Quiet => None,
    };
    let mut feed = ChaosFeed::new(params.chaos.clone());
    if let Some(process) = process {
        feed = feed.with_process(process, start, span, params.seed ^ 0xFA17);
    }

    Ok(BuiltScenario {
        query,
        placement,
        config,
        feed,
        horizon: SimTime::from_secs(params.horizon_secs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    type TestResult = Result<(), Box<dyn Error>>;

    #[test]
    fn params_are_a_pure_function_of_seed_and_index() {
        let a = ScenarioParams::for_seed(42, 7);
        let b = ScenarioParams::for_seed(42, 7);
        assert_eq!(a, b);
        let c = ScenarioParams::for_seed(42, 8);
        assert_ne!(a.seed, c.seed, "indices derive distinct seeds");
    }

    #[test]
    fn seeds_cover_the_parameter_space() {
        // Across a modest index range every strategy, mode and process
        // variant must appear — the swarm exercises the whole matrix.
        let params: Vec<ScenarioParams> = (0..64).map(|i| ScenarioParams::for_seed(1, i)).collect();
        for tag in [
            StrategyTag::RoundRobin,
            StrategyTag::Packed,
            StrategyTag::DomainSpread,
        ] {
            assert!(params.iter().any(|p| p.strategy == tag), "{tag:?} missing");
        }
        for tag in [
            ProcessTag::Independent,
            ProcessTag::DomainBurst,
            ProcessTag::Cascade,
            ProcessTag::Quiet,
        ] {
            assert!(params.iter().any(|p| p.process == tag), "{tag:?} missing");
        }
        assert!(params.iter().any(|p| matches!(p.mode, ModeTag::Active)));
        assert!(params.iter().any(|p| matches!(p.mode, ModeTag::Storm)));
        assert!(params.iter().any(|p| matches!(p.mode, ModeTag::PpaHalf)));
        assert!(params
            .iter()
            .any(|p| matches!(p.mode, ModeTag::Checkpoint { .. })));
        assert!(params
            .iter()
            .any(|p| matches!(p.mode, ModeTag::Approx { .. })));
        // Every drawn approximate bound is positive: bound 0 is the
        // parity anchor (normalizes to exact checkpointing) and belongs
        // to the differential suite, not the swarm.
        for p in &params {
            if let ModeTag::Approx { error_bound } = p.mode {
                assert!(error_bound > 0);
            }
        }
    }

    #[test]
    fn every_scenario_in_range_builds() -> TestResult {
        for i in 0..16 {
            let params = ScenarioParams::for_seed(99, i);
            let built = build(&params)?;
            assert_eq!(built.placement.primary.len(), params.n_tasks());
            assert!(built.horizon == SimTime::from_secs(60));
        }
        Ok(())
    }
}
