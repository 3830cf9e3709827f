//! # ppa-core — PPA replication planning
//!
//! This crate implements the *planning* half of the paper **“Tolerating
//! Correlated Failures in Massively Parallel Stream Processing Engines”**
//! (Su & Zhou, ICDE 2016): the query/topology model (§II), the *Output
//! Fidelity* metric and its operator output-loss model (§III), minimal
//! complete trees (Definition 1), and the three replication planners of §IV —
//! the exact dynamic program (Algorithm 1), the task-level greedy
//! (Algorithm 2) and the structure-aware planner (Algorithms 3–5).
//!
//! The companion crate `ppa-engine` executes topologies produced here on a
//! simulated cluster with PPA fault tolerance.
//!
//! ## Quick tour
//!
//! ```
//! use ppa_core::{
//!     OperatorSpec, Partitioning, PlanContext, Planner, StructureAwarePlanner, TopologyBuilder,
//! };
//!
//! // A 3-operator aggregation pipeline: 4 sources -> 2 aggregators -> 1 sink.
//! let mut b = TopologyBuilder::new();
//! let src = b.add_operator(OperatorSpec::source("src", 4, 1_000.0));
//! let agg = b.add_operator(OperatorSpec::map("agg", 2, 0.5));
//! let sink = b.add_operator(OperatorSpec::map("sink", 1, 0.1));
//! b.connect(src, agg, Partitioning::Merge).unwrap();
//! b.connect(agg, sink, Partitioning::Merge).unwrap();
//! let topology = b.build().unwrap();
//!
//! let cx = PlanContext::new(&topology).unwrap();
//! // Budget: actively replicate 4 of the 7 tasks.
//! let plan = StructureAwarePlanner.plan(&cx, 4).unwrap();
//! assert!(plan.tasks.len() <= 4);
//! // Output fidelity of the tentative output under a worst-case correlated
//! // failure (every non-replicated task down):
//! let of = cx.of_plan(&plan.tasks);
//! assert!((0.0..=1.0).contains(&of));
//! ```

mod error;
mod fidelity;
mod mctree;
pub mod model;
mod planner;
mod random;
mod rates;

pub use error::{CoreError, Result};
pub use fidelity::FidelityModel;
pub use mctree::{enumerate_mc_trees, McTreeLimits};
pub use model::{
    Edge, EdgeId, InputStream, OperatorId, OperatorSpec, OutputStream, Partitioning, TaskGraph,
    TaskIndex, TaskSet, Topology, TopologyBuilder,
};
pub use planner::{
    AdaptivePlanner, BruteForcePlanner, DpPlanner, GreedyPlanner, Objective, Plan, PlanAdaptation,
    PlanContext, Planner, StructureAwarePlanner,
};
pub use random::{RandomTopologySpec, Skew, TopologyStyle};
