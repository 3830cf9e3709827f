//! # ppa-faults — the correlated failure-model subsystem
//!
//! The paper's core premise is that failures in massively parallel stream
//! processing engines are *correlated*: nodes sharing a rack, a switch or a
//! power domain die together. This crate makes that premise a first-class,
//! reusable model instead of a hand-picked kill list per experiment:
//!
//! * [`FaultDomainTree`] — the cluster's physical containment
//!   hierarchy (node → rack → switch → power zone, arbitrary depth), with
//!   deterministic assignment of engine nodes to domains;
//! * [`FailureProcess`] — generative failure processes over
//!   the hierarchy: independent Poisson-style baseline
//!   ([`IndependentProcess`]), domain bursts ([`DomainBurstProcess`]) and
//!   decaying cascades ([`CascadeProcess`]), all driven by the in-tree
//!   seeded RNG so a `(process, cluster, seed)` triple always yields the
//!   same scenario (a Weibull/bathtub per-node hazard, [`WeibullProcess`],
//!   covers the non-memoryless regimes cluster traces show);
//! * [`FailureTrace`] — the normalized, ordered event sequence
//!   those processes emit, with a canonical line-oriented text format
//!   (save, diff, replay), consumed by the engine runtime (a
//!   `FaultFeed` handed to `Simulation::drive`) and by the repro harness.
//!
//! This crate sits *below* `ppa-core` and `ppa-engine` in the dependency
//! order (it only needs virtual time and the RNG shim), which lets the
//! planners derive their correlated-failure-set input from a
//! [`FaultDomainTree`] and lets the engine replay [`FailureTrace`]s
//! without a dependency cycle.

mod domain;
mod process;
mod trace;

pub use domain::{DomainId, FaultDomainTree, NodeId};
pub use process::{
    CascadeProcess, DomainBurstProcess, FailureProcess, IndependentProcess, WeibullProcess,
};
pub use trace::{FailureEvent, FailureTrace, TraceParseError};
