//! # ppa-chaos — seeded chaos swarm for the deterministic engine
//!
//! FoundationDB-style simulation testing over `ppa-engine`: a seeded,
//! randomized-but-deterministic adversary composes the `ppa-faults`
//! failure processes with **buggify points** (delayed / duplicated /
//! dropped heartbeats, stalled and voided restores, mid-recovery
//! re-kills), and a swarm runner executes N seeded scenarios checking
//! every run against *invariants* instead of golden outputs.
//!
//! The crate's layers:
//!
//! * `schedule` — [`ChaosSchedule`]: normalized buggify schedules with
//!   a canonical `ppa-chaos/1` text form (the chaos twin of
//!   `ppa-faults/1` kill traces);
//! * `feed` — [`ChaosFeed`]: a `FaultFeed` composed with the seeded
//!   adversary, guarded by `can_kill` so no scenario ever kills the
//!   last copy of a task's exactly-once state or exceeds the dead-node
//!   budget;
//! * [`scenario`] — `(root_seed, index)` → topology × placement ×
//!   ft-mode × failure process × chaos config, all drawn from one RNG
//!   stream;
//! * `check` — cross-layer invariant checking (stream lifecycle ∧
//!   report histories ∧ metrics counters ∧ sink exactly-once ∧
//!   closed-or-explained outages);
//! * `shrink` — greedy delta debugging of failing
//!   `(trace, schedule)` pairs;
//! * `swarm` — the runner: pure per-seed execution
//!   ([`run_seed`]), sequential reference ([`run_swarm`]), stable
//!   reports, and shrunk repro artifacts on failure.
//!
//! Everything is a pure function of its seeds: outcomes are
//! byte-identical across `--jobs` and repeated runs — the property the
//! swarm's own determinism tests pin.

mod check;
mod feed;
pub mod scenario;
mod schedule;
mod shrink;
mod swarm;

pub use feed::{ChaosConfig, ChaosFeed, ResolvedChaos};
pub use scenario::{build, ModeTag, ProcessTag, ScenarioParams, StrategyTag};
pub use schedule::{ChaosSchedule, ScheduleParseError};
pub use swarm::{run_seed, run_swarm, Repro, SeedOutcome, SwarmError, SwarmReport};
