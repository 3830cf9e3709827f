//! # ppa-sim — deterministic discrete-event simulation kernel
//!
//! The PPA paper evaluates on a 36-node EC2 cluster; this workspace
//! substitutes a deterministic discrete-event simulation (README.md §Design notes).
//! This crate is the kernel: virtual time, a stable event queue, and a
//! scheduler that the stream engine (`ppa-engine`) drives.
//!
//! Determinism rules:
//! * virtual time is integer microseconds ([`SimTime`]);
//! * events firing at the same instant are delivered in scheduling order
//!   (a monotone sequence number breaks ties);
//! * all randomness comes from seeded RNGs owned by the caller;
//! * the platform-dependent surface is six float calls into the system
//!   libm that feed the committed goldens, because IEEE 754 does not pin
//!   their results to the last bit: `ln` twice and `powf` once in
//!   `crates/faults/src/process.rs` (the exponential and Weibull gaps),
//!   `exp2` in `crates/engine/src/control.rs` (the domain-health decay),
//!   and `powf` in `crates/workloads/src/zipf.rs` and
//!   `crates/core/src/random.rs` (Zipf weights). Every other float
//!   operation on the way to a golden is correctly rounded. A libm that
//!   rounds one of these differently can change the figures; a new libm
//!   call that feeds a golden joins this list.

mod event;
mod time;

pub use event::Scheduler;
pub use time::{SimDuration, SimTime};
