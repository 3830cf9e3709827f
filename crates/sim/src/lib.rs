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
//! * all randomness comes from seeded RNGs owned by the caller.

mod event;
mod time;

pub use event::Scheduler;
pub use time::{SimDuration, SimTime};
