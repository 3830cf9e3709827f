//! The workspace's one wall-clock reader.

use std::time::{Duration, Instant};

/// A started wall-clock timer.
///
/// This module is the only place the workspace reads the host clock: the
/// determinism lint (rule D002) confines `Instant`/`SystemTime` to this
/// file, so everything that needs wall time — the experiment runner's
/// progress reporting, the timed JSON section, the copy gate — goes
/// through [`Stopwatch`]. Simulated time (`ppa_sim`) stays the only clock
/// anywhere results are computed.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a timer now.
    #[allow(clippy::new_without_default)]
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Wall time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}
