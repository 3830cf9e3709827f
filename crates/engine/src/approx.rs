//! Divergence-bounded ("approximate") state backup — the third recovery
//! family next to active replication and interval checkpoints (AF-Stream,
//! Cheng, Huang & Lee).
//!
//! Instead of shipping a snapshot every checkpoint interval, a stateful
//! task accumulates *divergence* — a measure of how far its live state has
//! drifted from the last shipped backup — and ships only when the drift
//! reaches the configured `error_bound`. Recovery is lossy: the task
//! restores the last shipped snapshot and jumps to the current frontier
//! without replaying the gap, forfeiting at most one bound's worth of
//! state drift plus the un-replayed batches; the engine notes both in
//! the recovery's `ApproxRecovery` event.
//!
//! Drift is measured in *input tuples absorbed* since the last shipped
//! backup: every tuple folded into operator state moves the live state
//! away from the snapshot by at most itself, so the tuple count is a
//! conservative, deterministic, workload-independent drift bound.

/// Per-task divergence accumulator, part of the task's own state: only
/// the owning task's batch processing mutates it.
#[derive(Debug, Clone, Default)]
pub struct DivergenceModel {
    /// Drift (input tuples absorbed) since the last shipped backup.
    drift: u64,
    /// Batch-processing points that checked the bound and did not ship.
    skipped: u64,
    /// A ship event is staged but has not fired yet (prevents a burst of
    /// batches from staging duplicate ships before the first completes).
    armed: bool,
}

impl DivergenceModel {
    pub fn new() -> Self {
        DivergenceModel::default()
    }

    /// Folds one processed batch into the drift and decides whether a
    /// backup must ship: returns `true` exactly when the accumulated
    /// drift reached `bound` and no ship is already in flight. A `false`
    /// return is a *skip* — a backup a fixed-interval scheme might have
    /// shipped here, avoided because the drift is still within bound.
    pub fn absorb(&mut self, tuples: u64, bound: u64) -> bool {
        self.drift += tuples;
        if !self.armed && self.drift >= bound.max(1) {
            self.armed = true;
            true
        } else {
            self.skipped += 1;
            false
        }
    }

    /// Un-shipped drift accumulated so far — the state a failure at this
    /// instant would forfeit under lossy recovery.
    pub fn pending(&self) -> u64 {
        self.drift
    }

    /// Whether a staged ship is in flight. A ship event arriving while
    /// disarmed is stale (the task died or restored in between) and must
    /// not fire.
    pub(crate) fn is_armed(&self) -> bool {
        self.armed
    }

    /// Bound-check points that decided not to ship.
    pub(crate) fn skipped(&self) -> u64 {
        self.skipped
    }

    /// The staged ship completed: the snapshot now covers every absorbed
    /// tuple. Returns the drift the backup covered.
    pub fn shipped(&mut self) -> u64 {
        let covered = self.drift;
        self.drift = 0;
        self.armed = false;
        covered
    }

    /// The task restored from its last shipped snapshot (lossy recovery)
    /// or died before a staged ship fired: live state equals the snapshot
    /// again, so the drift restarts from zero.
    pub(crate) fn reset(&mut self) {
        self.drift = 0;
        self.armed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ships_exactly_when_drift_reaches_the_bound() {
        let mut m = DivergenceModel::new();
        assert!(!m.absorb(40, 100));
        assert!(!m.absorb(40, 100));
        assert!(m.absorb(40, 100), "120 >= 100 must arm a ship");
        assert_eq!(m.pending(), 120);
        assert_eq!(m.skipped(), 2);
        // Armed: further drift accumulates without duplicate ships.
        assert!(!m.absorb(10, 100));
        assert_eq!(m.shipped(), 130);
        assert_eq!(m.pending(), 0);
    }

    #[test]
    fn a_zero_bound_ships_every_batch() {
        // `FtMode::approximate` normalizes bound 0 to the exact
        // checkpoint protocol before the model is ever consulted; if a
        // caller constructs the mode literally, bound 0 degrades to
        // continuous backup rather than dividing by zero.
        let mut m = DivergenceModel::new();
        assert!(m.absorb(1, 0));
        m.shipped();
        assert!(m.absorb(1, 0));
    }

    #[test]
    fn reset_clears_drift_and_arm() {
        let mut m = DivergenceModel::new();
        assert!(m.absorb(10, 5));
        m.reset();
        assert_eq!(m.pending(), 0);
        // Disarmed: the next crossing arms a fresh ship.
        assert!(m.absorb(10, 5));
    }

    /// Property (a) of the approximate contract, at the model level: over
    /// random seeded update streams, the drift carried *between* shipped
    /// backups never exceeds the bound — every crossing arms a ship at
    /// the crossing instant.
    #[test]
    fn drift_between_ships_never_exceeds_the_bound() {
        use rand::{Rng, SeedableRng};
        for seed in 0..32u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let bound = rng.gen_range(1..500u64);
            let mut m = DivergenceModel::new();
            let mut carried = 0u64;
            for _ in 0..200 {
                let tuples = rng.gen_range(0..120u64);
                if m.absorb(tuples, bound) {
                    assert!(
                        m.pending() >= bound,
                        "ship armed below the bound (seed {seed})"
                    );
                    m.shipped();
                }
                carried = m.pending();
                assert!(
                    carried < bound,
                    "carried drift {carried} >= bound {bound} between ships (seed {seed})"
                );
            }
            let _ = carried;
        }
    }
}
