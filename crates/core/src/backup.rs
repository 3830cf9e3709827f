//! Backup cadence models for the planner's cost side.
//!
//! The exact families ship state on a *timer* (the checkpoint interval);
//! the approximate family ships on *divergence* — a backup goes out when
//! the state has drifted `error_bound` tuples away from the last shipped
//! snapshot. The planner's CPU charge for passive protection is
//! `backups/s × cost-per-backup`, so the two cadences need one common
//! model: under divergence-driven shipping the backup rate scales with
//! the task's drift rate (≈ its input rate) instead of being a constant
//! of the configuration, which is what makes the approximate family
//! cheap on cold tasks and exactly as expensive as checkpointing on
//! tasks hot enough to cross the bound every interval.
//!
//! Plain `f64` seconds / `u64` tuples throughout: this crate is
//! simulator-agnostic and must not depend on `ppa-sim`'s clock types.

/// When a stateful task ships state backups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackupCadence {
    /// Fixed-interval checkpoints every `interval_secs`.
    Interval { interval_secs: f64 },
    /// Divergence-driven ships: one backup each time the accumulated
    /// drift (input tuples absorbed since the last ship, drifting at
    /// `drift_rate_per_sec`) reaches `error_bound`.
    Divergence {
        error_bound: u64,
        drift_rate_per_sec: f64,
    },
}

impl BackupCadence {
    /// Steady-state backups per second. Zero for a divergence cadence on
    /// a task with no drift (it never ships — and never needs to).
    pub fn backups_per_sec(&self) -> f64 {
        match *self {
            BackupCadence::Interval { interval_secs } => {
                if interval_secs > 0.0 {
                    1.0 / interval_secs
                } else {
                    0.0
                }
            }
            BackupCadence::Divergence {
                error_bound,
                drift_rate_per_sec,
            } => {
                if drift_rate_per_sec > 0.0 {
                    drift_rate_per_sec / error_bound.max(1) as f64
                } else {
                    0.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_cadence_is_rate_independent() {
        let c = BackupCadence::Interval { interval_secs: 5.0 };
        assert!((c.backups_per_sec() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn divergence_cadence_scales_with_drift_rate() {
        let c = |rate: f64| BackupCadence::Divergence {
            error_bound: 500,
            drift_rate_per_sec: rate,
        };
        // A hot task ships often; a cold one rarely; an idle one never.
        assert!((c(1_000.0).backups_per_sec() - 2.0).abs() < 1e-12);
        assert!((c(100.0).backups_per_sec() - 0.2).abs() < 1e-12);
        assert_eq!(c(0.0).backups_per_sec(), 0.0);
    }

    #[test]
    fn equal_rates_make_the_families_equally_expensive() {
        // A task drifting exactly one bound per interval ships at the
        // checkpoint rate — approximate never costs *more* CPU than the
        // timer it replaces at the matched operating point.
        let interval = BackupCadence::Interval { interval_secs: 5.0 };
        let diverg = BackupCadence::Divergence {
            error_bound: 2_000,
            drift_rate_per_sec: 400.0,
        };
        assert!((interval.backups_per_sec() - diverg.backups_per_sec()).abs() < 1e-12);
    }

    #[test]
    fn degenerate_bounds_never_divide_by_zero() {
        let c = BackupCadence::Divergence {
            error_bound: 0,
            drift_rate_per_sec: 100.0,
        };
        assert!((c.backups_per_sec() - 100.0).abs() < 1e-9);
        let z = BackupCadence::Interval { interval_secs: 0.0 };
        assert_eq!(z.backups_per_sec(), 0.0);
    }
}
