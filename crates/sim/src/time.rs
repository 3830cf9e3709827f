//! Virtual time: instants and durations in integer microseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in virtual time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// A sentinel far in the future (used for "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration since an earlier instant (saturating at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the duration by a non-negative factor.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0 && factor.is_finite());
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_micros(5_000).as_micros(), 5_000);
        assert!((SimTime::from_micros(1_250_000).as_secs_f64() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimDuration::from_secs(20), SimTime::ZERO, "saturating");
        assert_eq!(t.since(SimTime::from_secs(12)), SimDuration::from_secs(3));
        assert_eq!(SimTime::from_secs(12).since(t), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs(4) * 3, SimDuration::from_secs(12));
        assert_eq!(SimDuration::from_secs(12) / 4, SimDuration::from_secs(3));
    }

    #[test]
    fn mul_f64_scales() {
        assert_eq!(
            SimDuration::from_secs(10).mul_f64(0.25),
            SimDuration::from_micros(2_500_000)
        );
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_micros(1_500_000).to_string(), "1.500s");
    }
}
