//! Light-weight unit newtypes used throughout the simulator.
//!
//! Cycle counts stay plain `u64` in hot paths; these types are used at
//! configuration and reporting boundaries where unit confusion is the real
//! hazard (C-NEWTYPE).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A clock frequency.
///
/// Stored in hertz. Construct with [`Frequency::ghz`].
///
/// ```
/// use muchisim_config::Frequency;
/// let f = Frequency::ghz(2.0);
/// assert_eq!(f.period_ps(), 500.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Frequency(f64);

impl Frequency {
    /// Creates a frequency from gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not finite and positive.
    pub fn ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "frequency must be positive");
        Frequency(ghz * 1e9)
    }

    /// The frequency in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.0 / 1e9
    }

    /// The clock period in picoseconds.
    pub fn period_ps(self) -> f64 {
        1e12 / self.0
    }

    /// The clock period in integer femtoseconds (rounded, never zero).
    ///
    /// The engine's hot loop compares PU and NoC clock instants in this
    /// integer domain so that dispatch eligibility and time-leap horizons
    /// are computed with the exact same arithmetic and can never disagree
    /// by a floating-point ulp.
    pub fn period_fs(self) -> u64 {
        (self.period_ps() * 1e3).round().max(1.0) as u64
    }

    /// Converts a duration in picoseconds to a whole number of cycles of
    /// this clock, rounding up (a partial cycle still occupies the cycle).
    pub fn cycles_for_ps(self, ps: f64) -> u64 {
        (ps / self.period_ps()).ceil() as u64
    }
}

impl Default for Frequency {
    /// 1 GHz, the paper's default for all components.
    fn default() -> Self {
        Frequency::ghz(1.0)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3} GHz", self.as_ghz())
        } else {
            write!(f, "{:.3} MHz", self.0 / 1e6)
        }
    }
}

/// A time duration in picoseconds.
///
/// The simulator keeps all latency parameters in picoseconds internally so
/// that PU and NoC clock domains with arbitrary frequency ratios can be
/// composed exactly (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct TimePs(f64);

impl TimePs {
    /// Zero duration.
    pub(crate) const ZERO: TimePs = TimePs(0.0);

    /// Creates a duration from picoseconds.
    pub fn ps(ps: f64) -> Self {
        TimePs(ps)
    }

    /// Creates a duration from nanoseconds.
    pub fn ns(ns: f64) -> Self {
        TimePs(ns * 1e3)
    }

    /// Creates a duration from microseconds.
    pub fn us(us: f64) -> Self {
        TimePs(us * 1e6)
    }

    /// The duration in picoseconds.
    pub fn as_ps(self) -> f64 {
        self.0
    }

    /// The duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 / 1e12
    }
}

impl Add for TimePs {
    type Output = TimePs;
    fn add(self, rhs: TimePs) -> TimePs {
        TimePs(self.0 + rhs.0)
    }
}

impl AddAssign for TimePs {
    fn add_assign(&mut self, rhs: TimePs) {
        self.0 += rhs.0;
    }
}

impl Sub for TimePs {
    type Output = TimePs;
    fn sub(self, rhs: TimePs) -> TimePs {
        TimePs(self.0 - rhs.0)
    }
}

impl Mul<f64> for TimePs {
    type Output = TimePs;
    fn mul(self, rhs: f64) -> TimePs {
        TimePs(self.0 * rhs)
    }
}

impl Sum for TimePs {
    fn sum<I: Iterator<Item = TimePs>>(iter: I) -> TimePs {
        TimePs(iter.map(|t| t.0).sum())
    }
}

impl fmt::Display for TimePs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3} ms", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.3} us", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.3} ns", self.0 / 1e3)
        } else {
            write!(f, "{:.1} ps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_period_round_trip() {
        let f = Frequency::ghz(1.0);
        assert_eq!(f.period_ps(), 1000.0);
        assert_eq!(f.cycles_for_ps(1000.0), 1);
        assert_eq!(f.cycles_for_ps(1001.0), 2);
    }

    #[test]
    fn frequency_period_fs_integer_domain() {
        assert_eq!(Frequency::ghz(1.0).period_fs(), 1_000_000);
        assert_eq!(Frequency::ghz(2.0).period_fs(), 500_000);
        // non-integer-ps period rounds to the nearest femtosecond
        assert_eq!(Frequency::ghz(1.5).period_fs(), 666_667);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn frequency_rejects_zero() {
        let _ = Frequency::ghz(0.0);
    }

    #[test]
    fn cycles_for_partial_period_round_up() {
        // 1.5 GHz clock: period 666.67ps; 1ns = 1.5 cycles -> 2
        let f = Frequency::ghz(1.5);
        assert_eq!(f.cycles_for_ps(1000.0), 2);
    }

    #[test]
    fn time_conversions() {
        let t = TimePs::ns(4.0);
        assert_eq!(t.as_ps(), 4000.0);
        assert!((TimePs::us(1.0).as_secs() - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn time_arithmetic() {
        let t = TimePs::ns(1.0) + TimePs::ns(2.0);
        assert_eq!(t.as_ps(), 3000.0);
        assert_eq!((t - TimePs::ns(1.0)).as_ps(), 2000.0);
        assert_eq!((t * 2.0).as_ps(), 6000.0);
        let sum: TimePs = [TimePs::ns(1.0), TimePs::ns(2.0)].into_iter().sum();
        assert_eq!(sum.as_ps(), 3000.0);
    }

    #[test]
    fn time_display_scales() {
        assert_eq!(format!("{}", TimePs::ps(10.0)), "10.0 ps");
        assert_eq!(format!("{}", TimePs::ns(10.0)), "10.000 ns");
        assert_eq!(format!("{}", TimePs::us(10.0)), "10.000 us");
    }

    #[test]
    fn frequency_display() {
        assert_eq!(format!("{}", Frequency::ghz(1.0)), "1.000 GHz");
        assert_eq!(format!("{}", Frequency::ghz(0.25)), "250.000 MHz");
    }
}
