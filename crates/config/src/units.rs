//! Light-weight unit newtypes used throughout the simulator.
//!
//! Cycle counts stay plain `u64` in hot paths; these types are used at
//! configuration and reporting boundaries where unit confusion is the real
//! hazard (C-NEWTYPE).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A clock frequency.
///
/// Stored in hertz. Construct with [`Frequency::ghz`] or [`Frequency::mhz`].
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

    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not finite and positive.
    pub fn mhz(mhz: f64) -> Self {
        assert!(mhz.is_finite() && mhz > 0.0, "frequency must be positive");
        Frequency(mhz * 1e6)
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
    pub const ZERO: TimePs = TimePs(0.0);

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

    /// The duration in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 / 1e3
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

/// An energy amount in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from picojoules.
    pub fn pj(pj: f64) -> Self {
        Energy(pj)
    }

    /// The energy in joules.
    pub fn as_joules(self) -> f64 {
        self.0 / 1e12
    }

    /// Average power in watts over `time`.
    ///
    /// Returns 0 for a zero-length interval rather than dividing by zero.
    pub fn power_over(self, time: TimePs) -> f64 {
        if time.as_secs() == 0.0 {
            0.0
        } else {
            self.as_joules() / time.as_secs()
        }
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        Energy(iter.map(|e| e.0).sum())
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e12 {
            write!(f, "{:.3} J", self.0 / 1e12)
        } else if self.0 >= 1e9 {
            write!(f, "{:.3} mJ", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.3} uJ", self.0 / 1e6)
        } else {
            write!(f, "{:.1} pJ", self.0)
        }
    }
}

/// A silicon area in square millimeters.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Area(f64);

impl Area {
    /// Zero area.
    pub const ZERO: Area = Area(0.0);

    /// Creates an area from square millimeters.
    pub fn mm2(mm2: f64) -> Self {
        Area(mm2)
    }

    /// The area in square millimeters.
    pub fn as_mm2(self) -> f64 {
        self.0
    }
}

impl Add for Area {
    type Output = Area;
    fn add(self, rhs: Area) -> Area {
        Area(self.0 + rhs.0)
    }
}

impl AddAssign for Area {
    fn add_assign(&mut self, rhs: Area) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Area {
    type Output = Area;
    fn mul(self, rhs: f64) -> Area {
        Area(self.0 * rhs)
    }
}

impl Div<f64> for Area {
    type Output = Area;
    fn div(self, rhs: f64) -> Area {
        Area(self.0 / rhs)
    }
}

impl Sum for Area {
    fn sum<I: Iterator<Item = Area>>(iter: I) -> Area {
        Area(iter.map(|a| a.0).sum())
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} mm^2", self.0)
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
    fn frequency_mhz_constructor() {
        let f = Frequency::mhz(500.0);
        assert_eq!(f.period_ps(), 2000.0);
        assert_eq!(f.as_ghz(), 0.5);
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
        assert_eq!(t.as_ns(), 4.0);
        assert!((TimePs::us(1.0).as_secs() - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn time_arithmetic() {
        let t = TimePs::ns(1.0) + TimePs::ns(2.0);
        assert_eq!(t.as_ns(), 3.0);
        assert_eq!((t - TimePs::ns(1.0)).as_ns(), 2.0);
        assert_eq!((t * 2.0).as_ns(), 6.0);
        let sum: TimePs = [TimePs::ns(1.0), TimePs::ns(2.0)].into_iter().sum();
        assert_eq!(sum.as_ns(), 3.0);
    }

    #[test]
    fn energy_power() {
        // 1 J over 1 s = 1 W
        let e = Energy::pj(1e12);
        assert_eq!(e.power_over(TimePs::ps(1e12)), 1.0);
        assert_eq!(Energy::ZERO.power_over(TimePs::ZERO), 0.0);
    }

    #[test]
    fn energy_display_scales() {
        assert_eq!(format!("{}", Energy::pj(5.0)), "5.0 pJ");
        assert_eq!(format!("{}", Energy::pj(5e6)), "5.000 uJ");
        assert_eq!(format!("{}", Energy::pj(5e9)), "5.000 mJ");
    }

    #[test]
    fn time_display_scales() {
        assert_eq!(format!("{}", TimePs::ps(10.0)), "10.0 ps");
        assert_eq!(format!("{}", TimePs::ns(10.0)), "10.000 ns");
        assert_eq!(format!("{}", TimePs::us(10.0)), "10.000 us");
    }

    #[test]
    fn area_arithmetic() {
        let a = Area::mm2(2.0) + Area::mm2(3.0);
        assert_eq!(a.as_mm2(), 5.0);
        assert_eq!((a * 2.0).as_mm2(), 10.0);
        assert_eq!((a / 2.0).as_mm2(), 2.5);
    }

    #[test]
    fn frequency_display() {
        assert_eq!(format!("{}", Frequency::ghz(1.0)), "1.000 GHz");
        assert_eq!(format!("{}", Frequency::mhz(250.0)), "250.000 MHz");
    }
}
