use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Simulated time, stored as an integer number of picoseconds.
///
/// Picoseconds are fine enough to represent every clock in the paper exactly
/// (500 MHz ring = 2000 ps, 250 MHz ring = 4000 ps, buses at 10–20 ns,
/// processor cycles of 1–20 ns) while `u64` still covers ~213 days of
/// simulated time.
///
/// `Time` is used both for points in time and for durations; the arithmetic
/// provided is the subset that is meaningful for either use.
///
/// # Examples
///
/// ```
/// use ringsim_types::Time;
///
/// let ring_cycle = Time::from_ns(2);
/// let mem = Time::from_ns(140);
/// assert_eq!(mem / ring_cycle, 70);
/// assert_eq!((ring_cycle * 30).as_ns_f64(), 60.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(u64);

impl Time {
    /// The zero time / zero duration.
    pub const ZERO: Time = Time(0);

    /// Creates a time from picoseconds.
    #[must_use]
    pub const fn from_ps(ps: u64) -> Self {
        Self(ps)
    }

    /// Creates a time from nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        Self(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        Self(us * 1_000_000)
    }

    /// Creates a duration from a fractional number of nanoseconds, rounding
    /// to the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    #[must_use]
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "duration must be finite and non-negative");
        Self((ns * 1_000.0).round() as u64)
    }

    /// This time in picoseconds.
    #[must_use]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time in (possibly fractional) nanoseconds.
    #[must_use]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time in (possibly fractional) seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: returns `ZERO` instead of underflowing.
    #[must_use]
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// `true` when this is the zero time.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Number of whole periods of length `period` that fit in `self`
    /// (integer division).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    #[inline]
    pub fn cycles(self, period: Time) -> u64 {
        assert!(!period.is_zero(), "period must be non-zero");
        self.0 / period.0
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0.checked_add(rhs.0).expect("simulated time overflow"))
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("simulated time underflow"))
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0.checked_mul(rhs).expect("simulated time overflow"))
    }
}

impl Div<Time> for Time {
    /// Integer division of durations: how many `rhs` fit in `self`.
    type Output = u64;
    #[inline]
    fn div(self, rhs: Time) -> u64 {
        self.cycles(rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000) {
            write!(f, "{}ns", self.0 / 1_000)
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Time::from_ns(2).as_ps(), 2_000);
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ns_f64(2.5).as_ps(), 2_500);
        assert!((Time::from_ps(1_500).as_ns_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(4);
        assert_eq!(a + b, Time::from_ns(14));
        assert_eq!(a - b, Time::from_ns(6));
        assert_eq!(a * 3, Time::from_ns(30));
        assert_eq!(a / b, 2);
        assert_eq!(a / 2, Time::from_ns(5));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Time::from_ns(1) - Time::from_ns(2);
    }

    #[test]
    fn sum_and_display() {
        let total: Time = [Time::from_ns(1), Time::from_ns(2)].into_iter().sum();
        assert_eq!(total, Time::from_ns(3));
        assert_eq!(total.to_string(), "3ns");
        assert_eq!(Time::from_ps(1_500).to_string(), "1500ps");
    }

    #[test]
    fn cycle_counts() {
        assert_eq!(Time::from_ns(141).cycles(Time::from_ns(2)), 70);
    }
}
