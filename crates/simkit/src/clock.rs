//! Simulated time base.
//!
//! All simulators in the workspace express time in [`Cycle`]s of a
//! reference clock. Conversion to nanoseconds happens where results are
//! reported (the server harness in `platforms`).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in cycles of a reference clock.
///
/// `Cycle` is an ordered, copyable newtype over `u64` ([C-NEWTYPE]): it
/// cannot be confused with byte counts or identifiers.
///
/// # Example
///
/// ```
/// use simkit::Cycle;
/// let t = Cycle(100) + 20;
/// assert_eq!(t, Cycle(120));
/// assert_eq!(t - Cycle(100), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the raw cycle count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction; returns the number of cycles between `self`
    /// and an earlier time, or 0 if `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    /// Number of cycles elapsed between two points in time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "negative cycle interval");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle(10);
        assert_eq!(a + 5, Cycle(15));
        assert_eq!(Cycle(15) - a, 5);
        assert_eq!(a.saturating_since(Cycle(20)), 0);
        assert_eq!(Cycle(20).saturating_since(a), 10);
    }

    #[test]
    fn cycle_ordering_and_display() {
        assert!(Cycle(1) < Cycle(2));
        assert_eq!(Cycle(7).to_string(), "7cyc");
        assert_eq!(Cycle::default(), Cycle::ZERO);
    }

    #[test]
    #[cfg(debug_assertions)] // the check is a debug_assert
    #[should_panic(expected = "negative cycle interval")]
    fn cycle_negative_interval_panics() {
        let _ = Cycle(1) - Cycle(2);
    }
}
