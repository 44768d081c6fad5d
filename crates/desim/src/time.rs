//! Simulated time.
//!
//! All simulated time in this workspace is kept as integer nanoseconds.
//! [`SimTime`] is an absolute instant since the start of the simulation and
//! [`SimDelta`] is a span between instants. Using integers keeps the event
//! calendar totally ordered and runs reproducible; using newtypes keeps
//! instants and spans from being confused ([C-NEWTYPE]).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of simulated time, in nanoseconds since time zero.
///
/// # Example
///
/// ```
/// use desim::{SimDelta, SimTime};
/// let t = SimTime::from_ms(16) + SimDelta::from_us(660);
/// assert_eq!(t.as_ns(), 16_660_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use desim::SimDelta;
/// assert_eq!(SimDelta::from_us(3) * 2, SimDelta::from_us(6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDelta(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ns` nanoseconds after time zero.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }
    /// Creates an instant `us` microseconds after time zero.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }
    /// Creates an instant `ms` milliseconds after time zero.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
    /// Creates an instant `s` seconds after time zero.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// This instant as integer nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }
    /// This instant as (fractional) microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e3
    }
    /// This instant as (fractional) milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// This instant as (fractional) seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is after `self`.
    pub fn since(self, earlier: SimTime) -> SimDelta {
        debug_assert!(earlier <= self, "since() across negative span");
        SimDelta(self.0 - earlier.0)
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDelta {
        SimDelta(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDelta {
    /// The empty span.
    pub const ZERO: SimDelta = SimDelta(0);

    /// Creates a span of `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDelta(ns)
    }
    /// Creates a span of `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDelta(us * 1_000)
    }
    /// Creates a span of `ms` milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDelta(ms * 1_000_000)
    }
    /// Creates a span of `ms` milliseconds, or `None` if it does not fit
    /// in `u64` nanoseconds (about 584 years). Use it for spans read from
    /// input, where [`SimDelta::from_ms`] would overflow.
    ///
    /// ```
    /// use desim::SimDelta;
    /// assert_eq!(SimDelta::checked_from_ms(20), Some(SimDelta::from_ms(20)));
    /// assert_eq!(SimDelta::checked_from_ms(18_446_744_073_710), None);
    /// ```
    pub const fn checked_from_ms(ms: u64) -> Option<Self> {
        match ms.checked_mul(1_000_000) {
            Some(ns) => Some(SimDelta(ns)),
            None => None,
        }
    }
    /// Creates a span of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDelta(s * 1_000_000_000)
    }
    /// Creates a span from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid span: {secs}");
        SimDelta((secs * 1e9).round() as u64)
    }

    /// This span as integer nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }
    /// This span as (fractional) microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e3
    }
    /// This span as (fractional) milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// This span as (fractional) seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The longer of two spans.
    pub fn max(self, other: SimDelta) -> SimDelta {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The shorter of two spans.
    pub fn min(self, other: SimDelta) -> SimDelta {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, other: SimDelta) -> SimDelta {
        SimDelta(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDelta> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDelta) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDelta> for SimTime {
    fn add_assign(&mut self, rhs: SimDelta) {
        *self = *self + rhs;
    }
}

impl Sub<SimDelta> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDelta) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDelta {
    type Output = SimDelta;
    fn add(self, rhs: SimDelta) -> SimDelta {
        SimDelta(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDelta {
    fn add_assign(&mut self, rhs: SimDelta) {
        *self = *self + rhs;
    }
}

impl Sub for SimDelta {
    type Output = SimDelta;
    fn sub(self, rhs: SimDelta) -> SimDelta {
        SimDelta(self.0.checked_sub(rhs.0).expect("SimDelta underflow"))
    }
}

impl SubAssign for SimDelta {
    fn sub_assign(&mut self, rhs: SimDelta) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDelta {
    type Output = SimDelta;
    fn mul(self, rhs: u64) -> SimDelta {
        SimDelta(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDelta {
    type Output = SimDelta;
    fn div(self, rhs: u64) -> SimDelta {
        SimDelta(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDelta(self.0))
    }
}

impl fmt::Display for SimDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0ns")
        } else if ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(SimTime::from_us(1).as_ns(), 1_000);
        assert_eq!(SimTime::from_ms(1).as_ns(), 1_000_000);
        assert_eq!(SimTime::from_secs(1).as_ns(), 1_000_000_000);
        assert_eq!(SimDelta::from_ms(16).as_secs(), 0.016);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ms(5) + SimDelta::from_us(500);
        assert_eq!(t.as_ns(), 5_500_000);
        assert_eq!(t.since(SimTime::from_ms(5)), SimDelta::from_us(500));
        assert_eq!(t - SimDelta::from_us(500), SimTime::from_ms(5));
        assert_eq!(SimDelta::from_us(2) * 3, SimDelta::from_us(6));
        assert_eq!(SimDelta::from_us(6) / 3, SimDelta::from_us(2));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_ms(1);
        let b = SimTime::from_ms(2);
        assert_eq!(a.saturating_since(b), SimDelta::ZERO);
        assert_eq!(b.saturating_since(a), SimDelta::from_ms(1));
    }

    #[test]
    #[should_panic(expected = "SimTime underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_ns(1) - SimDelta::from_ns(2);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDelta::from_secs_f64(1.0 / 60.0).as_ns(), 16_666_667);
    }

    #[test]
    #[should_panic(expected = "invalid span")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDelta::from_secs_f64(-1.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDelta::from_ns(12).to_string(), "12ns");
        assert_eq!(SimDelta::from_us(12).to_string(), "12.000us");
        assert_eq!(SimDelta::from_ms(12).to_string(), "12.000ms");
        assert_eq!(SimDelta::from_secs(2).to_string(), "2s");
        assert_eq!(SimDelta::ZERO.to_string(), "0ns");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_ns(1);
        let b = SimTime::from_ns(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(SimDelta::from_ns(1).max(SimDelta::from_ns(2)).as_ns(), 2);
        assert_eq!(SimDelta::from_ns(1).min(SimDelta::from_ns(2)).as_ns(), 1);
    }
}
