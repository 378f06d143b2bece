//! Virtual-time newtypes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time with nanosecond precision.
///
/// `SimDuration` is the unit in which every simulated component expresses
/// its costs. It deliberately mirrors the arithmetic surface of
/// [`std::time::Duration`] but is a plain `u64` of nanoseconds underneath,
/// which keeps the simulation hot paths allocation- and branch-free.
///
/// # Example
///
/// ```
/// use fluidmem_sim::SimDuration;
///
/// let fault = SimDuration::from_micros(25) + SimDuration::from_nanos(500);
/// assert_eq!(fault.as_nanos(), 25_500);
/// assert!((fault.as_micros_f64() - 25.5).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from a fractional count of microseconds.
    ///
    /// Negative or non-finite inputs saturate to zero.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        if us.is_finite() && us > 0.0 {
            SimDuration((us * 1_000.0).round() as u64)
        } else {
            SimDuration::ZERO
        }
    }

    /// Creates a duration from a fractional count of seconds.
    ///
    /// Negative or non-finite inputs saturate to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_finite() && s > 0.0 {
            SimDuration((s * 1_000_000_000.0).round() as u64)
        } else {
            SimDuration::ZERO
        }
    }

    /// The duration in whole nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration as fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration as fractional milliseconds.
    #[inline]
    pub(crate) fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Whether the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two durations.
    #[inline]
    pub(crate) fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}µs", self.as_micros_f64())
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

/// A point in virtual time, measured from the start of the simulation.
///
/// # Example
///
/// ```
/// use fluidmem_sim::{SimDuration, SimInstant};
///
/// let t0 = SimInstant::EPOCH;
/// let t1 = t0 + SimDuration::from_micros(10);
/// assert_eq!(t1 - t0, SimDuration::from_micros(10));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The beginning of simulated time.
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Constructs an instant from raw nanoseconds since the epoch.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimInstant(ns)
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Virtual time elapsed since `earlier`, clamping at zero if `earlier`
    /// is in the future.
    #[inline]
    pub const fn saturating_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<SimDuration> for SimInstant {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<SimDuration> for SimInstant {
    type Output = SimInstant;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 - rhs.as_nanos())
    }
}

impl Sub for SimInstant {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimInstant) -> SimDuration {
        SimDuration::from_nanos(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration::from_nanos(self.0))
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration::from_nanos(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
    }

    #[test]
    fn duration_float_round_trip() {
        let d = SimDuration::from_micros_f64(12.345);
        assert_eq!(d.as_nanos(), 12_345);
        assert!((d.as_micros_f64() - 12.345).abs() < 1e-9);
    }

    #[test]
    fn duration_float_saturates_on_bad_input() {
        assert_eq!(SimDuration::from_micros_f64(-5.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_micros(10);
        let b = SimDuration::from_micros(3);
        assert_eq!(a + b, SimDuration::from_micros(13));
        assert_eq!(a - b, SimDuration::from_micros(7));
        assert_eq!(a * 2, SimDuration::from_micros(20));
        assert_eq!(a / 2, SimDuration::from_micros(5));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total, SimDuration::from_micros(10));
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimInstant::EPOCH + SimDuration::from_micros(5);
        assert_eq!(t.as_nanos(), 5_000);
        assert_eq!(t - SimInstant::EPOCH, SimDuration::from_micros(5));
        assert_eq!(
            SimInstant::EPOCH.saturating_since(t),
            SimDuration::ZERO,
            "saturating_since clamps when earlier is in the future"
        );
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000µs");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(format!("{:?}", SimDuration::from_micros(1)), "1.000µs");
    }
}
