//! Virtual time: [`SimTime`] instants and [`SimDuration`] spans.
//!
//! Both are newtypes over nanosecond counts (`u64`), giving the simulation a
//! range of roughly 584 virtual years — far beyond any experiment horizon —
//! while staying `Copy` and totally ordered.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the virtual clock, measured in nanoseconds since simulation start.
///
/// ```
/// use fabricsim_des::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_secs(2);
/// assert_eq!(t.as_secs_f64(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, measured in nanoseconds.
///
/// ```
/// use fabricsim_des::SimDuration;
/// assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as an "unscheduled"/sentinel marker.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs an instant at the given number of nanoseconds since start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Constructs an instant at the given number of seconds since start.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid sim time: {secs}");
        SimTime((secs * 1e9).round() as u64)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, saturating at zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs a span from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Constructs a span from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Constructs a span from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Constructs a span from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Constructs a span from fractional seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative, NaN or infinite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid duration: {secs}");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Constructs a span from fractional milliseconds.
    pub fn from_millis_f64(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1e3)
    }

    /// The span as nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Checked subtraction, `None` on underflow.
    pub fn checked_sub(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(other.0).map(SimDuration)
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[expect(
        clippy::expect_used,
        reason = "deliberate guard: wrap-around would silently corrupt sim time"
    )]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("sim time overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "deliberate guard: wrap-around would silently corrupt sim time"
    )]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("sim time underflow"))
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[expect(
        clippy::expect_used,
        reason = "deliberate guard: wrap-around would silently corrupt sim time"
    )]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("sim time underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "deliberate guard: wrap-around would silently corrupt durations"
    )]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "deliberate guard: wrap-around would silently corrupt durations"
    )]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "deliberate guard: wrap-around would silently corrupt durations"
    )]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
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
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_micros(2).as_nanos(), 2_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_secs_f64(), 0.5);
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        let u = t + SimDuration::from_millis(500);
        assert_eq!(u - t, SimDuration::from_millis(500));
        assert_eq!(u.saturating_since(t).as_millis_f64(), 500.0);
        assert_eq!(t.saturating_since(u), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis(4) / 2, SimDuration::from_millis(2));
        assert_eq!(SimDuration::from_millis(4) * 2, SimDuration::from_millis(8));
    }

    #[test]
    fn ordering_and_max() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(
            SimDuration::from_nanos(5).max(SimDuration::from_nanos(9)),
            SimDuration::from_nanos(9)
        );
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn time_subtraction_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn checked_sub() {
        let a = SimDuration::from_nanos(5);
        let b = SimDuration::from_nanos(7);
        assert_eq!(b.checked_sub(a), Some(SimDuration::from_nanos(2)));
        assert_eq!(a.checked_sub(b), None);
    }
}
