//! Explicit, detector-driven time.
//!
//! The paper's system model (§2) assumes a global time domain `T` that is
//! *unbeknownst to processes*: a failure detector never reads a wall clock of
//! its own. Every operation in this workspace therefore takes an explicit
//! [`Timestamp`], which may come from a real clock, a simulated clock
//! (`afd-sim`), or a drifting local clock (Appendix A.4 of the paper).
//!
//! Time is represented as non-negative nanoseconds since an arbitrary epoch.
//! Nanosecond `u64` arithmetic covers ~584 years of simulated time, far more
//! than any run needs, while staying exact (no floating-point drift in the
//! substrate itself).
//!
//! # Examples
//!
//! ```
//! use afd_core::time::{Duration, Timestamp};
//!
//! let start = Timestamp::ZERO;
//! let later = start + Duration::from_millis(1500);
//! assert_eq!(later.duration_since(start), Some(Duration::from_secs_f64(1.5)));
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (global or local) time, in nanoseconds since an arbitrary epoch.
///
/// `Timestamp` is a thin newtype over `u64` ([C-NEWTYPE]); it cannot be
/// confused with a [`Duration`] and supports only the arithmetic that makes
/// sense for absolute times (timestamp ± duration, timestamp − timestamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

/// A span of time, in nanoseconds. Always non-negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Timestamp {
    /// The epoch: time zero.
    pub const ZERO: Timestamp = Timestamp(0);
    /// The largest representable timestamp.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Creates a timestamp from raw nanoseconds since the epoch.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        Timestamp(nanos)
    }

    /// Creates a timestamp from milliseconds since the epoch.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the nanosecond representation.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        match millis.checked_mul(1_000_000) {
            Some(n) => Timestamp(n),
            #[expect(
                clippy::panic,
                reason = "documented overflow contract mirroring std::time"
            )]
            None => panic!("timestamp overflows u64 nanoseconds"),
        }
    }

    /// Creates a timestamp from whole seconds since the epoch.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the nanosecond representation.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        match secs.checked_mul(1_000_000_000) {
            Some(n) => Timestamp(n),
            #[expect(
                clippy::panic,
                reason = "documented overflow contract mirroring std::time"
            )]
            None => panic!("timestamp overflows u64 nanoseconds"),
        }
    }

    /// Creates a timestamp from fractional seconds since the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, not finite, or overflows.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        Timestamp(secs_f64_to_nanos(secs))
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The elapsed duration since `earlier`, or `None` if `earlier` is later
    /// than `self`.
    #[inline]
    pub fn duration_since(self, earlier: Timestamp) -> Option<Duration> {
        self.0.checked_sub(earlier.0).map(Duration)
    }

    /// The elapsed duration since `earlier`, clamped to zero if `earlier`
    /// is later than `self`.
    ///
    /// This mirrors `std::time::Instant::saturating_duration_since` and is
    /// the right operation when a query races a heartbeat arrival.
    #[inline]
    pub fn saturating_duration_since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    #[inline]
    pub fn checked_add(self, d: Duration) -> Option<Timestamp> {
        self.0.checked_add(d.0).map(Timestamp)
    }

    /// Checked subtraction of a duration.
    #[inline]
    pub fn checked_sub(self, d: Duration) -> Option<Timestamp> {
        self.0.checked_sub(d.0).map(Timestamp)
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable duration.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        Duration(nanos)
    }

    /// Creates a duration from microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the nanosecond representation.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        match micros.checked_mul(1_000) {
            Some(n) => Duration(n),
            #[expect(
                clippy::panic,
                reason = "documented overflow contract mirroring std::time"
            )]
            None => panic!("duration overflows u64 nanoseconds"),
        }
    }

    /// Creates a duration from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the nanosecond representation.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        match millis.checked_mul(1_000_000) {
            Some(n) => Duration(n),
            #[expect(
                clippy::panic,
                reason = "documented overflow contract mirroring std::time"
            )]
            None => panic!("duration overflows u64 nanoseconds"),
        }
    }

    /// Creates a duration from whole seconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the nanosecond representation.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        match secs.checked_mul(1_000_000_000) {
            Some(n) => Duration(n),
            #[expect(
                clippy::panic,
                reason = "documented overflow contract mirroring std::time"
            )]
            None => panic!("duration overflows u64 nanoseconds"),
        }
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, not finite, or overflows.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        Duration(secs_f64_to_nanos(secs))
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Duration) -> Option<Duration> {
        self.0.checked_add(rhs.0).map(Duration)
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, rhs: Duration) -> Option<Duration> {
        self.0.checked_sub(rhs.0).map(Duration)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by a non-negative float, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative, not finite, or the result overflows.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Duration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration factor must be finite and non-negative, got {factor}"
        );
        let nanos = self.0 as f64 * factor;
        assert!(
            nanos <= u64::MAX as f64,
            "duration overflows u64 nanoseconds"
        );
        Duration(nanos.round() as u64)
    }
}

#[track_caller]
fn secs_f64_to_nanos(secs: f64) -> u64 {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "seconds must be finite and non-negative, got {secs}"
    );
    let nanos = secs * 1e9;
    assert!(nanos <= u64::MAX as f64, "value overflows u64 nanoseconds");
    nanos.round() as u64
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "documented overflow contract mirroring std::time arithmetic"
    )]
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(
            self.0
                .checked_add(rhs.0)
                .expect("timestamp addition overflowed"),
        )
    }
}

impl AddAssign<Duration> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "documented overflow contract mirroring std::time arithmetic"
    )]
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(
            self.0
                .checked_sub(rhs.0)
                .expect("timestamp subtraction underflowed"),
        )
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    /// Elapsed time between two timestamps.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`Timestamp::saturating_duration_since`] when ordering is uncertain.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "documented overflow contract mirroring std::time arithmetic"
    )]
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("timestamp subtraction underflowed"),
        )
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "documented overflow contract mirroring std::time arithmetic"
    )]
    fn add(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_add(rhs.0)
                .expect("duration addition overflowed"),
        )
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "documented overflow contract mirroring std::time arithmetic"
    )]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflowed"),
        )
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u32> for Duration {
    type Output = Duration;
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "documented overflow contract mirroring std::time arithmetic"
    )]
    fn mul(self, rhs: u32) -> Duration {
        Duration(
            self.0
                .checked_mul(rhs as u64)
                .expect("duration multiplication overflowed"),
        )
    }
}

impl Div<u32> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u32) -> Duration {
        Duration(self.0 / rhs as u64)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |acc, d| acc + d)
    }
}

impl From<std::time::Duration> for Duration {
    fn from(d: std::time::Duration) -> Self {
        Duration(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

impl From<Duration> for std::time::Duration {
    fn from(d: Duration) -> Self {
        std::time::Duration::from_nanos(d.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nanos = self.0;
        if nanos >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if nanos >= 1_000_000 {
            write!(f, "{:.3}ms", nanos as f64 / 1e6)
        } else if nanos >= 1_000 {
            write!(f, "{:.3}µs", nanos as f64 / 1e3)
        } else {
            write!(f, "{nanos}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_roundtrips_units() {
        assert_eq!(Timestamp::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(Timestamp::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(Timestamp::from_secs_f64(1.25).as_secs_f64(), 1.25);
    }

    #[test]
    fn duration_roundtrips_units() {
        assert_eq!(Duration::from_secs(2).as_millis(), 2000);
        assert_eq!(Duration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(Duration::from_secs_f64(0.5).as_secs_f64(), 0.5);
    }

    #[test]
    fn timestamp_duration_arithmetic() {
        let t = Timestamp::from_secs(10);
        let d = Duration::from_secs(4);
        assert_eq!(t + d, Timestamp::from_secs(14));
        assert_eq!(t - d, Timestamp::from_secs(6));
        assert_eq!(t + d - t, d);
    }

    #[test]
    fn duration_since_orders() {
        let a = Timestamp::from_secs(1);
        let b = Timestamp::from_secs(3);
        assert_eq!(b.duration_since(a), Some(Duration::from_secs(2)));
        assert_eq!(a.duration_since(b), None);
        assert_eq!(a.saturating_duration_since(b), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflowed")]
    fn timestamp_sub_panics_on_reversed_order() {
        let _ = Timestamp::from_secs(1) - Timestamp::from_secs(2);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = Duration::from_nanos(10);
        assert_eq!(d.mul_f64(1.5), Duration::from_nanos(15));
        assert_eq!(d.mul_f64(0.0), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn mul_f64_rejects_negative() {
        let _ = Duration::from_secs(1).mul_f64(-1.0);
    }

    #[test]
    fn std_duration_conversions() {
        let d = Duration::from_millis(250);
        let std_d: std::time::Duration = d.into();
        assert_eq!(std_d, std::time::Duration::from_millis(250));
        assert_eq!(Duration::from(std_d), d);
    }

    #[test]
    fn display_is_nonempty_and_scaled() {
        assert_eq!(format!("{}", Duration::from_nanos(3)), "3ns");
        assert_eq!(format!("{}", Duration::from_micros(3)), "3.000µs");
        assert_eq!(format!("{}", Duration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", Duration::from_secs(3)), "3.000s");
        assert!(!format!("{}", Timestamp::ZERO).is_empty());
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [1u64, 2, 3].iter().map(|&s| Duration::from_secs(s)).sum();
        assert_eq!(total, Duration::from_secs(6));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            Timestamp::MAX.saturating_add(Duration::from_secs(1)),
            Timestamp::MAX
        );
        assert_eq!(
            Duration::from_secs(1).saturating_sub(Duration::from_secs(2)),
            Duration::ZERO
        );
    }
}
