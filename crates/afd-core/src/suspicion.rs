//! The suspicion level `sl_qp` (Definition 1 of the paper).
//!
//! An accrual failure detector outputs, for each monitored process, a
//! non-negative real *suspicion level*: zero means "not suspected at all"
//! and larger values mean stronger suspicion. Definition 1 additionally
//! requires a *finite resolution*: the level may only assume integer
//! multiples of some (arbitrarily small but non-infinitesimal) constant ε.
//!
//! [`SuspicionLevel`] enforces the domain invariant (non-negative, not NaN;
//! `+∞` is allowed and means certainty — e.g. the φ detector's
//! `−log₁₀(P_later)` diverges when the tail probability underflows), and
//! [`SuspicionLevel::quantize`] maps a raw level onto the ε-grid. Detector
//! implementations compute at full float precision; the formal layer
//! (transformations, property checkers) quantizes, exactly as Definition 1
//! intends.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, Sub};

use crate::error::InvalidSuspicionError;

/// A non-negative suspicion level (Definition 1).
///
/// # Examples
///
/// ```
/// use afd_core::suspicion::SuspicionLevel;
///
/// let sl = SuspicionLevel::new(1.75)?;
/// assert_eq!(sl.value(), 1.75);
/// // Quantized onto the ε = 0.5 grid (rounds half-up onto multiples of ε):
/// assert_eq!(sl.quantize(0.5), SuspicionLevel::new(2.0)?);
/// # Ok::<(), afd_core::error::InvalidSuspicionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuspicionLevel(f64);

impl SuspicionLevel {
    /// The zero suspicion level: "not suspected at all".
    pub const ZERO: SuspicionLevel = SuspicionLevel(0.0);

    /// Total certainty that the process has failed (`+∞`).
    ///
    /// Produced, for instance, by the φ detector when the tail probability
    /// underflows to zero. Infinite levels still satisfy the ordering and
    /// threshold semantics (`∞ > T` for every finite threshold `T`).
    pub const INFINITE: SuspicionLevel = SuspicionLevel(f64::INFINITY);

    /// Creates a suspicion level from a raw value.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSuspicionError`] if `value` is NaN or negative.
    #[inline]
    pub fn new(value: f64) -> Result<Self, InvalidSuspicionError> {
        if value.is_nan() || value < 0.0 {
            Err(InvalidSuspicionError { value })
        } else {
            // `+ 0.0` normalizes a -0.0 input to +0.0 for total ordering.
            Ok(SuspicionLevel(value + 0.0))
        }
    }

    /// Creates a suspicion level, clamping negative values to zero.
    ///
    /// This is the convenient constructor for detector implementations whose
    /// formulas can go slightly negative (e.g. Chen's `t − EA` before the
    /// expected arrival time).
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    #[inline]
    pub fn clamped(value: f64) -> Self {
        assert!(!value.is_nan(), "suspicion level must not be NaN");
        // `+ 0.0` normalizes -0.0 to +0.0 (f64::max(-0.0, 0.0) is -0.0,
        // which `total_cmp` would order below zero).
        SuspicionLevel(value.max(0.0) + 0.0)
    }

    /// The raw value.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// `true` if the level is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        // lint:allow(no-float-eq, exact-zero is this predicate's documented meaning)
        self.0 == 0.0
    }

    /// `true` if the level is `+∞`.
    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }

    /// Rounds the level to the nearest integer multiple of `epsilon`
    /// (Definition 1's finite resolution; ties round up).
    ///
    /// Infinite levels stay infinite.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not finite and strictly positive.
    #[inline]
    pub fn quantize(self, epsilon: f64) -> SuspicionLevel {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "resolution ε must be finite and positive, got {epsilon}"
        );
        if self.0.is_infinite() {
            return self;
        }
        SuspicionLevel((self.0 / epsilon).round() * epsilon)
    }

    /// The number of ε-steps this level represents, i.e. `round(sl / ε)`.
    ///
    /// Returns `None` for infinite levels or when the step count does not
    /// fit in `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not finite and strictly positive.
    #[inline]
    pub fn steps(self, epsilon: f64) -> Option<u64> {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "resolution ε must be finite and positive, got {epsilon}"
        );
        if self.0.is_infinite() {
            return None;
        }
        let steps = (self.0 / epsilon).round();
        (steps <= u64::MAX as f64).then_some(steps as u64)
    }

    /// The larger of two levels.
    #[inline]
    pub fn max(self, other: SuspicionLevel) -> SuspicionLevel {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two levels.
    #[inline]
    pub fn min(self, other: SuspicionLevel) -> SuspicionLevel {
        if self <= other {
            self
        } else {
            other
        }
    }
}

// The invariant (never NaN) makes the order total.
impl Eq for SuspicionLevel {}

impl PartialOrd for SuspicionLevel {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SuspicionLevel {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for SuspicionLevel {
    type Output = SuspicionLevel;
    #[inline]
    fn add(self, rhs: SuspicionLevel) -> SuspicionLevel {
        SuspicionLevel(self.0 + rhs.0)
    }
}

impl Sub for SuspicionLevel {
    type Output = SuspicionLevel;
    /// Saturating difference: never goes below zero (the domain is `R₀⁺`).
    #[inline]
    fn sub(self, rhs: SuspicionLevel) -> SuspicionLevel {
        if self.0.is_infinite() && rhs.0.is_infinite() {
            return SuspicionLevel::ZERO;
        }
        SuspicionLevel((self.0 - rhs.0).max(0.0))
    }
}

impl Default for SuspicionLevel {
    fn default() -> Self {
        SuspicionLevel::ZERO
    }
}

impl fmt::Display for SuspicionLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "sl=∞")
        } else {
            write!(f, "sl={:.4}", self.0)
        }
    }
}

impl TryFrom<f64> for SuspicionLevel {
    type Error = InvalidSuspicionError;
    fn try_from(value: f64) -> Result<Self, Self::Error> {
        SuspicionLevel::new(value)
    }
}

impl From<SuspicionLevel> for f64 {
    fn from(sl: SuspicionLevel) -> f64 {
        sl.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_domain() {
        assert!(SuspicionLevel::new(0.0).is_ok());
        assert!(SuspicionLevel::new(42.5).is_ok());
        assert!(SuspicionLevel::new(f64::INFINITY).is_ok());
        assert!(SuspicionLevel::new(-0.001).is_err());
        assert!(SuspicionLevel::new(f64::NAN).is_err());
    }

    #[test]
    fn clamped_handles_negatives() {
        assert_eq!(SuspicionLevel::clamped(-3.0), SuspicionLevel::ZERO);
        assert_eq!(SuspicionLevel::clamped(3.0).value(), 3.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn clamped_rejects_nan() {
        let _ = SuspicionLevel::clamped(f64::NAN);
    }

    #[test]
    fn quantize_rounds_to_grid() {
        let sl = SuspicionLevel::new(1.24).unwrap();
        assert_eq!(sl.quantize(0.5).value(), 1.0);
        // Nearest multiple of 0.1 (up to float representation of 12 × 0.1).
        assert!((sl.quantize(0.1).value() - 1.2).abs() < 1e-12);
        assert_eq!(
            SuspicionLevel::INFINITE.quantize(0.5),
            SuspicionLevel::INFINITE
        );
    }

    #[test]
    fn steps_counts_epsilon_multiples() {
        let sl = SuspicionLevel::new(2.5).unwrap();
        assert_eq!(sl.steps(0.5), Some(5));
        assert_eq!(SuspicionLevel::INFINITE.steps(0.5), None);
    }

    #[test]
    fn ordering_is_total_and_infinity_dominates() {
        let a = SuspicionLevel::new(1.0).unwrap();
        let b = SuspicionLevel::new(2.0).unwrap();
        assert!(a < b);
        assert!(b < SuspicionLevel::INFINITE);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        let a = SuspicionLevel::new(1.0).unwrap();
        let b = SuspicionLevel::new(2.0).unwrap();
        assert_eq!(a - b, SuspicionLevel::ZERO);
        assert_eq!((b - a).value(), 1.0);
        assert_eq!(
            SuspicionLevel::INFINITE - SuspicionLevel::INFINITE,
            SuspicionLevel::ZERO
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(SuspicionLevel::new(1.5).unwrap().to_string(), "sl=1.5000");
        assert_eq!(SuspicionLevel::INFINITE.to_string(), "sl=∞");
    }

    #[test]
    fn conversions() {
        let sl = SuspicionLevel::try_from(3.0).unwrap();
        assert_eq!(f64::from(sl), 3.0);
        assert!(SuspicionLevel::try_from(-1.0).is_err());
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(SuspicionLevel::default(), SuspicionLevel::ZERO);
    }
}
