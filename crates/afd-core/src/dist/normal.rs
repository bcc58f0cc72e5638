//! The normal inter-arrival model named by §5.3 of the paper.
//!
//! A tail query is `½·erfc(u)` at `u = (x − mean)·1/(σ√2)`: the model
//! pays its divisions once, at construction, and
//! [`log10_sf`](ArrivalDistribution::log10_sf) is a subtract, a multiply and
//! one `ln(½·erfc(u))` from the kernel in `erf.rs` — which, for the
//! `u ∈ [−6, 0.5)` a live process occupies between two heartbeats, is a
//! single polynomial.

use core::f64::consts::LOG10_E;

use crate::error::ConfigError;

use super::erf::{erfc, ln_half_erfc};
use super::ArrivalDistribution;

const SQRT_2: f64 = core::f64::consts::SQRT_2;

/// A normal distribution `N(mean, std²)`.
///
/// # Examples
///
/// ```
/// use afd_core::dist::{ArrivalDistribution, Normal};
///
/// let n = Normal::new(1.0, 0.1)?;
/// // At the mean, half the mass is in the tail.
/// assert!((n.sf(1.0) - 0.5).abs() < 1e-12);
/// // Three sigmas out, about 0.13%.
/// assert!((n.sf(1.3) - 1.3498980316300945e-3).abs() < 1e-9);
/// # Ok::<(), afd_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
    /// `1/(std·√2)`, so a tail query is a subtract and a multiply away from
    /// `erfc`'s argument: callers that query one model many times (a
    /// detector between two heartbeats) pay the divisions once, here.
    erfc_scale: f64,
}

impl Normal {
    /// Creates a normal model.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `mean` is not finite or `std` is not a
    /// finite positive number.
    pub fn new(mean: f64, std: f64) -> Result<Self, ConfigError> {
        if !mean.is_finite() {
            return Err(ConfigError::new(format!(
                "normal mean must be finite, got {mean}"
            )));
        }
        if !std.is_finite() || std <= 0.0 {
            return Err(ConfigError::new(format!(
                "normal std dev must be finite and positive, got {std}"
            )));
        }
        Ok(Normal {
            mean,
            std,
            // A subnormal σ would make this ∞ and the tail at the mean
            // `0·∞`; the largest finite scale keeps it at 0.
            erfc_scale: (1.0 / (std * SQRT_2)).min(f64::MAX),
        })
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std
    }

    /// `1/(std·√2)`: what [`log10_sf`](ArrivalDistribution::log10_sf)
    /// multiplies `x − mean` by to get `erfc`'s argument.
    pub fn erfc_scale(&self) -> f64 {
        self.erfc_scale
    }

    /// The standard score `(x − mean) / std`.
    #[inline]
    pub fn z(&self, x: f64) -> f64 {
        (x - self.mean) / self.std
    }

    /// `z/√2`: the argument `erfc` takes for the upper tail at `x`.
    #[inline]
    fn u(&self, x: f64) -> f64 {
        (x - self.mean) * self.erfc_scale
    }

    /// The cumulative distribution function `P(X ≤ x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        0.5 * erfc(-self.u(x))
    }
}

impl ArrivalDistribution for Normal {
    fn sf(&self, x: f64) -> f64 {
        0.5 * erfc(self.u(x))
    }

    #[inline]
    fn log10_sf(&self, x: f64) -> f64 {
        // ln(0.5 · erfc(u)); the log stays finite long after erfc underflows.
        ln_half_erfc(self.u(x)) * LOG10_E
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates() {
        assert!(Normal::new(1.0, 0.5).is_ok());
        assert!(Normal::new(f64::NAN, 0.5).is_err());
        assert!(Normal::new(1.0, 0.0).is_err());
        assert!(Normal::new(1.0, -1.0).is_err());
        assert!(Normal::new(1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn cdf_and_sf_are_complementary() {
        let n = Normal::new(2.0, 0.5).unwrap();
        for &x in &[0.0, 1.0, 2.0, 2.5, 4.0] {
            assert!((n.cdf(x) + n.sf(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn standard_normal_quantiles() {
        let n = Normal::new(0.0, 1.0).unwrap();
        // Φ̄(1.96) ≈ 0.025 (two-sided 5%).
        assert!((n.sf(1.959963984540054) - 0.025).abs() < 1e-9);
        // Φ̄(0) = 0.5.
        assert!((n.sf(0.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn log10_sf_matches_sf_in_representable_range() {
        let n = Normal::new(1.0, 0.2).unwrap();
        for &x in &[1.0, 1.2, 1.5, 2.0, 3.0] {
            let direct = n.sf(x).log10();
            assert!(
                (n.log10_sf(x) - direct).abs() < 1e-9,
                "x={x}: {} vs {direct}",
                n.log10_sf(x)
            );
        }
    }

    #[test]
    fn log10_sf_grows_unbounded_past_underflow() {
        let n = Normal::new(1.0, 0.1).unwrap();
        // z = 60, 100, 200: sf underflows but the log keeps falling.
        let a = n.log10_sf(7.0);
        let b = n.log10_sf(11.0);
        let c = n.log10_sf(21.0);
        assert!(a.is_finite() && b.is_finite() && c.is_finite());
        assert!(b < a && c < b);
        assert!(c < -1000.0, "far tail should be enormous, got {c}");
    }

    #[test]
    fn subnormal_std_dev_keeps_the_tail_at_the_mean_defined() {
        let n = Normal::new(1.0, 5e-324).unwrap();
        assert_eq!(n.sf(1.0), 0.5);
        assert_eq!(n.sf(0.5), 1.0);
        assert_eq!(n.log10_sf(1.5), f64::NEG_INFINITY);
        assert!((n.log10_sf(1.0) - 0.5f64.log10()).abs() < 1e-15);
    }

    #[test]
    fn z_scores() {
        let n = Normal::new(10.0, 2.0).unwrap();
        assert_eq!(n.z(14.0), 2.0);
        assert_eq!(n.mean(), 10.0);
        assert_eq!(n.std_dev(), 2.0);
    }
}
