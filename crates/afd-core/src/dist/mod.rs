//! Probability models for heartbeat inter-arrival times (§5.3 of the paper).
//!
//! The φ detector "estimates the full distribution" of inter-arrival times
//! and computes the suspicion level from the tail probability
//! `P_later(t − t_last)` — the probability that a heartbeat arrives more
//! than `t − t_last` after the previous one. The paper names a normal
//! distribution for inter-arrival times and Erlang for transmission times
//! as suitable shapes; deployed descendants use an exponential tail
//! (Cassandra) or an empirical histogram. All four are provided here behind
//! the [`ArrivalDistribution`] trait.
//!
//! Tail evaluation is done in *log space* where possible
//! ([`ArrivalDistribution::log10_sf`]) so that the suspicion level
//! `φ = −log₁₀ P_later` keeps increasing even after the raw probability
//! underflows `f64` — this is what lets the φ detector satisfy the paper's
//! Accruement property without artificial clamping.

mod empirical;
mod erf;
mod erf_table;
mod erlang;
mod exponential;
mod normal;

pub use empirical::Empirical;
pub use erf::{erf, erfc, ln_erfc};
pub(crate) use erf::{ln_half_erfc, ln_half_erfc_block, LANES};
pub use erlang::Erlang;
pub use exponential::Exponential;
pub use normal::Normal;

/// A model of heartbeat inter-arrival times, queried for its upper tail.
///
/// Implementations must be proper survival functions: non-increasing in `x`,
/// with `sf(x) ∈ [0, 1]` and `sf(x) = 1` for `x ≤ 0` (an inter-arrival time
/// is positive).
pub trait ArrivalDistribution {
    /// `P_later(x) = P(X > x)`: the probability that the next heartbeat
    /// arrives more than `x` seconds after the previous one.
    fn sf(&self, x: f64) -> f64;

    /// `log₁₀ P(X > x)`, computed as stably as the model allows.
    ///
    /// The default clamps the raw tail away from zero before taking the
    /// logarithm; models with analytic tails (normal, exponential, Erlang)
    /// override this to stay exact long after `sf` underflows.
    fn log10_sf(&self, x: f64) -> f64 {
        self.sf(x).max(f64::MIN_POSITIVE).log10()
    }
}

impl<D: ArrivalDistribution + ?Sized> ArrivalDistribution for &D {
    fn sf(&self, x: f64) -> f64 {
        (**self).sf(x)
    }
    fn log10_sf(&self, x: f64) -> f64 {
        (**self).log10_sf(x)
    }
}

impl<D: ArrivalDistribution + ?Sized> ArrivalDistribution for Box<D> {
    fn sf(&self, x: f64) -> f64 {
        (**self).sf(x)
    }
    fn log10_sf(&self, x: f64) -> f64 {
        (**self).log10_sf(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_objects_forward() {
        let n = Normal::new(1.0, 0.1).unwrap();
        let boxed: Box<dyn ArrivalDistribution> = Box::new(n);
        assert_eq!(boxed.sf(1.0), n.sf(1.0));
        let r: &dyn ArrivalDistribution = &n;
        assert_eq!(r.log10_sf(1.2), n.log10_sf(1.2));
    }
}
