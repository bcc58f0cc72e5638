//! Deterministic random sampling for the simulator.
//!
//! Every run is driven by a [`SimRng`] seeded explicitly, so experiments
//! are exactly reproducible: the same scenario and seed always produce the
//! same heartbeat arrival process. `rand`'s `StdRng` provides the stream;
//! the shaped samplers (normal, exponential) are implemented here because
//! the simulator deliberately depends only on the sanctioned `rand` crate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random source with the samplers the network models need.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    /// Cached second output of the Marsaglia polar transform.
    spare_gaussian: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            spare_gaussian: None,
        }
    }

    /// Derives an independent generator for a sub-stream (e.g. one per
    /// channel), keyed by `stream`.
    ///
    /// Uses a SplitMix64 mix of the seed and stream id so sub-streams do
    /// not overlap for practical run lengths.
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::seed_from_u64(z)
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// A uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "need finite lo ≤ hi"
        );
        #[expect(
            clippy::float_cmp,
            reason = "degenerate range: gen_range rejects an empty lo..hi"
        )]
        if lo == hi {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// A Bernoulli trial with success probability `p` (clamped to [0, 1]).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// A standard normal sample (Marsaglia polar method).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_gaussian.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.spare_gaussian = Some(v * factor);
                return u * factor;
            }
        }
    }

    /// A normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or either parameter is not finite.
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        assert!(
            mean.is_finite() && std.is_finite() && std >= 0.0,
            "bad normal parameters"
        );
        mean + std * self.standard_normal()
    }

    /// An exponential sample with the given mean (inverse-CDF method).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive"
        );
        let u = 1.0 - self.uniform(); // in (0, 1]
        -mean * u.ln()
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample from an empty range");
        self.inner.gen_range(0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn derive_gives_reproducible_substreams() {
        let mut a = SimRng::derive(7, 3);
        let mut b = SimRng::derive(7, 3);
        let mut c = SimRng::derive(7, 4);
        assert_eq!(a.uniform(), b.uniform());
        assert_ne!(a.uniform(), c.uniform());
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = SimRng::seed_from_u64(9);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.15, "var = {var}");
    }

    #[test]
    fn exponential_moments_are_plausible() {
        let mut rng = SimRng::seed_from_u64(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.exponential(3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.08, "mean = {mean}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn bernoulli_respects_probability() {
        let mut rng = SimRng::seed_from_u64(13);
        let hits = (0..20_000).filter(|_| rng.bernoulli(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate = {rate}");
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
    }

    #[test]
    fn uniform_in_bounds() {
        let mut rng = SimRng::seed_from_u64(17);
        for _ in 0..1000 {
            let x = rng.uniform_in(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
        assert_eq!(rng.uniform_in(5.0, 5.0), 5.0);
    }

    #[test]
    fn index_in_range() {
        let mut rng = SimRng::seed_from_u64(19);
        for _ in 0..100 {
            assert!(rng.index(7) < 7);
        }
    }
}
