//! Quantiles, the pooled quiet-host estimate, and the composed set-up time.
//!
//! Why the fastest sample: on a shared host the cost of identical work is
//! its quiet cost plus whatever the neighbours add, and what they add is
//! never negative. Over thousands of short identical epochs the fastest of
//! the pooled sample is the quiet cost. Every higher quantile moves with the
//! host: between its quiet and its busy spells the fastest epoch of a run
//! moved by 3–7 %, the p05 by 18–22 %, the median by 45 % (see
//! `bench/README.md` for the measurements).

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending slice, interpolating
/// linearly between the two closest ranks. `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Samples of one quantity pooled over every round of a run.
#[derive(Debug, Clone, Default)]
pub struct Pool {
    values: Vec<f64>,
    sorted: bool,
}

impl Pool {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn q(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        quantile(&self.values, q)
    }

    /// The quiet-host estimate: the fastest of the pooled samples.
    pub fn quiet(&mut self) -> f64 {
        self.q(0.0)
    }

    pub fn p50(&mut self) -> f64 {
        self.q(0.50)
    }

    pub fn p99(&mut self) -> f64 {
        self.q(0.99)
    }
}

/// The pieces a set-up is made of, each sampled many times in a run.
#[derive(Debug, Clone, Default)]
pub struct SetupParts {
    /// Construct + bind (+ thread start), one sample per set-up, ns.
    pub construct_ns: Pool,
    /// One chunk of [`WATCH_CHUNK`] watch calls, ns.
    pub watch_chunk_ns: Pool,
    /// One warm-up epoch, ns.
    pub warm_epoch_ns: Pool,
    /// Watch chunks in one set-up.
    pub watch_chunks: usize,
    /// Warm-up epochs in one set-up.
    pub warm_epochs: usize,
}

/// Watch calls timed together as one chunk.
pub const WATCH_CHUNK: usize = 64;

impl SetupParts {
    /// Set-up time in seconds, composed from quiet-host parts: the fastest
    /// construction seen plus the p05 cost of every watch chunk and warm-up
    /// epoch a set-up runs. The p05 and not the fastest: these parts are not
    /// identical (the first warm-up epochs meet empty detector windows and
    /// are cheap), and the fastest would be the cheapest kind, not the
    /// quietest moment. One stopwatch reading of a set-up (17–300 ms
    /// here) differs by a tenth between repeats; this does not.
    pub fn seconds(&mut self) -> f64 {
        let ns = self.construct_ns.quiet()
            + self.watch_chunks as f64 * self.watch_chunk_ns.q(0.05)
            + self.warm_epochs as f64 * self.warm_epoch_ns.q(0.05);
        ns * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert!((quantile(&v, 0.05) - 12.0).abs() < 1e-12);
        assert!((quantile(&v, 0.99) - 49.6).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(quantile(&[7.0], 0.05), 7.0);
    }

    #[test]
    fn pooled_quiet_estimate_ignores_a_noisy_round() {
        // Two quiet rounds at 100 ± 1 and one round the host made 2× slower:
        // the mean moves by a third, the pooled estimate stays at the quiet
        // cost.
        let mut pool = Pool::default();
        for round in 0..3 {
            let scale = if round == 1 { 2.0 } else { 1.0 };
            for i in 0..1000 {
                pool.push(scale * (100.0 + f64::from(i % 3) - 1.0));
            }
        }
        assert_eq!(pool.len(), 3000);
        assert_eq!(pool.quiet(), 99.0);
        assert!((pool.q(0.05) - 99.0).abs() <= 1.0);
        assert!(pool.p50() <= 101.0);
        assert!(pool.p99() >= 198.0);
    }

    #[test]
    fn pool_resorts_after_a_late_push() {
        let mut pool = Pool::default();
        pool.push(5.0);
        pool.push(3.0);
        assert_eq!(pool.quiet(), 3.0);
        pool.push(1.0);
        assert_eq!(pool.quiet(), 1.0);
    }

    #[test]
    fn setup_is_composed_from_quiet_parts() {
        let mut parts = SetupParts {
            watch_chunks: 4,
            warm_epochs: 10,
            ..SetupParts::default()
        };
        for c in [3_000_000.0, 2_000_000.0, 9_000_000.0] {
            parts.construct_ns.push(c);
        }
        for _ in 0..100 {
            parts.watch_chunk_ns.push(50_000.0);
            parts.warm_epoch_ns.push(200_000.0);
        }
        // One stalled chunk and one stalled epoch must not show.
        parts.watch_chunk_ns.push(5_000_000.0);
        parts.warm_epoch_ns.push(80_000_000.0);
        let expected = (2_000_000.0 + 4.0 * 50_000.0 + 10.0 * 200_000.0) * 1e-9;
        assert!((parts.seconds() - expected).abs() < 1e-12);
    }
}
