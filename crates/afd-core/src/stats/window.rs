//! A bounded sliding window with O(1) mean/variance.
//!
//! The adaptive detectors (§5.2–5.3 of the paper) estimate the distribution
//! of heartbeat inter-arrival times over a window of the most recent `n`
//! samples. [`SlidingWindow`] keeps the samples in a ring buffer and
//! maintains running moments incrementally; to keep floating-point error
//! from accumulating over very long runs, the moments are recomputed from
//! scratch periodically.

use super::welford::RunningMoments;

/// How many evictions happen between full recomputations of the moments.
const REFRESH_INTERVAL: u64 = 65_536;

/// A fixed-capacity sliding window over `f64` samples with constant-time
/// mean and variance.
///
/// # Examples
///
/// ```
/// use afd_core::stats::SlidingWindow;
///
/// let mut w = SlidingWindow::new(3);
/// w.push(1.0);
/// w.push(2.0);
/// w.push(3.0);
/// w.push(10.0); // evicts 1.0
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.mean(), 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    /// The ring; its length is the capacity.
    buf: Box<[f64]>,
    /// Where the oldest sample sits. 32 bits, like `len`: a monitor keeps
    /// a window per watched peer, and a capacity beyond `u32::MAX` samples
    /// (32 GiB of ring) is refused at construction.
    head: u32,
    len: u32,
    moments: RunningMoments,
    evictions: u64,
}

impl SlidingWindow {
    /// Creates a window holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above `u32::MAX`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(
            u32::try_from(capacity).is_ok(),
            "window capacity must fit in 32 bits, got {capacity}"
        );
        SlidingWindow {
            buf: vec![0.0; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            moments: RunningMoments::new(),
            evictions: 0,
        }
    }

    /// Adds a sample, evicting the oldest if the window is full.
    ///
    /// Returns the evicted sample, if any.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn push(&mut self, x: f64) -> Option<f64> {
        assert!(x.is_finite(), "samples must be finite, got {x}");

        if self.is_full() {
            let head = self.head as usize;
            let old = self.buf[head];
            self.buf[head] = x;
            self.head = self.wrap(head + 1) as u32;
            self.moments.remove(old);
            self.moments.push(x);
            self.evictions += 1;
            if self.evictions.is_multiple_of(REFRESH_INTERVAL) {
                self.recompute();
            }
            Some(old)
        } else {
            let idx = self.wrap(self.head as usize + self.len as usize);
            self.buf[idx] = x;
            self.len += 1;
            self.moments.push(x);
            None
        }
    }

    fn recompute(&mut self) {
        self.moments = self.iter().collect();
    }

    /// Folds a ring position below `2·capacity` back into the buffer.
    /// `head` and `len` never exceed `capacity`, so every position this
    /// module forms is in that range and one compare-and-subtract is
    /// exact — where `%` by a run-time capacity is a 64-bit division on
    /// every accepted heartbeat.
    #[inline]
    fn wrap(&self, pos: usize) -> usize {
        let capacity = self.buf.len();
        debug_assert!(pos < 2 * capacity);
        if pos >= capacity {
            pos - capacity
        } else {
            pos
        }
    }

    /// Loads, and discards, the cell the next [`push`](Self::push) writes
    /// (and evicts, once the window is full): the ring lives on the heap,
    /// a cache miss away from whoever holds the window. No observable
    /// effect; callers about to push into many windows use it to overlap
    /// those misses.
    #[inline]
    pub fn prefetch(&self) {
        std::hint::black_box(self.buf[self.wrap(self.head as usize + self.len as usize)]);
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` if the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if the window is at capacity.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }

    /// The window capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// The mean of the windowed samples (0.0 if empty).
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// The population variance of the windowed samples.
    pub fn population_variance(&self) -> f64 {
        self.moments.population_variance()
    }

    /// The sample variance of the windowed samples.
    pub fn sample_variance(&self) -> f64 {
        self.moments.sample_variance()
    }

    /// The population standard deviation of the windowed samples.
    pub fn population_std_dev(&self) -> f64 {
        self.moments.population_std_dev()
    }

    /// The most recently pushed sample, if any.
    pub fn last(&self) -> Option<f64> {
        if self.len == 0 {
            None
        } else {
            Some(self.buf[self.wrap(self.head as usize + self.len() - 1)])
        }
    }

    /// Iterates over the samples from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len()).map(move |i| self.buf[self.wrap(self.head as usize + i)])
    }

    /// Copies the samples, oldest first.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }

    /// Recomputes the moments from scratch by scanning every retained
    /// sample (O(window)), as a reference for the incrementally maintained
    /// [`Self::mean`]/[`Self::population_std_dev`] pair.
    pub fn naive_moments(&self) -> RunningMoments {
        self.iter().collect()
    }

    /// Removes all samples.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.moments = RunningMoments::new();
    }

    /// Replaces the window content with synthetic samples reproducing the
    /// given summary statistics: afterwards `len() == count.min(capacity)`,
    /// and `mean()`/[`Self::population_variance`] match the arguments to
    /// within floating-point error.
    ///
    /// This is the restore half of checkpointing: a dump persists only
    /// `(count, mean, population_variance)`, and this method rebuilds an
    /// *equivalent* window from them — the individual samples are
    /// `mean ± d` pairs (plus one sample at the mean when the count is
    /// odd), chosen so both moments land exactly. Detectors whose level
    /// depends only on the window moments answer identically; the raw
    /// sample history is deliberately not reproduced.
    ///
    /// Non-finite `mean` or `population_variance` are rejected by leaving
    /// the window empty; negative variance (float noise from a dump) is
    /// clamped to zero.
    pub fn seed_from_moments(&mut self, count: u64, mean: f64, population_variance: f64) {
        self.clear();
        self.evictions = 0;
        if !mean.is_finite() || !population_variance.is_finite() {
            return;
        }
        let n = usize::try_from(count)
            .unwrap_or(usize::MAX)
            .min(self.capacity());
        if n == 0 {
            return;
        }
        let var = population_variance.max(0.0);
        let pairs;
        let spread;
        if n % 2 == 0 {
            // n/2 pairs at mean ± √var: Σ(x−μ)² = n·var exactly.
            pairs = n / 2;
            spread = var.sqrt();
        } else {
            // One sample at the mean plus (n−1)/2 pairs at mean ± d with
            // d² = var·n/(n−1), so Σ(x−μ)² = (n−1)·d² = n·var again.
            self.push(mean);
            pairs = (n - 1) / 2;
            spread = if n > 1 {
                (var * n as f64 / (n - 1) as f64).sqrt()
            } else {
                0.0
            };
        }
        if !spread.is_finite() || !(mean - spread).is_finite() || !(mean + spread).is_finite() {
            // Degenerate magnitudes (e.g. variance overflowing the square
            // root of f64::MAX): fall back to a flat window at the mean,
            // preserving count and mean but not the variance.
            for _ in 0..2 * pairs {
                self.push(mean);
            }
            return;
        }
        for _ in 0..pairs {
            self.push(mean - spread);
            self.push(mean + spread);
        }
    }
}

impl crate::canonical::CanonicalState for SlidingWindow {
    /// Pushes the retained samples (in logical order) *and* the incremental
    /// moments: the moments are maintained by running sums whose rounding
    /// depends on eviction history, so two windows with identical contents
    /// can answer `mean()` with different last bits — behaviorally distinct
    /// states that must not be merged.
    fn canonical_state(&self, digest: &mut crate::canonical::StateDigest) {
        digest.push_usize(self.capacity());
        digest.push_usize(self.len());
        for x in self.iter() {
            digest.push_f64(x);
        }
        digest.push_f64(self.moments.mean());
        digest.push_f64(self.moments.population_variance());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_slides() {
        let mut w = SlidingWindow::new(3);
        assert!(w.is_empty());
        assert_eq!(w.push(1.0), None);
        assert_eq!(w.push(2.0), None);
        assert_eq!(w.push(3.0), None);
        assert!(w.is_full());
        assert_eq!(w.push(4.0), Some(1.0));
        assert_eq!(w.to_vec(), vec![2.0, 3.0, 4.0]);
        assert_eq!(w.last(), Some(4.0));
    }

    #[test]
    fn moments_track_window_content() {
        let mut w = SlidingWindow::new(4);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
            w.push(x);
        }
        // Window now holds 3,4,5,6.
        assert!((w.mean() - 4.5).abs() < 1e-12);
        let expected: RunningMoments = [3.0, 4.0, 5.0, 6.0].into_iter().collect();
        assert!((w.sample_variance() - expected.sample_variance()).abs() < 1e-9);
    }

    #[test]
    fn long_run_stays_accurate() {
        let mut w = SlidingWindow::new(100);
        // Push far more than REFRESH_INTERVAL would need, with drifting values.
        for i in 0..200_000u64 {
            w.push((i % 1000) as f64 * 0.001 + 10.0);
        }
        let direct: RunningMoments = w.iter().collect();
        assert!((w.mean() - direct.mean()).abs() < 1e-6);
        assert!((w.population_variance() - direct.population_variance()).abs() < 1e-6);
    }

    #[test]
    fn naive_moments_match_incremental() {
        let mut w = SlidingWindow::new(7);
        for i in 0..500u64 {
            w.push((i as f64).sin() * 3.0 + 5.0);
            let naive = w.naive_moments();
            assert_eq!(naive.count() as usize, w.len());
            assert!((w.mean() - naive.mean()).abs() < 1e-9);
            assert!((w.population_variance() - naive.population_variance()).abs() < 1e-9);
        }
    }

    #[test]
    fn clear_resets() {
        let mut w = SlidingWindow::new(2);
        w.push(1.0);
        w.push(2.0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.last(), None);
        w.push(5.0);
        assert_eq!(w.mean(), 5.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    fn a_window_header_is_seven_words() {
        // A monitor holds a window per watched peer beside its detector's
        // other state: the ring pointer and length, 32-bit head and count,
        // the three running moments and the eviction count.
        assert_eq!(std::mem::size_of::<SlidingWindow>(), 56);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        SlidingWindow::new(2).push(f64::INFINITY);
    }

    #[test]
    fn seed_reproduces_moments_even_and_odd() {
        for n in [1u64, 2, 3, 4, 7, 64, 99] {
            let mut w = SlidingWindow::new(128);
            w.seed_from_moments(n, 0.25, 0.09);
            assert_eq!(w.len() as u64, n, "count for n={n}");
            assert!((w.mean() - 0.25).abs() < 1e-12, "mean for n={n}");
            let expect_var = if n == 1 { 0.0 } else { 0.09 };
            assert!(
                (w.population_variance() - expect_var).abs() < 1e-12,
                "variance for n={n}: {}",
                w.population_variance()
            );
        }
    }

    #[test]
    fn seed_clamps_to_capacity_and_replaces_content() {
        let mut w = SlidingWindow::new(4);
        for x in [9.0, 9.0, 9.0] {
            w.push(x);
        }
        w.seed_from_moments(100, 2.0, 1.0);
        assert_eq!(w.len(), 4);
        assert!((w.mean() - 2.0).abs() < 1e-12);
        assert!((w.population_variance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn seed_rejects_non_finite_and_clamps_negative_variance() {
        let mut w = SlidingWindow::new(8);
        w.push(1.0);
        w.seed_from_moments(4, f64::NAN, 1.0);
        assert!(w.is_empty());
        w.seed_from_moments(4, 1.0, f64::INFINITY);
        assert!(w.is_empty());
        // Tiny negative variance from float noise in a dump: treated as 0.
        w.seed_from_moments(4, 3.0, -1e-18);
        assert_eq!(w.len(), 4);
        assert!((w.mean() - 3.0).abs() < 1e-12);
        assert!(w.population_variance().abs() < 1e-12);
    }

    #[test]
    fn seed_zero_count_leaves_empty() {
        let mut w = SlidingWindow::new(8);
        w.push(1.0);
        w.seed_from_moments(0, 5.0, 1.0);
        assert!(w.is_empty());
    }

    #[test]
    fn capacity_one_window() {
        let mut w = SlidingWindow::new(1);
        assert_eq!(w.push(1.0), None);
        assert_eq!(w.push(2.0), Some(1.0));
        assert_eq!(w.mean(), 2.0);
        assert_eq!(w.len(), 1);
    }
}
