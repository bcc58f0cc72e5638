//! The adaptive accrual failure detector (Satzger et al. 2007).
//!
//! Where φ (§5.3 of the paper) *assumes* a distribution shape over
//! inter-arrival gaps, the adaptive detector is fully non-parametric: it
//! keeps a bounded histogram of past gaps and answers queries with the
//! empirical probability that a gap as long as the current silence would
//! have ended already —
//!
//! `sl(t) = P( gap < t − t_last )`
//!
//! — i.e. the fraction of observed gaps *shorter* than the current elapsed
//! time. The output is a probability in `[0, 1)`, not a φ-style log scale:
//! thresholds read directly as confidence levels (suspect at 0.9 ⇒ nine
//! out of ten past gaps were shorter than this silence).
//!
//! Two refinements keep the raw frequency estimate honest:
//!
//! - **Laplace smoothing with a decaying unit.** The numerator carries a
//!   pseudo-observation that grows as `elapsed / (elapsed + τ)` (τ = the
//!   observed mean gap), and the denominator is padded to match, so the
//!   level is never a hard 0 or 1 and — crucially — is *strictly*
//!   increasing in the elapsed time even where the histogram is flat.
//!   Without it, the level would plateau between occupied bins and at the
//!   histogram's range bound, violating Accruement for long-dead peers.
//! - **Prior pseudo-counts before `min_samples`.** Missing observations
//!   are stood in for by a normal prior around `initial_interval` (the
//!   same bootstrap shape the φ family uses), so early queries interpolate
//!   between the configured expectation and the data instead of trusting
//!   two or three gaps outright.
//!
//! Queries cost O(bins) — constant in the window size; the bench harness
//! (`e16_detector_race`) asserts the flat query-cost curve alongside the
//! φ detectors' O(1) paths. Eviction stays exact: the sliding window
//! returns the displaced sample on push, and its bin is decremented, so
//! the histogram is always precisely the histogram of the retained window.

use afd_core::accrual::{AccrualFailureDetector, DetectorSeed};
use afd_core::dist::Normal;
use afd_core::error::ConfigError;
use afd_core::stats::SlidingWindow;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};

/// Configuration for [`AdaptiveAccrual`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Sliding-window capacity for inter-arrival samples (default 1000).
    pub window_size: usize,
    /// Number of histogram bins over `[0, initial_interval · max_intervals)`
    /// (default 128). More bins sharpen the empirical CDF at the cost of a
    /// proportionally longer — still window-independent — query scan.
    pub bins: usize,
    /// Histogram range in multiples of `initial_interval` (default 8);
    /// gaps past the range land in an overflow bucket whose mass is
    /// interpolated smoothly during queries.
    pub max_intervals: f64,
    /// Number of observations below which the normal prior around
    /// `initial_interval` backfills the missing mass (default 5).
    pub min_samples: usize,
    /// The assumed heartbeat interval before any data arrives.
    pub initial_interval: Duration,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window_size: 1000,
            bins: 128,
            max_intervals: 8.0,
            min_samples: 5,
            initial_interval: Duration::from_secs(1),
        }
    }
}

impl AdaptiveConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an empty window, a degenerate
    /// histogram, or a zero initial interval.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window_size == 0 {
            return Err(ConfigError::new("adaptive window size must be positive"));
        }
        if self.bins == 0 {
            return Err(ConfigError::new("adaptive model needs at least one bin"));
        }
        if !(self.max_intervals.is_finite() && self.max_intervals > 0.0) {
            return Err(ConfigError::new(
                "adaptive range must be a positive number of intervals",
            ));
        }
        if self.initial_interval.is_zero() {
            return Err(ConfigError::new(
                "adaptive initial interval must be positive",
            ));
        }
        Ok(())
    }
}

/// A decrementable fixed-bin histogram over `[0, hi)` with an overflow
/// bucket — unlike `afd_core::stats::Histogram`, samples can be removed,
/// which window eviction needs.
#[derive(Debug, Clone)]
struct GapHistogram {
    bins: Vec<u64>,
    overflow: u64,
    hi: f64,
    width: f64,
}

impl GapHistogram {
    fn new(bins: usize, hi: f64) -> Self {
        GapHistogram {
            width: hi / bins as f64,
            bins: vec![0; bins],
            overflow: 0,
            hi,
        }
    }

    /// The bin holding `x`, or `None` for the overflow bucket. Gaps are
    /// non-negative by construction (saturating timestamp subtraction), so
    /// there is no underflow bucket.
    fn index(&self, x: f64) -> Option<usize> {
        if x >= self.hi {
            None
        } else {
            Some(((x.max(0.0) / self.width) as usize).min(self.bins.len() - 1))
        }
    }

    fn record(&mut self, x: f64) {
        match self.index(x) {
            Some(i) => self.bins[i] += 1,
            None => self.overflow += 1,
        }
    }

    /// Removes one previously recorded sample. `index` is a pure function
    /// of the value, so the bin matches the one `record` incremented.
    fn remove(&mut self, x: f64) {
        match self.index(x) {
            Some(i) => {
                debug_assert!(self.bins[i] > 0, "removing from an empty bin");
                self.bins[i] = self.bins[i].saturating_sub(1);
            }
            None => {
                debug_assert!(self.overflow > 0, "removing from an empty overflow");
                self.overflow = self.overflow.saturating_sub(1);
            }
        }
    }

    fn clear(&mut self) {
        self.bins.iter_mut().for_each(|b| *b = 0);
        self.overflow = 0;
    }

    /// The (fractional) number of samples below `x`, interpolated linearly
    /// inside the straddled bin; past the range end, the overflow mass
    /// phases in smoothly as `(x − hi) / ((x − hi) + τ)` so the count is
    /// continuous and strictly increasing wherever mass remains above.
    fn mass_below(&self, x: f64, tau: f64) -> f64 {
        match self.index(x) {
            Some(i) => {
                let full: u64 = self.bins[..i].iter().sum();
                let frac = ((x - self.width * i as f64) / self.width).clamp(0.0, 1.0);
                full as f64 + self.bins[i] as f64 * frac
            }
            None => {
                let in_range: u64 = self.bins.iter().sum();
                let past = x - self.hi;
                in_range as f64 + self.overflow as f64 * (past / (past + tau))
            }
        }
    }
}

/// The adaptive accrual failure detector.
///
/// # Examples
///
/// ```
/// use afd_core::accrual::AccrualFailureDetector;
/// use afd_core::time::Timestamp;
/// use afd_detectors::adaptive::{AdaptiveAccrual, AdaptiveConfig};
///
/// let mut fd = AdaptiveAccrual::new(AdaptiveConfig::default())?;
/// for s in 1..=30 {
///     fd.record_heartbeat(Timestamp::from_secs(s));
/// }
/// // Fresh: almost no past gap was this short.
/// let low = fd.suspicion_level(Timestamp::from_secs_f64(30.1));
/// // Three intervals of silence: longer than every observed gap.
/// let high = fd.suspicion_level(Timestamp::from_secs(33));
/// assert!(low.value() < 0.1);
/// assert!(high.value() > 0.9);
/// # Ok::<(), afd_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveAccrual {
    config: AdaptiveConfig,
    gaps: SlidingWindow,
    histogram: GapHistogram,
    last_heartbeat: Option<Timestamp>,
}

impl AdaptiveAccrual {
    /// Creates the detector.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `config` is invalid.
    pub fn new(config: AdaptiveConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let hi = config.initial_interval.as_secs_f64() * config.max_intervals;
        Ok(AdaptiveAccrual {
            config,
            gaps: SlidingWindow::new(config.window_size),
            histogram: GapHistogram::new(config.bins, hi),
            last_heartbeat: None,
        })
    }

    /// The detector with default configuration.
    ///
    /// # Panics
    ///
    /// Never panics: the default configuration is valid.
    pub fn with_defaults() -> Self {
        AdaptiveAccrual::new(AdaptiveConfig::default()).expect("default config is valid")
    }

    /// The most recent heartbeat arrival, if any.
    pub fn last_heartbeat(&self) -> Option<Timestamp> {
        self.last_heartbeat
    }

    /// Number of inter-arrival samples in the window.
    pub fn samples(&self) -> usize {
        self.gaps.len()
    }

    /// The configuration this detector was built with.
    pub fn config(&self) -> AdaptiveConfig {
        self.config
    }

    /// The current estimate of the mean inter-arrival time, in seconds
    /// (the prior `initial_interval` while the window is empty).
    pub fn mean_interval(&self) -> f64 {
        let mean = self.gaps.mean();
        if self.gaps.is_empty() || mean <= 0.0 {
            self.config.initial_interval.as_secs_f64()
        } else {
            mean
        }
    }

    /// The smoothing/interpolation time-scale: the trusted observed mean
    /// gap, or the configured prior while below `min_samples`.
    fn tau(&self, n: usize, mean: f64) -> f64 {
        let prior = self.config.initial_interval.as_secs_f64();
        if n >= self.config.min_samples.max(1) && mean > 0.0 {
            mean
        } else {
            prior
        }
    }

    /// The suspicion probability from an explicit histogram and moments;
    /// the O(bins) query path and the O(window) reference both funnel
    /// through here, so they can only disagree on the inputs.
    fn probability_from(&self, elapsed: f64, hist: &GapHistogram, n: usize, mean: f64) -> f64 {
        let k = self.config.min_samples.max(1);
        let tau = self.tau(n, mean);
        let below = hist.mass_below(elapsed, tau);
        // Observations missing up to `min_samples` are stood in for by the
        // bootstrap prior N(initial_interval, (initial_interval/4)²).
        let pseudo = k.saturating_sub(n) as f64;
        let prior_mass = if pseudo > 0.0 {
            let prior = self.config.initial_interval.as_secs_f64();
            let dist = Normal::new(prior, prior / 4.0).expect("validated prior parameters");
            pseudo * dist.cdf(elapsed)
        } else {
            0.0
        };
        // The decaying Laplace unit: strictly increasing in elapsed, below
        // 1 always, so sl is strictly increasing and strictly inside
        // [0, 1) — never a hard verdict either way.
        let smoothing = elapsed / (elapsed + tau);
        (below + prior_mass + smoothing) / (n.max(k) as f64 + 2.0)
    }

    /// The suspicion probability at `now` — an O(bins) query, independent
    /// of the window size. The test-only `suspicion_naive` is the
    /// O(window) reference it is property-tested against.
    pub fn probability(&self, now: Timestamp) -> f64 {
        let Some(last) = self.last_heartbeat else {
            return 0.0;
        };
        let elapsed = now.saturating_duration_since(last).as_secs_f64();
        self.probability_from(elapsed, &self.histogram, self.gaps.len(), self.gaps.mean())
    }

    /// Reference level that rebuilds the histogram and moments by
    /// rescanning every retained gap (O(window) per call) — the oracle
    /// proving the incrementally maintained histogram stays exactly in
    /// sync through evictions.
    #[cfg(test)]
    pub fn suspicion_naive(&self, now: Timestamp) -> f64 {
        let Some(last) = self.last_heartbeat else {
            return 0.0;
        };
        let elapsed = now.saturating_duration_since(last).as_secs_f64();
        let mut hist = GapHistogram::new(self.config.bins, self.histogram.hi);
        for g in self.gaps.iter() {
            hist.record(g);
        }
        let moments = self.gaps.naive_moments();
        self.probability_from(elapsed, &hist, moments.count() as usize, moments.mean())
    }
}

impl AccrualFailureDetector for AdaptiveAccrual {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        if let Some(last) = self.last_heartbeat {
            debug_assert!(arrival >= last, "heartbeat arrivals must be non-decreasing");
            let gap = arrival.saturating_duration_since(last).as_secs_f64();
            if let Some(evicted) = self.gaps.push(gap) {
                self.histogram.remove(evicted);
            }
            self.histogram.record(gap);
        }
        self.last_heartbeat = Some(self.last_heartbeat.map_or(arrival, |l| l.max(arrival)));
    }

    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        SuspicionLevel::clamped(self.probability(now))
    }

    fn prefetch(&self) {
        self.gaps.prefetch();
    }

    fn save_seed(&self) -> Option<DetectorSeed> {
        Some(DetectorSeed {
            last_heartbeat: self.last_heartbeat,
            samples: self.gaps.len() as u64,
            mean: self.gaps.mean(),
            population_variance: self.gaps.population_variance(),
            heartbeats_seen: 0,
        })
    }

    /// Re-seeds the window from the moments and rebuilds the histogram
    /// from the synthetic samples (a cold-path O(window) scan).
    ///
    /// The seed carries moments, not the bin counts, so the restored
    /// histogram is the histogram *of the synthetic window*: exact when
    /// the pre-crash cadence was regular (zero variance reproduces the
    /// samples verbatim), and a two-point mean ± σ sketch of it otherwise
    /// — same graceful degradation the φ empirical model documents.
    fn restore_seed(&mut self, seed: &DetectorSeed) {
        self.gaps
            .seed_from_moments(seed.samples, seed.mean, seed.population_variance);
        self.last_heartbeat = seed.last_heartbeat;
        self.histogram.clear();
        let hist = &mut self.histogram;
        for g in self.gaps.iter() {
            hist.record(g);
        }
    }
}

impl afd_core::canonical::CanonicalState for GapHistogram {
    fn canonical_state(&self, digest: &mut afd_core::canonical::StateDigest) {
        digest.push_f64(self.hi);
        digest.push_f64(self.width);
        digest.push_usize(self.bins.len());
        for &b in &self.bins {
            digest.push_u64(b);
        }
        digest.push_u64(self.overflow);
    }
}

impl afd_core::canonical::CanonicalState for AdaptiveAccrual {
    fn canonical_state(&self, digest: &mut afd_core::canonical::StateDigest) {
        digest.push_usize(self.config.window_size);
        digest.push_usize(self.config.bins);
        digest.push_f64(self.config.max_intervals);
        digest.push_usize(self.config.min_samples);
        self.config.initial_interval.canonical_state(digest);
        self.gaps.canonical_state(digest);
        self.histogram.canonical_state(digest);
        self.last_heartbeat.canonical_state(digest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs_f64(s)
    }

    fn regular(n: usize) -> AdaptiveAccrual {
        let mut fd = AdaptiveAccrual::with_defaults();
        for k in 1..=n {
            fd.record_heartbeat(ts(k as f64));
        }
        fd
    }

    #[test]
    fn config_validation() {
        assert!(AdaptiveConfig::default().validate().is_ok());
        for bad in [
            AdaptiveConfig {
                window_size: 0,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                bins: 0,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                max_intervals: 0.0,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                max_intervals: f64::NAN,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                initial_interval: Duration::ZERO,
                ..AdaptiveConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn zero_before_any_heartbeat() {
        let mut fd = AdaptiveAccrual::with_defaults();
        assert_eq!(fd.suspicion_level(ts(100.0)).value(), 0.0);
    }

    #[test]
    fn level_is_a_probability() {
        let mut fd = regular(50);
        for late in [0.0, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 10_000.0] {
            let sl = fd.suspicion_level(ts(50.0 + late)).value();
            assert!((0.0..1.0).contains(&sl), "sl({late}) = {sl} out of [0,1)");
        }
    }

    #[test]
    fn tracks_the_empirical_gap_fraction() {
        // Gaps alternate 0.5 s and 1.5 s; an elapsed time of 1.0 s sits
        // between the two modes, so about half of past gaps were shorter.
        let mut fd = AdaptiveAccrual::with_defaults();
        let mut t = 0.0;
        for k in 0..100 {
            t += if k % 2 == 0 { 0.5 } else { 1.5 };
            fd.record_heartbeat(ts(t));
        }
        let sl = fd.suspicion_level(ts(t + 1.0)).value();
        assert!((sl - 0.5).abs() < 0.05, "mid-mode sl should be ≈0.5: {sl}");
        // Shorter than both modes: low. Longer than both: high.
        assert!(fd.suspicion_level(ts(t + 0.2)).value() < 0.3);
        assert!(fd.suspicion_level(ts(t + 3.0)).value() > 0.9);
    }

    #[test]
    fn strictly_increasing_through_flat_regions_and_past_range() {
        // All mass in one bin; the level must still strictly increase
        // through the empty bins and past the histogram range (hi = 8 s).
        let mut fd = regular(100);
        let mut prev = fd.suspicion_level(ts(100.1)).value();
        for i in 1..200 {
            let at = ts(100.1 + 0.2 * i as f64); // sweeps to 40 s, 5× hi
            let sl = fd.suspicion_level(at).value();
            assert!(
                sl > prev,
                "must strictly increase at +{}s: {sl} !> {prev}",
                0.2 * i as f64
            );
            prev = sl;
        }
    }

    #[test]
    fn finite_non_negative_at_the_arrival_instant() {
        let mut fd = regular(3); // below min_samples: prior active
        let sl = fd.suspicion_level(ts(3.0)).value();
        assert!(sl.is_finite() && sl >= 0.0, "sl = {sl}");
        let mut fd = regular(50);
        let sl = fd.suspicion_level(ts(50.0)).value();
        assert!(sl.is_finite() && sl >= 0.0, "sl = {sl}");
    }

    #[test]
    fn prior_backfills_before_min_samples() {
        // One gap observed; pseudo-counts from the prior dominate, so a
        // silence of three intervals is already highly suspicious even
        // though the single real gap carries almost no information.
        let mut fd = AdaptiveAccrual::with_defaults();
        fd.record_heartbeat(ts(1.0));
        fd.record_heartbeat(ts(2.0));
        assert_eq!(fd.samples(), 1);
        let sl = fd.suspicion_level(ts(5.0)).value();
        assert!(sl > 0.6, "prior-backed sl should be high, got {sl}");
        // And never a hard 1.0.
        assert!(sl < 1.0);
    }

    #[test]
    fn never_hard_zero_after_data_nor_hard_one() {
        let mut fd = regular(30);
        // A hair after the arrival: strictly positive (the smoothing unit).
        let just_after = fd.suspicion_level(ts(30.001)).value();
        assert!(just_after > 0.0, "sl must never be a hard 0: {just_after}");
        // Eons later: strictly below 1.
        // With n = 29 gaps the ceiling is (n + 1)/(n + 2) = 30/31 ≈ 0.968.
        let eons = fd.suspicion_level(ts(1_000_000.0)).value();
        assert!(eons < 1.0, "sl must never be a hard 1: {eons}");
        assert!(eons > 0.95);
    }

    #[test]
    fn adapts_to_slower_cadence() {
        // The same absolute lateness is less suspicious under a slower
        // heartbeat cadence.
        let mut fast = AdaptiveAccrual::with_defaults();
        let mut slow = AdaptiveAccrual::with_defaults();
        for k in 1..=60 {
            fast.record_heartbeat(ts(k as f64));
            slow.record_heartbeat(ts(k as f64 * 3.0));
        }
        let late = 2.0;
        let sl_fast = fast.suspicion_level(ts(60.0 + late)).value();
        let sl_slow = slow.suspicion_level(ts(180.0 + late)).value();
        assert!(
            sl_slow < sl_fast / 2.0,
            "slow-cadence sl {sl_slow} should be far below {sl_fast}"
        );
    }

    #[test]
    fn eviction_keeps_histogram_in_sync() {
        let mut fd = AdaptiveAccrual::new(AdaptiveConfig {
            window_size: 8,
            ..AdaptiveConfig::default()
        })
        .unwrap();
        // 100 arrivals at 0.5 s cadence, then 8 at 2 s: the window holds
        // only 2 s gaps, so a 1 s elapsed must rank *below* all of them.
        let mut t = 0.0;
        for _ in 0..100 {
            t += 0.5;
            fd.record_heartbeat(ts(t));
        }
        for _ in 0..9 {
            t += 2.0;
            fd.record_heartbeat(ts(t));
        }
        assert_eq!(fd.samples(), 8);
        let sl = fd.suspicion_level(ts(t + 1.0)).value();
        assert!(sl < 0.2, "evicted 0.5 s gaps must not count: {sl}");
    }

    #[test]
    fn seed_round_trip_reproduces_levels_on_regular_cadence() {
        let mut fd = regular(60);
        let seed = fd.save_seed().expect("adaptive persists");
        let mut restored = AdaptiveAccrual::with_defaults();
        restored.restore_seed(&seed);
        for late in [0.0, 0.3, 1.0, 2.5, 10.0, 50.0] {
            let at = ts(60.0 + late);
            let a = fd.suspicion_level(at).value();
            let b = restored.suspicion_level(at).value();
            assert!((a - b).abs() < 1e-9, "+{late}s: {a} vs {b}");
        }
    }

    #[test]
    fn seed_survives_a_second_round_trip_exactly() {
        // Even under jitter (where moments → synthetic samples is lossy),
        // save → restore → save is a fixed point: the seed of the restored
        // detector equals the seed it was restored from.
        let mut fd = AdaptiveAccrual::with_defaults();
        let mut t = 0.0;
        for k in 0..50 {
            t += if k % 3 == 0 { 0.6 } else { 1.2 };
            fd.record_heartbeat(ts(t));
        }
        let seed = fd.save_seed().expect("adaptive persists");
        let mut restored = AdaptiveAccrual::with_defaults();
        restored.restore_seed(&seed);
        let second = restored.save_seed().expect("still persists");
        assert_eq!(seed.last_heartbeat, second.last_heartbeat);
        assert_eq!(seed.samples, second.samples);
        assert!((seed.mean - second.mean).abs() < 1e-9);
        assert!((seed.population_variance - second.population_variance).abs() < 1e-9);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The O(bins) incremental query (histogram maintained through
            /// evictions) agrees with the O(window) full rescan to 1e-12
            /// on arbitrary traces — the histogram never drifts.
            #[test]
            fn incremental_level_matches_naive_rescan(
                gaps in prop::collection::vec(0.01f64..12.0, 1..150),
                window_size in 4usize..40,
                late in 0.0f64..30.0,
            ) {
                let mut fd = AdaptiveAccrual::new(AdaptiveConfig {
                    window_size,
                    ..AdaptiveConfig::default()
                })
                .unwrap();
                let mut t = 1.0;
                fd.record_heartbeat(ts(t));
                for g in &gaps {
                    t += g;
                    fd.record_heartbeat(ts(t));
                }
                let at = ts(t + late);
                let fast = fd.probability(at);
                let slow = fd.suspicion_naive(at);
                prop_assert!(fast.is_finite() && slow.is_finite());
                prop_assert!(
                    (fast - slow).abs() < 1e-12,
                    "level {} vs naive {}",
                    fast,
                    slow
                );
            }

            /// The level is strictly increasing in elapsed time on random
            /// traces, over query points inside and far past the range.
            #[test]
            fn level_is_strictly_increasing_in_elapsed(
                gaps in prop::collection::vec(0.05f64..6.0, 2..80),
            ) {
                let mut fd = AdaptiveAccrual::with_defaults();
                let mut t = 1.0;
                fd.record_heartbeat(ts(t));
                for g in &gaps {
                    t += g;
                    fd.record_heartbeat(ts(t));
                }
                let mut prev = fd.probability(ts(t + 0.25));
                for i in 2..96 {
                    let sl = fd.probability(ts(t + 0.25 * i as f64));
                    prop_assert!(
                        sl > prev,
                        "not strictly increasing at +{}s: {} !> {}",
                        0.25 * i as f64,
                        sl,
                        prev
                    );
                    prev = sl;
                }
            }

            /// The level is always a probability: finite, ≥ 0, < 1.
            #[test]
            fn level_stays_inside_the_unit_interval(
                beats in 0usize..30,
                late in 0.0f64..1000.0,
            ) {
                let mut fd = AdaptiveAccrual::with_defaults();
                for k in 1..=beats {
                    fd.record_heartbeat(ts(k as f64));
                }
                let sl = fd.suspicion_level(ts(beats.max(1) as f64 + late)).value();
                prop_assert!(sl.is_finite());
                prop_assert!((0.0..1.0).contains(&sl), "sl = {}", sl);
            }
        }
    }
}
