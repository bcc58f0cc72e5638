//! The production φ variant deployed in Akka and Cassandra.
//!
//! Structurally this is the paper's §5.3 detector — estimate the
//! inter-arrival distribution over a sliding window, output
//! `φ = −log₁₀ P_later(elapsed)` — with three field-hardened deviations
//! from the original:
//!
//! 1. **Logistic tail.** Instead of the exact normal survival function,
//!    the tail is the logistic approximation of the normal CDF
//!    (Bowling et al. 2009): with `y = (elapsed − mean) / σ`,
//!
//!    `P_later ≈ 1 / (1 + e^{y (1.5976 + 0.070566 y²)})`
//!
//!    so `φ = log₁₀(1 + e^t)` with `t = y (1.5976 + 0.070566 y²)` — a
//!    softplus, evaluated in log space so it never saturates. The
//!    approximation is within ~1.4e-4 of the true CDF for moderate `y`
//!    and, unlike a lookup table, is smooth and strictly monotone.
//! 2. **Acceptable heartbeat pause.** A configured slack added to the
//!    estimated mean: `y` uses `mean + acceptable_heartbeat_pause`, so
//!    known benign stalls (GC pauses, scheduling hiccups) do not drive φ
//!    across thresholds. This widens detection time in exchange for
//!    fewer mistakes — a QoS trade the e16 race quantifies.
//! 3. **First-heartbeat bootstrap.** The very first arrival seeds the
//!    window with two synthetic samples `guess ± guess/4` (mean `guess`,
//!    σ `guess/4`), where `guess = first_heartbeat_estimate`. The
//!    detector is thus opinionated from the first heartbeat onward
//!    rather than undefined until a second arrival.
//!
//! Queries are O(1): the window maintains its moments incrementally
//! (PR 4), so φ is a closed-form function of `(count, mean, σ, elapsed)`.

use afd_core::accrual::{AccrualFailureDetector, DetectorSeed};
use afd_core::error::ConfigError;
use afd_core::stats::SlidingWindow;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};

/// Configuration for [`AkkaPhi`], mirroring the knobs of
/// `akka.remote.PhiAccrualFailureDetector`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AkkaPhiConfig {
    /// Sliding-window capacity for inter-arrival samples (default 1000,
    /// Akka's `max-sample-size`). Must be at least 2 so the bootstrap
    /// pair fits.
    pub window_size: usize,
    /// The assumed heartbeat interval before any data arrives; the first
    /// arrival seeds the window with `estimate ± estimate/4`.
    pub first_heartbeat_estimate: Duration,
    /// Slack added to the estimated mean before computing the deviation:
    /// pauses up to roughly this long are considered benign.
    pub acceptable_heartbeat_pause: Duration,
    /// Floor on the estimated standard deviation (default 100 ms, Akka's
    /// `min-std-deviation`), guarding against a too-regular window making
    /// φ explode on the first slightly-late heartbeat.
    pub min_std_dev: Duration,
}

impl Default for AkkaPhiConfig {
    fn default() -> Self {
        AkkaPhiConfig {
            window_size: 1000,
            first_heartbeat_estimate: Duration::from_secs(1),
            acceptable_heartbeat_pause: Duration::ZERO,
            min_std_dev: Duration::from_millis(100),
        }
    }
}

impl AkkaPhiConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the window cannot hold the bootstrap
    /// pair, the first-heartbeat estimate is zero, or the σ floor is zero
    /// (the logistic tail divides by σ, so unlike [`crate::phi::PhiConfig`]
    /// a zero floor is not accepted here — Akka's default is 100 ms).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window_size < 2 {
            return Err(ConfigError::new(
                "akka-phi window must hold at least the two bootstrap samples",
            ));
        }
        if self.first_heartbeat_estimate.is_zero() {
            return Err(ConfigError::new(
                "akka-phi first heartbeat estimate must be positive",
            ));
        }
        if self.min_std_dev.is_zero() {
            return Err(ConfigError::new(
                "akka-phi min std deviation must be positive",
            ));
        }
        Ok(())
    }
}

/// The Akka/Cassandra φ accrual failure detector.
///
/// # Examples
///
/// ```
/// use afd_core::accrual::AccrualFailureDetector;
/// use afd_core::time::Timestamp;
/// use afd_detectors::akka::{AkkaPhi, AkkaPhiConfig};
///
/// let mut fd = AkkaPhi::new(AkkaPhiConfig::default())?;
/// for s in 1..=20 {
///     fd.record_heartbeat(Timestamp::from_secs(s));
/// }
/// let low = fd.suspicion_level(Timestamp::from_secs_f64(20.1));
/// let high = fd.suspicion_level(Timestamp::from_secs(25));
/// assert!(low.value() < 0.5);
/// assert!(high.value() > 5.0);
/// # Ok::<(), afd_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AkkaPhi {
    config: AkkaPhiConfig,
    gaps: SlidingWindow,
    last_heartbeat: Option<Timestamp>,
}

impl AkkaPhi {
    /// Creates the detector.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `config` is invalid.
    pub fn new(config: AkkaPhiConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(AkkaPhi {
            config,
            gaps: SlidingWindow::new(config.window_size),
            last_heartbeat: None,
        })
    }

    /// The detector with default configuration.
    ///
    /// # Panics
    ///
    /// Never panics: the default configuration is valid.
    pub fn with_defaults() -> Self {
        AkkaPhi::new(AkkaPhiConfig::default()).expect("default config is valid")
    }

    /// The most recent heartbeat arrival, if any.
    pub fn last_heartbeat(&self) -> Option<Timestamp> {
        self.last_heartbeat
    }

    /// Number of inter-arrival samples in the window (bootstrap samples
    /// included).
    pub fn samples(&self) -> usize {
        self.gaps.len()
    }

    /// The configuration this detector was built with.
    pub fn config(&self) -> AkkaPhiConfig {
        self.config
    }

    /// The current estimate of the mean inter-arrival time, in seconds
    /// (before the acceptable-pause padding).
    pub fn mean_interval(&self) -> f64 {
        if self.gaps.is_empty() {
            self.config.first_heartbeat_estimate.as_secs_f64()
        } else {
            self.gaps.mean()
        }
    }

    /// The current σ estimate in seconds, with the configured floor.
    pub fn std_dev(&self) -> f64 {
        let floor = self.config.min_std_dev.as_secs_f64();
        if self.gaps.is_empty() {
            (self.config.first_heartbeat_estimate.as_secs_f64() / 4.0).max(floor)
        } else {
            self.gaps.population_std_dev().max(floor)
        }
    }

    /// φ from an explicit (mean, σ) estimate; both the O(1) path and the
    /// O(window) reference funnel through here.
    fn phi_from(&self, now: Timestamp, mean: f64, std: f64) -> f64 {
        let Some(last) = self.last_heartbeat else {
            return 0.0;
        };
        let elapsed = now.saturating_duration_since(last).as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let padded = mean + self.config.acceptable_heartbeat_pause.as_secs_f64();
        let y = (elapsed - padded) / std;
        let t = y * (1.5976 + 0.070566 * y * y);
        // φ = log₁₀(1 + e^t): softplus in log space. For large positive t
        // the naive 1 + e^t overflows; split on the sign so each branch
        // exponentiates a non-positive argument only.
        let softplus = if t > 0.0 {
            t + (-t).exp().ln_1p()
        } else {
            t.exp().ln_1p()
        };
        softplus * core::f64::consts::LOG10_E
    }

    /// The raw φ value at `now` — an O(1) query off the incrementally
    /// maintained window moments. The test-only `phi_naive` is the
    /// O(window) reference it is property-tested against.
    pub fn phi(&self, now: Timestamp) -> f64 {
        self.phi_from(now, self.mean_interval(), self.std_dev())
    }

    /// Reference φ that recomputes the window moments by rescanning every
    /// retained gap. Exists purely as an oracle for the incremental path.
    #[cfg(test)]
    pub fn phi_naive(&self, now: Timestamp) -> f64 {
        let floor = self.config.min_std_dev.as_secs_f64();
        let (mean, std) = if self.gaps.is_empty() {
            let est = self.config.first_heartbeat_estimate.as_secs_f64();
            (est, (est / 4.0).max(floor))
        } else {
            let moments: afd_core::stats::RunningMoments = self.gaps.iter().collect();
            (moments.mean(), moments.population_std_dev().max(floor))
        };
        self.phi_from(now, mean, std)
    }
}

impl AccrualFailureDetector for AkkaPhi {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        match self.last_heartbeat {
            Some(last) => {
                debug_assert!(arrival >= last, "heartbeat arrivals must be non-decreasing");
                let gap = arrival.saturating_duration_since(last).as_secs_f64();
                self.gaps.push(gap);
                self.last_heartbeat = Some(last.max(arrival));
            }
            None => {
                // Akka's bootstrap: seed mean = guess, σ = guess/4 via two
                // synthetic samples, so the first silence is already
                // interpretable against the configured estimate.
                let guess = self.config.first_heartbeat_estimate.as_secs_f64();
                self.gaps.push(guess - guess / 4.0);
                self.gaps.push(guess + guess / 4.0);
                self.last_heartbeat = Some(arrival);
            }
        }
    }

    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        SuspicionLevel::clamped(self.phi(now))
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

    /// Re-seeds the gap window and last-arrival time from `seed`. φ is a
    /// closed-form function of the window moments and the last arrival, so
    /// the restored detector answers bit-comparably (within floating-point
    /// error) to the one that was checkpointed.
    fn restore_seed(&mut self, seed: &DetectorSeed) {
        self.gaps
            .seed_from_moments(seed.samples, seed.mean, seed.population_variance);
        self.last_heartbeat = seed.last_heartbeat;
    }
}

impl afd_core::canonical::CanonicalState for AkkaPhi {
    fn canonical_state(&self, digest: &mut afd_core::canonical::StateDigest) {
        digest.push_usize(self.config.window_size);
        self.config.first_heartbeat_estimate.canonical_state(digest);
        self.config
            .acceptable_heartbeat_pause
            .canonical_state(digest);
        self.config.min_std_dev.canonical_state(digest);
        self.gaps.canonical_state(digest);
        self.last_heartbeat.canonical_state(digest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::dist::{ArrivalDistribution, Normal};

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs_f64(s)
    }

    fn regular(n: usize) -> AkkaPhi {
        let mut fd = AkkaPhi::with_defaults();
        for k in 1..=n {
            fd.record_heartbeat(ts(k as f64));
        }
        fd
    }

    #[test]
    fn config_validation() {
        assert!(AkkaPhiConfig::default().validate().is_ok());
        assert!(AkkaPhiConfig {
            window_size: 1,
            ..AkkaPhiConfig::default()
        }
        .validate()
        .is_err());
        assert!(AkkaPhiConfig {
            first_heartbeat_estimate: Duration::ZERO,
            ..AkkaPhiConfig::default()
        }
        .validate()
        .is_err());
        assert!(AkkaPhiConfig {
            min_std_dev: Duration::ZERO,
            ..AkkaPhiConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn zero_before_any_heartbeat() {
        let mut fd = AkkaPhi::with_defaults();
        assert_eq!(fd.suspicion_level(ts(100.0)).value(), 0.0);
    }

    #[test]
    fn bootstrap_seeds_guess_moments() {
        let mut fd = AkkaPhi::with_defaults();
        fd.record_heartbeat(ts(5.0));
        assert_eq!(fd.samples(), 2);
        assert!((fd.mean_interval() - 1.0).abs() < 1e-12);
        assert!((fd.std_dev() - 0.25).abs() < 1e-12);
        // Three estimated intervals of silence is already suspicious.
        assert!(fd.phi(ts(8.0)) > 3.0);
    }

    #[test]
    fn phi_at_the_padded_mean_is_log10_of_two() {
        // At elapsed == mean + pause, y = 0, the logistic CDF is 1/2, so
        // φ = −log₁₀(1/2) = log₁₀ 2 exactly.
        let fd = regular(50);
        let phi = fd.phi(ts(50.0 + fd.mean_interval()));
        assert!((phi - 2f64.log10()).abs() < 1e-12, "φ = {phi}");
    }

    #[test]
    fn logistic_tail_approximates_the_normal_tail() {
        // For moderate deviations the logistic approximation tracks the
        // exact normal −log₁₀ sf closely.
        let fd = regular(50);
        let (mean, std) = (fd.mean_interval(), fd.std_dev());
        let normal = Normal::new(mean, std).unwrap();
        for y in [0.5, 1.0, 1.5, 2.0] {
            let at = ts(50.0 + mean + y * std);
            let approx = fd.phi(at);
            let exact = -normal.log10_sf(mean + y * std);
            assert!(
                (approx - exact).abs() < 0.1,
                "y = {y}: logistic {approx} vs normal {exact}"
            );
        }
    }

    #[test]
    fn acceptable_pause_shifts_the_curve_right() {
        let mut plain = AkkaPhi::with_defaults();
        let mut padded = AkkaPhi::new(AkkaPhiConfig {
            acceptable_heartbeat_pause: Duration::from_secs(3),
            ..AkkaPhiConfig::default()
        })
        .unwrap();
        for k in 1..=30 {
            plain.record_heartbeat(ts(k as f64));
            padded.record_heartbeat(ts(k as f64));
        }
        // Two seconds of silence: conclusive without padding, benign with.
        assert!(plain.phi(ts(33.0)) > 5.0);
        assert!(padded.phi(ts(33.0)) < 0.5);
        // The padded curve catches up once the pause is exhausted.
        assert!(padded.phi(ts(40.0)) > 5.0);
    }

    #[test]
    fn phi_is_strictly_increasing_and_unbounded() {
        let fd = regular(30);
        let mut prev = fd.phi(ts(30.5));
        for i in 1..200 {
            let phi = fd.phi(ts(30.5 + 0.5 * i as f64));
            assert!(phi > prev, "φ must increase: {phi} !> {prev}");
            prev = phi;
        }
        // Far future: enormous (cubic in y) but finite — Accruement holds
        // long past where the raw tail probability underflows.
        let far = fd.phi(ts(10_000.0));
        assert!(far.is_finite() && far > 1e6, "far φ = {far}");
    }

    #[test]
    fn query_at_the_arrival_instant_is_zero() {
        let mut fd = regular(10);
        assert_eq!(fd.suspicion_level(ts(10.0)).value(), 0.0);
    }

    #[test]
    fn seed_round_trip_reproduces_levels() {
        let mut fd = AkkaPhi::with_defaults();
        let mut t = 0.0;
        for k in 0..40 {
            t += if k % 3 == 0 { 0.8 } else { 1.1 };
            fd.record_heartbeat(ts(t));
        }
        let seed = fd.save_seed().expect("akka-phi persists");
        let mut restored = AkkaPhi::with_defaults();
        restored.restore_seed(&seed);
        for late in [0.1, 0.5, 1.0, 3.0, 10.0] {
            let at = ts(t + late);
            let a = fd.suspicion_level(at).value();
            let b = restored.suspicion_level(at).value();
            assert!((a - b).abs() < 1e-9, "+{late}s: {a} vs {b}");
        }
    }

    #[test]
    fn window_eviction_keeps_levels_consistent() {
        let mut fd = AkkaPhi::new(AkkaPhiConfig {
            window_size: 8,
            ..AkkaPhiConfig::default()
        })
        .unwrap();
        for k in 1..=100 {
            fd.record_heartbeat(ts(k as f64 * 2.0)); // 2 s cadence
        }
        assert_eq!(fd.samples(), 8);
        // The bootstrap pair has long been evicted; the estimate is the
        // observed cadence.
        assert!((fd.mean_interval() - 2.0).abs() < 1e-9);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The O(1) incremental query agrees with the O(window) rescan
            /// to 1e-9 on arbitrary traces, forcing evictions.
            #[test]
            fn incremental_phi_matches_naive_rescan(
                gaps in prop::collection::vec(0.01f64..5.0, 1..120),
                window_size in 4usize..40,
                pause in 0.0f64..2.0,
                late in 0.0f64..20.0,
            ) {
                let mut fd = AkkaPhi::new(AkkaPhiConfig {
                    window_size,
                    acceptable_heartbeat_pause: Duration::from_secs_f64(pause),
                    ..AkkaPhiConfig::default()
                })
                .unwrap();
                let mut t = 1.0;
                fd.record_heartbeat(ts(t));
                for g in &gaps {
                    t += g;
                    fd.record_heartbeat(ts(t));
                }
                let at = ts(t + late);
                let fast = fd.phi(at);
                let slow = fd.phi_naive(at);
                prop_assert!(fast.is_finite() && slow.is_finite());
                // Relative tolerance: the cubic deviate term amplifies
                // last-bit moment differences when φ reaches the
                // thousands, so an absolute 1e-9 would be unfairly tight.
                prop_assert!(
                    (fast - slow).abs() < 1e-9 * fast.abs().max(1.0),
                    "phi {} vs naive {}",
                    fast,
                    slow
                );
            }

            /// φ is finite and non-negative at every elapsed time,
            /// including the exact arrival instant.
            #[test]
            fn phi_is_always_finite_and_non_negative(
                beats in 1usize..30,
                late in 0.0f64..100.0,
            ) {
                let mut fd = AkkaPhi::with_defaults();
                for k in 1..=beats {
                    fd.record_heartbeat(ts(k as f64));
                }
                let phi = fd.phi(ts(beats as f64 + late));
                prop_assert!(phi.is_finite() && !phi.is_nan());
                prop_assert!(phi >= 0.0);
            }
        }
    }
}
