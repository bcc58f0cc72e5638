//! The φ accrual failure detector (§5.3).
//!
//! Where Chen's detector estimates only the *mean* of the next arrival
//! time, φ estimates the full distribution of inter-arrival times — mean
//! and variance over a sliding window, plus an assumed shape — and outputs
//!
//! `φ(t) = −log₁₀( P_later(t − t_last) )`
//!
//! where `P_later(x)` is the probability that a heartbeat arrives more than
//! `x` after the previous one. The threshold semantics are probabilistic:
//! suspecting at `φ > Φ` means the chance of a wrong suspicion is about
//! `10^−Φ`, assuming the network is probabilistically stable.
//!
//! Three tail shapes are provided (the paper names normal inter-arrivals
//! and Erlang transmission times; deployed descendants use others):
//!
//! - [`PhiModel::Normal`] — the original detector (Hayashibara et al.) and
//!   Akka's implementation;
//! - [`PhiModel::Exponential`] — the tail Cassandra uses, linear in the
//!   elapsed time;
//! - [`PhiModel::Empirical`] — a non-parametric histogram estimate with
//!   Laplace smoothing.
//!
//! Tail evaluation happens in log space, so φ keeps growing (and
//! Accruement keeps holding) long after the raw probability underflows.
//!
//! A monitor queries every watched peer at every publish but records an
//! arrival only when one lands, so the work is split accordingly: whatever
//! depends on the window alone — the σ estimate and its floor, the
//! bootstrap prior, the distribution's validation and its reciprocals —
//! goes into the detector's [`LevelCurve`]
//! ([`level_curve`](AccrualFailureDetector::level_curve)), which a monitor
//! takes once per arrival (or restore) and keeps; a query is that curve
//! [`at`](LevelCurve::at) the query time — one subtraction, one
//! multiplication and a single polynomial, with no `exp` and no `ln`,
//! wherever a live peer sits between two heartbeats — and never comes
//! back to the detector. The detector stores the curve's inputs (the last
//! arrival and the window moments), not the curve. Only the empirical
//! model, once its histogram answers, has no curve.

use core::f64::consts::LN_10;

use afd_core::accrual::{AccrualFailureDetector, DetectorSeed, LevelCurve};
use afd_core::dist::{ArrivalDistribution, Empirical, Exponential, Normal};
use afd_core::error::ConfigError;
use afd_core::stats::SlidingWindow;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};

/// The assumed inter-arrival distribution shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhiModel {
    /// Normal inter-arrival times (the original φ detector).
    Normal,
    /// Exponential tail on the elapsed time (Cassandra's variant):
    /// `φ = (t − t_last) / mean · log₁₀ e`.
    Exponential,
    /// Non-parametric histogram of past gaps with add-one smoothing.
    Empirical {
        /// Number of histogram bins.
        bins: usize,
        /// Histogram range, in multiples of the expected interval.
        max_intervals: f64,
    },
}

/// Configuration for [`PhiAccrual`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhiConfig {
    /// Sliding-window capacity for inter-arrival samples (default 1000,
    /// as in the original implementation).
    pub window_size: usize,
    /// Minimum number of samples before the windowed estimate is trusted;
    /// below it, a prior of `N(initial_interval, (initial_interval/4)²)`
    /// is used (the bootstrap Akka popularized). Values below 2 are
    /// treated as 2: a single gap carries no variance information and an
    /// empty window has a degenerate (zero) mean, either of which would
    /// push φ to NaN/∞ instead of the documented bootstrap value.
    pub min_samples: usize,
    /// Floor on the estimated standard deviation, guarding against a
    /// degenerate (near-zero-variance) window making φ explode on the
    /// first slightly-late heartbeat. A zero floor is allowed and means
    /// "trust the window exactly": over a constant-interval window the
    /// detector substitutes the smallest σ the mean's precision can
    /// represent, so φ is huge for any lateness but always finite.
    pub min_std_dev: Duration,
    /// The assumed heartbeat interval before any data arrives.
    pub initial_interval: Duration,
    /// The distribution shape.
    pub model: PhiModel,
}

impl Default for PhiConfig {
    fn default() -> Self {
        PhiConfig {
            window_size: 1000,
            min_samples: 5,
            min_std_dev: Duration::from_millis(10),
            initial_interval: Duration::from_secs(1),
            model: PhiModel::Normal,
        }
    }
}

impl PhiConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an empty window, a window size or
    /// `min_samples` above `u32::MAX`, a zero initial interval, or a
    /// degenerate empirical histogram.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window_size == 0 {
            return Err(ConfigError::new("phi window size must be positive"));
        }
        if u32::try_from(self.window_size).is_err() || u32::try_from(self.min_samples).is_err() {
            return Err(ConfigError::new(
                "phi window size and min_samples must fit in 32 bits",
            ));
        }
        if self.initial_interval.is_zero() {
            return Err(ConfigError::new("phi initial interval must be positive"));
        }
        if let PhiModel::Empirical {
            bins,
            max_intervals,
        } = self.model
        {
            if bins == 0 {
                return Err(ConfigError::new(
                    "phi empirical model needs at least one bin",
                ));
            }
            if !(max_intervals.is_finite() && max_intervals > 0.0) {
                return Err(ConfigError::new(
                    "phi empirical range must be a positive number of intervals",
                ));
            }
        }
        Ok(())
    }
}

/// The φ accrual failure detector.
///
/// # Examples
///
/// ```
/// use afd_core::accrual::AccrualFailureDetector;
/// use afd_core::time::Timestamp;
/// use afd_detectors::phi::{PhiAccrual, PhiConfig};
///
/// let mut fd = PhiAccrual::new(PhiConfig::default())?;
/// for s in 1..=20 {
///     fd.record_heartbeat(Timestamp::from_secs(s));
/// }
/// // Right after a heartbeat the suspicion is negligible…
/// let low = fd.suspicion_level(Timestamp::from_secs_f64(20.1));
/// // …and five intervals of silence later it is large.
/// let high = fd.suspicion_level(Timestamp::from_secs(25));
/// assert!(low.value() < 0.5);
/// assert!(high.value() > 5.0);
/// # Ok::<(), afd_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhiAccrual {
    params: LevelParams,
    gaps: SlidingWindow,
    /// The histogram behind [`PhiModel::Empirical`], boxed with its range
    /// so the two parametric models — a wide monitor holds thousands of
    /// them, and every accepted heartbeat walks one — do not carry its
    /// bytes.
    empirical: Option<Box<EmpiricalModel>>,
    last_heartbeat: Option<Timestamp>,
}

/// What a level reads of a [`PhiConfig`]; the window size is the window's
/// own capacity and the empirical range sits in [`EmpiricalModel`]. 24
/// bytes where the configuration is 56, so that with the window, the last
/// arrival and the watermark a monitor keeps beside it a φ peer fills two
/// cache lines.
#[derive(Debug, Clone, Copy)]
struct LevelParams {
    min_std_dev: Duration,
    initial_interval: Duration,
    /// [`PhiConfig::min_samples`], which validation keeps within 32 bits.
    min_samples: u32,
    shape: Shape,
}

/// [`PhiModel`] without the empirical model's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Normal,
    Exponential,
    Empirical,
}

/// The empirical model's histogram and the range, in expected intervals,
/// it was built over.
#[derive(Debug, Clone)]
struct EmpiricalModel {
    bins: usize,
    max_intervals: f64,
    hist: Empirical,
}

impl PhiAccrual {
    /// Creates the detector.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `config` is invalid.
    pub fn new(config: PhiConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let (shape, empirical) = match config.model {
            PhiModel::Normal => (Shape::Normal, None),
            PhiModel::Exponential => (Shape::Exponential, None),
            PhiModel::Empirical {
                bins,
                max_intervals,
            } => {
                let hist = Empirical::new(
                    0.0,
                    config.initial_interval.as_secs_f64() * max_intervals,
                    bins,
                )
                .expect("validated empirical parameters");
                let model = Box::new(EmpiricalModel {
                    bins,
                    max_intervals,
                    hist,
                });
                (Shape::Empirical, Some(model))
            }
        };
        Ok(PhiAccrual {
            params: LevelParams {
                min_std_dev: config.min_std_dev,
                initial_interval: config.initial_interval,
                min_samples: u32::try_from(config.min_samples).expect("validated min_samples"),
                shape,
            },
            gaps: SlidingWindow::new(config.window_size),
            empirical,
            last_heartbeat: None,
        })
    }

    /// The detector with default (normal-model) configuration.
    ///
    /// # Panics
    ///
    /// Never panics: the default configuration is valid.
    pub fn with_defaults() -> Self {
        PhiAccrual::new(PhiConfig::default()).expect("default config is valid")
    }

    /// The most recent heartbeat arrival, if any.
    pub fn last_heartbeat(&self) -> Option<Timestamp> {
        self.last_heartbeat
    }

    /// The sample count below which the bootstrap prior applies: the
    /// configured `min_samples`, floored at 2 (see [`PhiConfig::min_samples`]).
    fn bootstrap_below(&self) -> usize {
        (self.params.min_samples as usize).max(2)
    }

    /// Applies the bootstrap prior and the σ floor to raw window moments.
    fn estimates(&self, samples: usize, window_mean: f64, window_std: f64) -> (f64, f64) {
        let floor = self.params.min_std_dev.as_secs_f64();
        let (mean, est) = if samples < self.bootstrap_below() {
            let prior = self.params.initial_interval.as_secs_f64();
            (prior, (prior / 4.0).max(floor))
        } else {
            (window_mean, window_std.max(floor))
        };
        let std = if est > 0.0 {
            est
        } else {
            // A zero floor over a constant-interval window collapses the
            // estimate to exactly zero, which Normal rejects (division by
            // zero in the z-score). Substitute the smallest σ the mean's
            // own precision can distinguish: φ is then huge for any real
            // lateness yet finite at every representable timestamp.
            mean.abs().max(1.0) * f64::EPSILON
        };
        (mean, std)
    }

    /// The (mean, σ) pair from the incrementally maintained window moments.
    fn window_estimates(&self) -> (f64, f64) {
        self.estimates(
            self.gaps.len(),
            self.gaps.mean(),
            self.gaps.population_std_dev(),
        )
    }

    /// The current estimate of the mean inter-arrival time, in seconds.
    ///
    /// With fewer than two samples in the window (regardless of how low
    /// `min_samples` is configured) this is the bootstrap
    /// `initial_interval`, never the degenerate windowed mean.
    pub fn mean_interval(&self) -> f64 {
        self.window_estimates().0
    }

    /// The current estimate of the inter-arrival standard deviation,
    /// in seconds (with the configured floor applied). Always strictly
    /// positive, so every distribution constructor below accepts it.
    pub fn std_dev(&self) -> f64 {
        self.window_estimates().1
    }

    /// Number of inter-arrival samples in the window.
    pub fn samples(&self) -> usize {
        self.gaps.len()
    }

    /// The configuration this detector was built with.
    pub fn config(&self) -> PhiConfig {
        let params = self.params;
        PhiConfig {
            window_size: self.gaps.capacity(),
            min_samples: params.min_samples as usize,
            min_std_dev: params.min_std_dev,
            initial_interval: params.initial_interval,
            model: self.model(),
        }
    }

    /// The distribution shape, with the empirical model's parameters.
    fn model(&self) -> PhiModel {
        match (self.params.shape, &self.empirical) {
            (Shape::Empirical, Some(model)) => PhiModel::Empirical {
                bins: model.bins,
                max_intervals: model.max_intervals,
            },
            (Shape::Exponential, _) => PhiModel::Exponential,
            _ => PhiModel::Normal,
        }
    }

    /// The empirical histogram; present exactly when the shape is
    /// [`Shape::Empirical`].
    fn histogram(&self) -> &Empirical {
        let model = self.empirical.as_ref().expect("empirical model present");
        &model.hist
    }

    /// Builds the curve a (mean, σ) estimate stands for: `−log₁₀` of the
    /// model's upper tail at the time elapsed since the last arrival, zero
    /// before the first. Both the O(1) query path (through
    /// [`level_curve`](AccrualFailureDetector::level_curve)) and the
    /// O(window) reference path come through here and through
    /// [`phi_of`](Self::phi_of), so they can only disagree on the moments
    /// themselves.
    fn curve_from(&self, (mean, std): (f64, f64)) -> Option<LevelCurve> {
        let Some(last) = self.last_heartbeat else {
            return Some(LevelCurve::Zero);
        };
        let normal_tail = |dist: Normal| LevelCurve::NormalTail {
            last,
            mean: dist.mean(),
            scale: dist.erfc_scale(),
        };
        match self.params.shape {
            Shape::Normal => Some(normal_tail(
                Normal::new(mean, std).expect("estimator yields finite positive parameters"),
            )),
            Shape::Exponential => {
                // A degenerate window (all-zero gaps from coincident
                // arrivals) can estimate a zero mean. Falling back to a
                // floor of 1 ns would make φ ≈ 4.3e8 per second of elapsed
                // time — instantly conclusive on the very first query after
                // bootstrap. Fall back to the configured prior instead: no
                // data means no evidence for rates faster than the assumed
                // interval.
                let mean = if mean.is_finite() && mean > 0.0 {
                    mean
                } else {
                    self.params.initial_interval.as_secs_f64()
                };
                // `−log₁₀ e^{−λx}`, as `Exponential::log10_sf` spells it.
                let dist = Exponential::from_mean(mean).expect("positive mean");
                Some(LevelCurve::Linear {
                    since: last,
                    rate: dist.rate(),
                    per: LN_10,
                })
            }
            Shape::Empirical => {
                // Below the bootstrap count, the normal prior.
                ((self.histogram().count() as usize) < self.bootstrap_below()).then(|| {
                    normal_tail(Normal::new(mean, std).expect("bootstrap parameters valid"))
                })
            }
        }
    }

    /// Evaluates φ at `now` against `curve`, or against the empirical
    /// histogram if there is none.
    #[inline]
    fn phi_of(&self, now: Timestamp, curve: Option<LevelCurve>) -> f64 {
        if let Some(curve) = curve {
            return curve.at(now);
        }
        let Some(last) = self.last_heartbeat else {
            return 0.0;
        };
        let elapsed = now.saturating_duration_since(last).as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        (-self.histogram().log10_sf(elapsed)).max(0.0)
    }

    /// The raw φ value at `now` (equal to the suspicion level, exposed for
    /// callers that think in φ units).
    ///
    /// This is an O(1) query: the window moments are maintained
    /// incrementally on insertion, so no per-call rescan of the sample
    /// window happens here. The detector keeps no curve of its own — a
    /// monitor's curve column is the one copy — so a query here rebuilds
    /// it from the moments: one square root and two divisions on top of
    /// the evaluation. A monitor's published levels do not pay that; they
    /// come off the curve it took at the last arrival. The test-only
    /// `phi_naive` is the O(window) reference implementation it is
    /// property-tested against.
    #[inline]
    pub fn phi(&self, now: Timestamp) -> f64 {
        self.phi_of(now, self.level_curve())
    }

    /// Reference φ that recomputes the window moments from scratch by
    /// rescanning every retained gap (O(window) per call).
    ///
    /// Exists purely as an oracle for the incremental path: property tests
    /// assert `|phi − phi_naive| < 1e-9` across random heartbeat traces.
    #[cfg(test)]
    pub fn phi_naive(&self, now: Timestamp) -> f64 {
        let moments: afd_core::stats::RunningMoments = self.gaps.iter().collect();
        let curve = self.curve_from(self.estimates(
            moments.count() as usize,
            moments.mean(),
            moments.population_std_dev(),
        ));
        self.phi_of(now, curve)
    }
}

impl AccrualFailureDetector for PhiAccrual {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        if let Some(last) = self.last_heartbeat {
            debug_assert!(arrival >= last, "heartbeat arrivals must be non-decreasing");
            let gap = arrival.saturating_duration_since(last).as_secs_f64();
            self.gaps.push(gap);
            if let Some(model) = &mut self.empirical {
                model.hist.record(gap);
            }
        }
        self.last_heartbeat = Some(self.last_heartbeat.map_or(arrival, |l| l.max(arrival)));
    }

    #[inline]
    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        SuspicionLevel::clamped(self.phi(now))
    }

    fn prefetch(&self) {
        self.gaps.prefetch();
    }

    /// Built from the window moments at each call, bit for bit the curve
    /// an arrival would have cached: a monitor asks once per changed peer
    /// per publish and keeps the answer.
    fn level_curve(&self) -> Option<LevelCurve> {
        self.curve_from(self.window_estimates())
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

    /// Re-seeds the gap window and last-arrival time from `seed`.
    ///
    /// The empirical histogram (when [`PhiModel::Empirical`] is
    /// configured) is *not* persisted: a restore empties it, so it restarts
    /// below its bootstrap count and φ falls back to the normal model over
    /// the seeded moments until enough fresh gaps re-populate it —
    /// pre-crash quality under the normal model, graceful re-learning
    /// under the empirical one, and the same answer whether or not the
    /// detector had a history of its own before the restore.
    fn restore_seed(&mut self, seed: &DetectorSeed) {
        self.gaps
            .seed_from_moments(seed.samples, seed.mean, seed.population_variance);
        if let Some(model) = &mut self.empirical {
            model.hist.clear();
        }
        self.last_heartbeat = seed.last_heartbeat;
    }
}

impl afd_core::canonical::CanonicalState for PhiAccrual {
    fn canonical_state(&self, digest: &mut afd_core::canonical::StateDigest) {
        let config = self.config();
        digest.push_usize(config.window_size);
        digest.push_usize(config.min_samples);
        config.min_std_dev.canonical_state(digest);
        config.initial_interval.canonical_state(digest);
        match config.model {
            PhiModel::Normal => digest.push_u64(0),
            PhiModel::Empirical {
                bins,
                max_intervals,
            } => {
                digest.push_u64(1);
                digest.push_usize(bins);
                digest.push_f64(max_intervals);
            }
            PhiModel::Exponential => digest.push_u64(2),
        }
        self.gaps.canonical_state(digest);
        match &self.empirical {
            None => digest.push_bool(false),
            Some(model) => {
                digest.push_bool(true);
                model.hist.canonical_state(digest);
            }
        }
        self.last_heartbeat.canonical_state(digest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs_f64(s)
    }

    fn regular(n: usize) -> PhiAccrual {
        let mut fd = PhiAccrual::with_defaults();
        for k in 1..=n {
            fd.record_heartbeat(ts(k as f64));
        }
        fd
    }

    #[test]
    fn detector_stays_within_two_cache_lines() {
        // A monitor keeps one per watched peer and its slot adds the id
        // and the watermark (24 bytes): the histogram only one model uses
        // stays boxed, the curve lives in the monitor's column, and the
        // configuration keeps only what a level reads.
        assert!(std::mem::size_of::<PhiAccrual>() <= 104);
    }

    #[test]
    fn config_round_trips_through_the_detector() {
        for model in [
            PhiModel::Normal,
            PhiModel::Exponential,
            PhiModel::Empirical {
                bins: 24,
                max_intervals: 6.5,
            },
        ] {
            let config = PhiConfig {
                window_size: 77,
                min_samples: 9,
                min_std_dev: Duration::from_millis(3),
                initial_interval: Duration::from_millis(250),
                model,
            };
            assert_eq!(PhiAccrual::new(config).unwrap().config(), config);
        }
    }

    #[test]
    fn zero_before_any_heartbeat() {
        let mut fd = PhiAccrual::with_defaults();
        assert_eq!(fd.suspicion_level(ts(100.0)).value(), 0.0);
    }

    #[test]
    fn phi_grows_with_silence() {
        let mut fd = regular(30);
        let p1 = fd.suspicion_level(ts(31.0)).value();
        let p2 = fd.suspicion_level(ts(32.0)).value();
        let p3 = fd.suspicion_level(ts(35.0)).value();
        assert!(p1 < p2 && p2 < p3, "({p1}, {p2}, {p3})");
        assert!(
            p3 > 10.0,
            "five intervals late should be conclusive, got {p3}"
        );
    }

    #[test]
    fn phi_is_small_right_after_heartbeat() {
        let mut fd = regular(30);
        assert!(fd.suspicion_level(ts(30.05)).value() < 0.1);
    }

    #[test]
    fn phi_threshold_has_probabilistic_meaning() {
        // With a perfectly regular cadence (std floored at 10 ms), the
        // elapsed time at which φ crosses 1.0 is where the tail is 10%.
        let fd = regular(30);
        let elapsed_at_phi1 = {
            // Solve by scanning.
            let mut t = 1.0;
            while fd.phi(ts(30.0 + t)) < 1.0 {
                t += 1e-4;
            }
            t
        };
        let dist = Normal::new(fd.mean_interval(), fd.std_dev()).unwrap();
        let tail = dist.sf(elapsed_at_phi1);
        assert!(
            (tail - 0.1).abs() < 0.01,
            "tail at φ=1 should be ≈0.1, got {tail}"
        );
    }

    #[test]
    fn adapts_to_jitter() {
        // A jittery cadence widens the distribution, so the same lateness
        // yields a smaller φ than under a regular cadence.
        let mut regular_fd = PhiAccrual::with_defaults();
        let mut jitter_fd = PhiAccrual::with_defaults();
        let mut t_r = 0.0;
        let mut t_j = 0.0;
        for k in 0..60 {
            t_r += 1.0;
            t_j += if k % 2 == 0 { 0.5 } else { 1.5 };
            regular_fd.record_heartbeat(ts(t_r));
            jitter_fd.record_heartbeat(ts(t_j));
        }
        let lateness = 2.0;
        let phi_regular = regular_fd.phi(ts(t_r + lateness));
        let phi_jitter = jitter_fd.phi(ts(t_j + lateness));
        assert!(
            phi_jitter < phi_regular / 2.0,
            "jitter-adapted φ {phi_jitter} should be far below {phi_regular}"
        );
    }

    #[test]
    fn bootstrap_prior_applies_before_min_samples() {
        let mut fd = PhiAccrual::new(PhiConfig {
            min_samples: 10,
            ..PhiConfig::default()
        })
        .unwrap();
        fd.record_heartbeat(ts(1.0));
        // Only 0 gaps: estimates come from the prior.
        assert_eq!(fd.mean_interval(), 1.0);
        assert_eq!(fd.std_dev(), 0.25);
        // And φ is already meaningful: late by 3 intervals is suspicious.
        assert!(fd.phi(ts(4.0)) > 5.0);
    }

    #[test]
    fn min_std_floor_prevents_explosion() {
        // Perfectly regular arrivals would estimate σ = 0; the floor keeps
        // φ finite for small lateness.
        let mut fd = regular(100);
        let phi = fd.suspicion_level(ts(100.0 + 1.02)).value();
        assert!(phi.is_finite());
        assert!(
            phi < 100.0,
            "φ should be tempered by the σ floor, got {phi}"
        );
    }

    #[test]
    fn zero_min_std_dev_on_constant_window_stays_finite() {
        // With no σ floor, a perfectly regular cadence collapses the
        // variance estimate to zero; φ must degrade to "huge but finite"
        // rather than NaN, ∞, or a constructor panic.
        let mut fd = PhiAccrual::new(PhiConfig {
            min_std_dev: Duration::ZERO,
            ..PhiConfig::default()
        })
        .unwrap();
        for k in 1..=100 {
            fd.record_heartbeat(ts(k as f64));
        }
        assert_eq!(fd.gaps.population_std_dev(), 0.0);
        assert!(fd.std_dev() > 0.0);
        // On time: no suspicion. Slightly late: conclusive but finite.
        let on_time = fd.suspicion_level(ts(100.5)).value();
        let late = fd.suspicion_level(ts(101.02)).value();
        let very_late = fd.suspicion_level(ts(200.0)).value();
        assert!(on_time.is_finite() && !on_time.is_nan());
        assert!(late.is_finite() && late > 10.0, "late φ = {late}");
        assert!(very_late.is_finite() && very_late > late);
    }

    #[test]
    fn exponential_model_is_linear_in_elapsed() {
        let mut fd = PhiAccrual::new(PhiConfig {
            model: PhiModel::Exponential,
            ..PhiConfig::default()
        })
        .unwrap();
        for k in 1..=20 {
            fd.record_heartbeat(ts(k as f64));
        }
        let p2 = fd.phi(ts(22.0)); // 2 s late
        let p4 = fd.phi(ts(24.0)); // 4 s late
        assert!((p4 - 2.0 * p2).abs() < 1e-9, "exponential φ must be linear");
        // φ = elapsed/mean · log10(e).
        assert!((p2 - 2.0 * std::f64::consts::LOG10_E).abs() < 1e-6);
    }

    #[test]
    fn empirical_model_tracks_observed_gaps() {
        let mut fd = PhiAccrual::new(PhiConfig {
            model: PhiModel::Empirical {
                bins: 100,
                max_intervals: 8.0,
            },
            min_samples: 5,
            ..PhiConfig::default()
        })
        .unwrap();
        for k in 1..=200 {
            fd.record_heartbeat(ts(k as f64));
        }
        // All gaps are 1 s; being 2 s late leaves only the smoothing mass.
        let phi_late = fd.phi(ts(202.5));
        assert!(phi_late > 2.0, "late φ should be large, got {phi_late}");
        let phi_fresh = fd.phi(ts(200.5));
        assert!(phi_fresh < 0.1, "fresh φ should be small, got {phi_fresh}");
    }

    #[test]
    fn unbounded_growth_for_accruement() {
        // φ must keep increasing far past f64 tail underflow.
        let mut fd = regular(30);
        let a = fd.suspicion_level(ts(100.0)).value();
        let b = fd.suspicion_level(ts(1_000.0)).value();
        let c = fd.suspicion_level(ts(10_000.0)).value();
        assert!(a < b && b < c, "({a}, {b}, {c})");
        assert!(c > 1e6, "far-future φ should be enormous, got {c}");
        assert!(c.is_finite());
    }

    #[test]
    fn config_validation() {
        assert!(PhiConfig {
            window_size: 0,
            ..PhiConfig::default()
        }
        .validate()
        .is_err());
        assert!(PhiConfig {
            initial_interval: Duration::ZERO,
            ..PhiConfig::default()
        }
        .validate()
        .is_err());
        // The window counts its samples in 32 bits.
        #[cfg(target_pointer_width = "64")]
        for (window_size, min_samples) in [(1 << 32, 5), (1000, 1 << 32)] {
            let config = PhiConfig {
                window_size,
                min_samples,
                ..PhiConfig::default()
            };
            assert!(config.validate().is_err(), "{window_size}, {min_samples}");
        }
        // A zero σ floor is a valid "trust the window exactly" setting.
        assert!(PhiConfig {
            min_std_dev: Duration::ZERO,
            ..PhiConfig::default()
        }
        .validate()
        .is_ok());
        assert!(PhiConfig {
            model: PhiModel::Empirical {
                bins: 0,
                max_intervals: 4.0
            },
            ..PhiConfig::default()
        }
        .validate()
        .is_err());
        assert!(PhiConfig::default().validate().is_ok());
    }

    #[test]
    fn accessors() {
        let fd = regular(10);
        assert_eq!(fd.samples(), 9);
        assert_eq!(fd.last_heartbeat(), Some(ts(10.0)));
        assert!((fd.mean_interval() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_samples_zero_still_bootstraps_an_empty_window() {
        // Regression: with min_samples ≤ 1 the empty window's moments
        // (mean 0, σ 0) used to reach the distribution constructors,
        // yielding NaN/∞ φ (or a Normal constructor panic) after the very
        // first heartbeat. The bootstrap floor of 2 keeps the documented
        // prior in force instead.
        for min_samples in [0, 1] {
            let mut fd = PhiAccrual::new(PhiConfig {
                min_samples,
                ..PhiConfig::default()
            })
            .unwrap();
            fd.record_heartbeat(ts(1.0));
            assert_eq!(fd.samples(), 0);
            assert_eq!(fd.mean_interval(), 1.0, "bootstrap mean (prior)");
            assert_eq!(fd.std_dev(), 0.25, "bootstrap σ (prior/4)");
            let phi = fd.phi(ts(4.0));
            assert!(phi.is_finite() && !phi.is_nan(), "φ = {phi}");
            assert!(phi > 5.0, "three intervals late must accrue, got {phi}");
        }
    }

    #[test]
    fn single_sample_uses_prior_not_zero_variance() {
        // One gap has no variance information; the estimate must come from
        // the prior, not a σ = 0 window.
        let mut fd = PhiAccrual::new(PhiConfig {
            min_samples: 1,
            min_std_dev: Duration::ZERO,
            ..PhiConfig::default()
        })
        .unwrap();
        fd.record_heartbeat(ts(1.0));
        fd.record_heartbeat(ts(2.0));
        assert_eq!(fd.samples(), 1);
        assert_eq!(fd.std_dev(), 0.25);
        let phi = fd.phi(ts(5.0));
        assert!(phi.is_finite() && phi > 1.0, "φ = {phi}");
    }

    #[test]
    fn coincident_arrivals_keep_every_model_finite() {
        // All-zero gaps (duplicate timestamps) collapse the window mean to
        // zero; φ must stay finite for every model, including the
        // exponential tail that divides by the mean.
        for model in [
            PhiModel::Normal,
            PhiModel::Exponential,
            PhiModel::Empirical {
                bins: 20,
                max_intervals: 4.0,
            },
        ] {
            let mut fd = PhiAccrual::new(PhiConfig {
                model,
                min_samples: 2,
                min_std_dev: Duration::ZERO,
                ..PhiConfig::default()
            })
            .unwrap();
            for _ in 0..10 {
                fd.record_heartbeat(ts(1.0));
            }
            let phi = fd.phi(ts(2.0));
            assert!(phi.is_finite() && !phi.is_nan(), "{model:?}: φ = {phi}");
        }
    }

    #[test]
    fn degenerate_exponential_mean_falls_back_to_prior() {
        // Regression: the old code clamped a zero mean estimate at 1 ns,
        // so the first query after a burst of coincident arrivals returned
        // φ ≈ 4.3e8 per elapsed second — a false conviction manufactured
        // by the clamp, not the data. The fallback must be the configured
        // prior: with initial_interval = 1 s, φ one second late is exactly
        // log₁₀(e).
        let mut fd = PhiAccrual::new(PhiConfig {
            model: PhiModel::Exponential,
            min_samples: 2,
            min_std_dev: Duration::ZERO,
            ..PhiConfig::default()
        })
        .unwrap();
        for _ in 0..10 {
            fd.record_heartbeat(ts(1.0)); // all-zero gaps → window mean 0
        }
        let phi = fd.phi(ts(2.0));
        assert!(
            (phi - std::f64::consts::LOG10_E).abs() < 1e-9,
            "φ must follow the 1 s prior rate, got {phi}"
        );
    }

    #[test]
    fn empirical_phi_keeps_growing_past_histogram_range() {
        // Regression: the smoothed tail used to freeze at 1/(n+1) once
        // elapsed exceeded the last observed gap, so φ plateaued and a
        // long-dead peer's suspicion stopped accruing at the range bound.
        let mut fd = PhiAccrual::new(PhiConfig {
            model: PhiModel::Empirical {
                bins: 64,
                max_intervals: 8.0,
            },
            ..PhiConfig::default()
        })
        .unwrap();
        for k in 1..=100 {
            fd.record_heartbeat(ts(k as f64));
        }
        // Sweep from inside the range (hi = 8 s) to far beyond it.
        let mut prev = fd.phi(ts(100.0 + 2.0));
        for i in 1..40 {
            let phi = fd.phi(ts(100.0 + 2.0 + i as f64));
            assert!(
                phi > prev,
                "φ must grow strictly through and past the range: {phi} !> {prev}"
            );
            prev = phi;
        }
    }

    #[test]
    fn restored_seed_reproduces_phi_through_the_cached_tail() {
        // A restore changes the window without an arrival, so it must also
        // rebuild the cached tail: a fresh detector that kept its bootstrap
        // tail would answer with the prior, not the seeded moments.
        let mut live = PhiAccrual::with_defaults();
        let mut t = 0.0;
        for k in 0..200 {
            t += 0.1 + 0.02 * f64::from(k % 7);
            live.record_heartbeat(ts(t));
        }
        let seed = live.save_seed().unwrap();
        let mut restored = PhiAccrual::with_defaults();
        restored.restore_seed(&seed);
        for late in [0.05, 0.2, 0.5, 2.0, 60.0] {
            let (a, b) = (live.phi(ts(t + late)), restored.phi(ts(t + late)));
            assert!((a - b).abs() <= 1e-9 * a.max(1.0), "+{late}s: {a} vs {b}");
        }
    }

    #[test]
    fn restore_empties_the_empirical_histogram() {
        // Regression: a restore re-seeded the window but kept the
        // histogram, so a detector restored over a history of its own
        // (`ShardedMonitor::restore` of an already-watched peer) went on
        // answering from pre-restore gaps — 2.079 here, against the 0.0 of
        // a fresh detector restored from the same seed.
        let config = PhiConfig {
            model: PhiModel::Empirical {
                bins: 32,
                max_intervals: 8.0,
            },
            ..PhiConfig::default()
        };
        let seed = DetectorSeed {
            last_heartbeat: Some(ts(100.0)),
            samples: 30,
            mean: 5.0,
            population_variance: 1.0,
            heartbeats_seen: 0,
        };
        let mut fresh = PhiAccrual::new(config).unwrap();
        let mut lived = PhiAccrual::new(config).unwrap();
        for k in 1..=30 {
            lived.record_heartbeat(ts(f64::from(k)));
        }
        fresh.restore_seed(&seed);
        lived.restore_seed(&seed);
        assert_eq!(fresh.save_seed(), lived.save_seed());
        for at in [100.5, 103.0, 110.0, 500.0] {
            let (a, b) = (fresh.phi(ts(at)), lived.phi(ts(at)));
            assert_eq!(a.to_bits(), b.to_bits(), "t = {at}: {a} vs {b}");
        }
    }

    #[test]
    fn naive_reference_matches_incremental_on_regular_cadence() {
        let fd = regular(50);
        for late in [0.1, 0.5, 1.0, 2.0, 10.0] {
            let at = ts(50.0 + late);
            let fast = fd.phi(at);
            let slow = fd.phi_naive(at);
            assert!(
                (fast - slow).abs() < 1e-9,
                "phi {fast} vs naive {slow} at +{late}s"
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn models() -> impl Strategy<Value = PhiModel> {
            prop::sample::select(vec![
                PhiModel::Normal,
                PhiModel::Exponential,
                PhiModel::Empirical {
                    bins: 32,
                    max_intervals: 8.0,
                },
            ])
        }

        proptest! {
            /// The O(1) incremental query agrees with the O(window) rescan
            /// to 1e-9 on arbitrary gap traces, across models, window
            /// sizes (forcing evictions), and query times.
            #[test]
            fn incremental_phi_matches_naive_rescan(
                gaps in prop::collection::vec(0.01f64..5.0, 1..120),
                window_size in 4usize..40,
                model in models(),
                late in 0.0f64..20.0,
            ) {
                let mut fd = PhiAccrual::new(PhiConfig {
                    window_size,
                    model,
                    ..PhiConfig::default()
                })
                .unwrap();
                let mut t = 1.0;
                for g in &gaps {
                    t += g;
                    fd.record_heartbeat(ts(t));
                }
                let at = ts(t + late);
                let fast = fd.phi(at);
                let slow = fd.phi_naive(at);
                prop_assert!(fast.is_finite() && slow.is_finite());
                prop_assert!(
                    (fast - slow).abs() < 1e-9,
                    "phi {} vs naive {}",
                    fast,
                    slow
                );
            }

            /// The empirical model's φ is *strictly* increasing in elapsed
            /// time on random gap traces, at query points spanning the
            /// histogram's in-range region and well past its range end —
            /// the saturation bug locked out for good.
            #[test]
            fn empirical_phi_is_strictly_increasing_in_elapsed(
                gaps in prop::collection::vec(0.05f64..5.0, 5..80),
            ) {
                let mut fd = PhiAccrual::new(PhiConfig {
                    model: PhiModel::Empirical {
                        bins: 32,
                        max_intervals: 8.0,
                    },
                    min_samples: 2,
                    ..PhiConfig::default()
                })
                .unwrap();
                let mut t = 1.0;
                for g in &gaps {
                    t += g;
                    fd.record_heartbeat(ts(t));
                }
                // hi = 8 s; sample 0.25 s steps out to 3× the range.
                let mut prev = fd.phi(ts(t + 0.25));
                for i in 2..96 {
                    let phi = fd.phi(ts(t + 0.25 * i as f64));
                    prop_assert!(
                        phi > prev,
                        "not strictly increasing at +{}s: {} !> {}",
                        0.25 * i as f64,
                        phi,
                        prev
                    );
                    prev = phi;
                }
            }

            /// φ never yields NaN or ∞ for any sample count, including the
            /// 0- and 1-sample bootstrap region, under any min_samples.
            #[test]
            fn phi_is_always_finite_in_small_sample_region(
                min_samples in 0usize..4,
                beats in 1usize..4,
                late in 0.0f64..50.0,
            ) {
                let mut fd = PhiAccrual::new(PhiConfig {
                    min_samples,
                    min_std_dev: Duration::ZERO,
                    ..PhiConfig::default()
                })
                .unwrap();
                for k in 1..=beats {
                    fd.record_heartbeat(ts(k as f64));
                }
                let phi = fd.phi(ts(beats as f64 + late));
                prop_assert!(phi.is_finite() && !phi.is_nan(), "φ = {}", phi);
                prop_assert!(phi >= 0.0);
            }
        }
    }
}
