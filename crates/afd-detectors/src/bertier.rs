//! The Bertier–Marin–Sens adaptive detector (reference \[3\] of the paper)
//! in accrual form.
//!
//! Bertier et al.'s detector (DSN 2002) combines Chen's expected-arrival
//! estimation with a *dynamic* safety margin adjusted by Jacobson's
//! TCP-RTO rules: the margin tracks an exponentially weighted estimate of
//! the prediction error and its variability, so the timeout tightens on
//! quiet links and loosens under jitter — without a window or an assumed
//! distribution.
//!
//! In accrual form (the same recasting §5.2 applies to Chen):
//!
//! `sl(t) = max(0, t − (EA + α))`
//!
//! where `EA` is the expected next arrival and `α = β·delay + φ·var` is
//! the Jacobson margin. A constant threshold of 0 reproduces the original
//! binary detector; positive thresholds add slack on top of the adaptive
//! margin. It slots into the same experiments as the other detectors and
//! serves as the classical "adaptive baseline" the φ literature compares
//! against.

use afd_core::accrual::{AccrualFailureDetector, LevelCurve};
use afd_core::error::ConfigError;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};

/// Configuration for [`BertierAccrual`], following the constants of the
/// original paper (γ = 0.1, β = 1, φ = 4 — the TCP-RTO values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BertierConfig {
    /// EWMA gain for the error estimate (the paper's γ).
    pub gamma: f64,
    /// Weight of the smoothed delay in the margin (the paper's β).
    pub beta: f64,
    /// Weight of the error variability in the margin (the paper's φ).
    pub phi: f64,
    /// The assumed heartbeat interval before any data arrives.
    pub initial_interval: Duration,
}

impl Default for BertierConfig {
    fn default() -> Self {
        BertierConfig {
            gamma: 0.1,
            beta: 1.0,
            phi: 4.0,
            initial_interval: Duration::from_secs(1),
        }
    }
}

impl BertierConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if a gain/weight is not finite and
    /// positive, `gamma` exceeds 1, or the initial interval is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, v) in [
            ("gamma", self.gamma),
            ("beta", self.beta),
            ("phi", self.phi),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(ConfigError::new(format!(
                    "bertier {name} must be finite and positive, got {v}"
                )));
            }
        }
        if self.gamma > 1.0 {
            return Err(ConfigError::new(format!(
                "bertier gamma must be at most 1, got {}",
                self.gamma
            )));
        }
        if self.initial_interval.is_zero() {
            return Err(ConfigError::new(
                "bertier initial interval must be positive",
            ));
        }
        Ok(())
    }
}

/// The Bertier et al. detector in accrual form:
/// `sl(t) = max(0, t − (EA + α))` with a Jacobson-adapted margin α.
///
/// # Examples
///
/// ```
/// use afd_core::accrual::AccrualFailureDetector;
/// use afd_core::time::Timestamp;
/// use afd_detectors::bertier::{BertierAccrual, BertierConfig};
///
/// let mut fd = BertierAccrual::new(BertierConfig::default())?;
/// for s in 1..=30u64 {
///     fd.record_heartbeat(Timestamp::from_secs(s));
/// }
/// // On a perfectly regular link the margin shrinks toward zero, so one
/// // second past the expected arrival is already conclusive.
/// assert!(fd.suspicion_level(Timestamp::from_secs(32)).value() > 0.5);
/// # Ok::<(), afd_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BertierAccrual {
    config: BertierConfig,
    /// Smoothed inter-arrival estimate (EA offset from the last arrival).
    smoothed_interval: Option<f64>,
    /// Jacobson state: smoothed error, smoothed |error| deviation.
    delay: f64,
    var: f64,
    last_heartbeat: Option<Timestamp>,
}

impl BertierAccrual {
    /// Creates the detector.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `config` is invalid.
    pub fn new(config: BertierConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(BertierAccrual {
            config,
            smoothed_interval: None,
            delay: 0.0,
            var: 0.0,
            last_heartbeat: None,
        })
    }

    /// The detector with the original paper's constants.
    ///
    /// # Panics
    ///
    /// Never panics: the default configuration is valid.
    pub fn with_defaults() -> Self {
        BertierAccrual::new(BertierConfig::default()).expect("default config is valid")
    }

    /// The current expected arrival time of the next heartbeat (`None`
    /// before the first heartbeat).
    pub fn expected_arrival(&self) -> Option<Timestamp> {
        let last = self.last_heartbeat?;
        let interval = self
            .smoothed_interval
            .unwrap_or_else(|| self.config.initial_interval.as_secs_f64());
        Some(last + Duration::from_secs_f64(interval.max(0.0)))
    }

    /// The current dynamic safety margin α, in seconds.
    pub fn margin(&self) -> f64 {
        (self.config.beta * self.delay + self.config.phi * self.var).max(0.0)
    }

    /// `sl(t) = max(0, t − (EA + α))`: one second of level per second past
    /// the deadline; zero before the first heartbeat.
    fn curve(&self) -> LevelCurve {
        match self.expected_arrival() {
            None => LevelCurve::Zero,
            Some(ea) => LevelCurve::seconds_since(ea + Duration::from_secs_f64(self.margin())),
        }
    }
}

impl AccrualFailureDetector for BertierAccrual {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        if let (Some(last), Some(ea)) = (self.last_heartbeat, self.expected_arrival()) {
            debug_assert!(arrival >= last, "heartbeat arrivals must be non-decreasing");
            let gap = arrival.saturating_duration_since(last).as_secs_f64();
            // Prediction error of this arrival against the previous EA.
            let error = arrival.as_secs_f64() - ea.as_secs_f64();
            // Jacobson updates (the original detector's equations):
            //   delay ← delay + γ·error
            //   var   ← var + γ·(|error| − var)
            self.delay += self.config.gamma * error;
            self.delay = self.delay.max(0.0);
            self.var += self.config.gamma * (error.abs() - self.var);
            self.var = self.var.max(0.0);
            // Chen-style smoothed interval for the next EA.
            let smoothed = self.smoothed_interval.unwrap_or(gap);
            self.smoothed_interval = Some(smoothed + self.config.gamma * (gap - smoothed));
        }
        self.last_heartbeat = Some(self.last_heartbeat.map_or(arrival, |l| l.max(arrival)));
    }

    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        SuspicionLevel::clamped(self.curve().at(now))
    }

    fn level_curve(&self) -> Option<LevelCurve> {
        Some(self.curve())
    }
}

impl afd_core::canonical::CanonicalState for BertierAccrual {
    fn canonical_state(&self, digest: &mut afd_core::canonical::StateDigest) {
        digest.push_f64(self.config.gamma);
        digest.push_f64(self.config.beta);
        digest.push_f64(self.config.phi);
        self.config.initial_interval.canonical_state(digest);
        digest.push_opt_f64(self.smoothed_interval);
        digest.push_f64(self.delay);
        digest.push_f64(self.var);
        self.last_heartbeat.canonical_state(digest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs_f64(s)
    }

    fn regular(n: usize) -> BertierAccrual {
        let mut fd = BertierAccrual::with_defaults();
        for k in 1..=n {
            fd.record_heartbeat(ts(k as f64));
        }
        fd
    }

    #[test]
    fn config_validation() {
        let ok = BertierConfig::default();
        assert!(ok.validate().is_ok());
        assert!(BertierConfig { gamma: 0.0, ..ok }.validate().is_err());
        assert!(BertierConfig { gamma: 1.5, ..ok }.validate().is_err());
        assert!(BertierConfig { beta: -1.0, ..ok }.validate().is_err());
        assert!(BertierConfig {
            phi: f64::NAN,
            ..ok
        }
        .validate()
        .is_err());
        assert!(BertierConfig {
            initial_interval: Duration::ZERO,
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn zero_before_any_heartbeat() {
        let mut fd = BertierAccrual::with_defaults();
        assert_eq!(fd.suspicion_level(ts(100.0)).value(), 0.0);
        assert_eq!(fd.expected_arrival(), None);
    }

    #[test]
    fn margin_shrinks_on_a_regular_link() {
        let fd = regular(100);
        assert!(
            fd.margin() < 0.05,
            "regular arrivals should shrink the margin, got {}",
            fd.margin()
        );
        // EA tracks the cadence.
        let ea = fd.expected_arrival().unwrap().as_secs_f64();
        assert!((ea - 101.0).abs() < 0.05, "EA = {ea}");
    }

    #[test]
    fn margin_grows_under_jitter() {
        let mut fd = BertierAccrual::with_defaults();
        let mut t = 0.0;
        for k in 0..100 {
            t += if k % 2 == 0 { 0.6 } else { 1.4 };
            fd.record_heartbeat(ts(t));
        }
        let jittery_margin = fd.margin();
        let quiet_margin = regular(100).margin();
        assert!(
            jittery_margin > 4.0 * quiet_margin + 0.1,
            "jitter must widen the margin: {jittery_margin} vs {quiet_margin}"
        );
    }

    #[test]
    fn level_grows_linearly_past_the_deadline() {
        let mut fd = regular(50);
        let a = fd.suspicion_level(ts(55.0)).value();
        let b = fd.suspicion_level(ts(56.0)).value();
        assert!(a > 0.0);
        assert!((b - a - 1.0).abs() < 1e-9);
    }

    #[test]
    fn monotone_between_heartbeats() {
        let mut fd = regular(30);
        let mut prev = SuspicionLevel::ZERO;
        for i in 0..100 {
            let level = fd.suspicion_level(ts(30.0 + i as f64 * 0.25));
            assert!(level >= prev);
            prev = level;
        }
    }

    #[test]
    fn adapts_deadline_after_slowdown() {
        // Cadence changes from 1 s to 3 s: the deadline follows.
        let mut fd = regular(50);
        let mut t = 50.0;
        for _ in 0..100 {
            t += 3.0;
            fd.record_heartbeat(ts(t));
        }
        // 3.5 s after the last heartbeat is within one (new) interval +
        // margin: barely suspicious.
        let level = fd.suspicion_level(ts(t + 3.2)).value();
        assert!(level < 1.0, "deadline should have adapted, level = {level}");
    }
}
