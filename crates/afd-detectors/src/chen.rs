//! Chen's estimation-based detector as an accrual one (§5.2).
//!
//! Chen, Toueg and Aguilera's detector estimates the arrival time `EA` of
//! the next heartbeat from recent history and sets a timeout `EA + α` with
//! a constant safety margin `α` derived from QoS requirements. §5.2 of the
//! paper observes that it becomes an accrual detector by letting the
//! suspicion level rise linearly once the heartbeat is late:
//!
//! `sl(t) = max(0, t − EA)`  (in seconds),
//!
//! and that a constant threshold of `α` recovers the original binary
//! detector exactly.
//!
//! `EA` is estimated as the mean of the last `n` arrival instants shifted
//! by the mean inter-arrival gap — equivalently, the last arrival plus the
//! windowed mean gap, which adapts to both load-induced delay and the
//! actual heartbeat cadence.

use afd_core::accrual::{AccrualFailureDetector, DetectorSeed, LevelCurve};
use afd_core::error::ConfigError;
use afd_core::stats::SlidingWindow;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};

/// Configuration for [`ChenAccrual`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChenConfig {
    /// Number of recent inter-arrival gaps used to estimate `EA`
    /// (Chen et al. used n = 1000).
    pub window_size: usize,
    /// The assumed heartbeat interval before any gap has been observed.
    pub initial_interval: Duration,
}

impl Default for ChenConfig {
    fn default() -> Self {
        ChenConfig {
            window_size: 1000,
            initial_interval: Duration::from_secs(1),
        }
    }
}

impl ChenConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the window is empty or the initial
    /// interval is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window_size == 0 {
            return Err(ConfigError::new("chen window size must be positive"));
        }
        if self.initial_interval.is_zero() {
            return Err(ConfigError::new("chen initial interval must be positive"));
        }
        Ok(())
    }
}

/// Chen's adaptive detector in accrual form: `sl(t) = max(0, t − EA)`.
///
/// # Examples
///
/// ```
/// use afd_core::accrual::AccrualFailureDetector;
/// use afd_core::time::{Duration, Timestamp};
/// use afd_detectors::chen::{ChenAccrual, ChenConfig};
///
/// let mut fd = ChenAccrual::new(ChenConfig::default())?;
/// for s in 1..=5 {
///     fd.record_heartbeat(Timestamp::from_secs(s));
/// }
/// // Next heartbeat expected at t = 6; half a second late ⇒ sl = 0.5.
/// assert!((fd.suspicion_level(Timestamp::from_secs_f64(6.5)).value() - 0.5).abs() < 1e-9);
/// # Ok::<(), afd_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ChenAccrual {
    config: ChenConfig,
    gaps: SlidingWindow,
    last_heartbeat: Option<Timestamp>,
}

impl ChenAccrual {
    /// Creates the detector.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `config` is invalid.
    pub fn new(config: ChenConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(ChenAccrual {
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
        ChenAccrual::new(ChenConfig::default()).expect("default config is valid")
    }

    /// The current estimate of the next heartbeat's arrival time `EA`
    /// (`None` before the first heartbeat).
    pub fn expected_arrival(&self) -> Option<Timestamp> {
        let last = self.last_heartbeat?;
        let mean_gap = if self.gaps.is_empty() {
            self.config.initial_interval.as_secs_f64()
        } else {
            self.gaps.mean()
        };
        Some(last + Duration::from_secs_f64(mean_gap.max(0.0)))
    }

    /// Reference `EA` that recomputes the mean gap by rescanning every
    /// retained sample (O(window) per call), as an oracle for the
    /// incremental estimate in [`Self::expected_arrival`].
    #[cfg(test)]
    pub fn expected_arrival_naive(&self) -> Option<Timestamp> {
        let last = self.last_heartbeat?;
        let moments: afd_core::stats::RunningMoments = self.gaps.iter().collect();
        let mean_gap = if moments.is_empty() {
            self.config.initial_interval.as_secs_f64()
        } else {
            moments.mean()
        };
        Some(last + Duration::from_secs_f64(mean_gap.max(0.0)))
    }

    /// `sl(t) = max(0, t − EA)`: one second of level per second of lateness.
    fn curve(&self) -> LevelCurve {
        match self.expected_arrival() {
            // Before any heartbeat there is no estimate; Chen's detector
            // starts trusting (level 0) until evidence accumulates.
            None => LevelCurve::Zero,
            Some(ea) => LevelCurve::seconds_since(ea),
        }
    }

    /// Number of inter-arrival samples currently in the estimation window.
    pub fn samples(&self) -> usize {
        self.gaps.len()
    }

    /// The configuration this detector was built with.
    pub fn config(&self) -> ChenConfig {
        self.config
    }
}

impl AccrualFailureDetector for ChenAccrual {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        if let Some(last) = self.last_heartbeat {
            debug_assert!(arrival >= last, "heartbeat arrivals must be non-decreasing");
            let gap = arrival.saturating_duration_since(last).as_secs_f64();
            self.gaps.push(gap);
        }
        self.last_heartbeat = Some(self.last_heartbeat.map_or(arrival, |l| l.max(arrival)));
    }

    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        SuspicionLevel::clamped(self.curve().at(now))
    }

    fn level_curve(&self) -> Option<LevelCurve> {
        Some(self.curve())
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

    fn restore_seed(&mut self, seed: &DetectorSeed) {
        self.gaps
            .seed_from_moments(seed.samples, seed.mean, seed.population_variance);
        self.last_heartbeat = seed.last_heartbeat;
    }
}

impl afd_core::canonical::CanonicalState for ChenAccrual {
    fn canonical_state(&self, digest: &mut afd_core::canonical::StateDigest) {
        digest.push_usize(self.config.window_size);
        self.config.initial_interval.canonical_state(digest);
        self.gaps.canonical_state(digest);
        self.last_heartbeat.canonical_state(digest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs_f64(s)
    }

    fn fed_detector(arrivals: &[f64]) -> ChenAccrual {
        let mut fd = ChenAccrual::with_defaults();
        for &a in arrivals {
            fd.record_heartbeat(ts(a));
        }
        fd
    }

    #[test]
    fn expected_arrival_is_last_plus_mean_gap() {
        let fd = fed_detector(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(fd.expected_arrival(), Some(ts(5.0)));
        assert_eq!(fd.samples(), 3);
    }

    #[test]
    fn level_zero_until_expected_arrival() {
        let mut fd = fed_detector(&[1.0, 2.0, 3.0]);
        assert_eq!(fd.suspicion_level(ts(3.5)).value(), 0.0);
        assert_eq!(fd.suspicion_level(ts(4.0)).value(), 0.0);
        assert!((fd.suspicion_level(ts(4.75)).value() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn level_grows_linearly_when_late() {
        let mut fd = fed_detector(&[1.0, 2.0, 3.0]);
        let a = fd.suspicion_level(ts(5.0)).value();
        let b = fd.suspicion_level(ts(6.0)).value();
        assert!((b - a - 1.0).abs() < 1e-9, "linear growth expected");
    }

    #[test]
    fn adapts_to_slower_cadence() {
        // Gaps of 2 s: EA moves out accordingly.
        let fd = fed_detector(&[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(fd.expected_arrival(), Some(ts(10.0)));
    }

    #[test]
    fn cold_start_uses_initial_interval() {
        let mut fd = ChenAccrual::new(ChenConfig {
            window_size: 10,
            initial_interval: Duration::from_secs(3),
        })
        .unwrap();
        assert_eq!(fd.suspicion_level(ts(100.0)).value(), 0.0); // no heartbeat yet
        fd.record_heartbeat(ts(1.0));
        assert_eq!(fd.expected_arrival(), Some(ts(4.0)));
        assert!((fd.suspicion_level(ts(6.0)).value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn window_slides() {
        let mut fd = ChenAccrual::new(ChenConfig {
            window_size: 2,
            initial_interval: Duration::from_secs(1),
        })
        .unwrap();
        // Gaps: 1, 1, 5, 5 → window keeps the last two (5, 5).
        for &a in &[1.0, 2.0, 3.0, 8.0, 13.0] {
            fd.record_heartbeat(ts(a));
        }
        assert_eq!(fd.expected_arrival(), Some(ts(18.0)));
    }

    #[test]
    fn config_validation() {
        assert!(ChenConfig {
            window_size: 0,
            ..ChenConfig::default()
        }
        .validate()
        .is_err());
        assert!(ChenConfig {
            initial_interval: Duration::ZERO,
            ..ChenConfig::default()
        }
        .validate()
        .is_err());
        assert!(ChenConfig::default().validate().is_ok());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The incremental EA estimate agrees with an O(window)
            /// rescan to 1e-9, including across window evictions.
            #[test]
            fn incremental_ea_matches_naive_rescan(
                gaps in prop::collection::vec(0.0f64..5.0, 0..80),
                window_size in 2usize..20,
            ) {
                let mut fd = ChenAccrual::new(ChenConfig {
                    window_size,
                    ..ChenConfig::default()
                })
                .unwrap();
                let mut t = 1.0;
                fd.record_heartbeat(ts(t));
                for g in &gaps {
                    t += g;
                    fd.record_heartbeat(ts(t));
                }
                let fast = fd.expected_arrival().unwrap().as_nanos();
                let slow = fd.expected_arrival_naive().unwrap().as_nanos();
                // EA is quantized to whole nanoseconds by Timestamp, so a
                // sub-nanosecond moment difference can still land the two
                // estimates on adjacent ticks: allow exactly one tick.
                prop_assert!(
                    fast.abs_diff(slow) <= 1,
                    "EA {}ns vs naive {}ns",
                    fast,
                    slow
                );
            }
        }
    }

    #[test]
    fn binary_form_with_alpha_threshold_matches_original() {
        use afd_core::binary::{BinaryFailureDetector, Status};
        use afd_core::transform::{InterpretedBinary, ThresholdInterpreter};

        // α = 0.5 s safety margin.
        let alpha = SuspicionLevel::new(0.5).unwrap();
        let monitor = fed_detector(&[1.0, 2.0, 3.0]);
        let mut fd = InterpretedBinary::new(monitor, ThresholdInterpreter::new(alpha));
        // EA = 4.0; timeout fires only after EA + α.
        assert_eq!(fd.query(ts(4.2)), Status::Trusted);
        assert_eq!(fd.query(ts(4.6)), Status::Suspected);
    }
}
