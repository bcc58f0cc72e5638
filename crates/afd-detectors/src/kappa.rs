//! The κ accrual failure-detection framework (§5.4).
//!
//! Detectors that extrapolate from the *last* arrival (Chen, φ) conflate
//! two different phenomena: jitter in arrival times and message loss. A
//! burst of lost heartbeats makes the elapsed time huge and φ explodes,
//! even though each individual loss says little about a crash.
//!
//! κ instead assigns every heartbeat that should have arrived — but has
//! not — a *contribution* in `[0, 1]` that rises from 0 ("not yet
//! expected") to 1 ("considered lost") as time passes, and outputs the sum
//! of contributions. The consequences, as §5.4 describes:
//!
//! - **Stable network**: only the most recent pending heartbeat has a
//!   contribution meaningfully between 0 and 1, so the suspicion level
//!   tracks the contribution function — fine-grained, φ-like behaviour.
//! - **Lossy network or crash**: all older pending heartbeats saturate at
//!   1, so the level approaches a *count of missed heartbeats* — a
//!   coarse-grained measure robust to bursts, growing by 1 per interval.
//!
//! The transition between the regimes is gradual, governed entirely by the
//! choice of [`ContributionFunction`] — which is why the paper calls κ a
//! *framework* rather than a detector.
//!
//! Pending heartbeats are inferred from the estimated send cadence: after
//! an arrival at `t_last`, heartbeat `j` is expected at `t_last + j·Δ̂`
//! with `Δ̂` the windowed mean inter-arrival time. (The original κ-FD
//! tracked sequence numbers; the cadence-based inference produces the same
//! pending set in steady state without protocol coupling, and the
//! monitor's freshness filtering guarantees `t_last` never moves
//! backwards.)

use afd_core::accrual::AccrualFailureDetector;
use afd_core::canonical::{CanonicalState, StateDigest};
use afd_core::dist::{ArrivalDistribution, Normal};
use afd_core::error::ConfigError;
use afd_core::stats::SlidingWindow;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};

/// Estimation context handed to contribution functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KappaContext {
    /// Estimated mean inter-arrival time, seconds.
    pub interval_mean: f64,
    /// Estimated inter-arrival standard deviation, seconds (floored).
    pub interval_std: f64,
}

/// The contribution `c(H)` of one pending heartbeat, as a function of how
/// overdue it is.
///
/// Implementations must be non-decreasing in `overdue` with values in
/// `[0, 1]`; `overdue` is `now − expected_arrival` in seconds and may be
/// negative (the heartbeat is not yet due).
pub trait ContributionFunction {
    /// The contribution of a heartbeat that is `overdue` seconds past its
    /// expected arrival.
    fn contribution(&self, overdue: f64, ctx: &KappaContext) -> f64;
}

impl<C: ContributionFunction + ?Sized> ContributionFunction for Box<C> {
    fn contribution(&self, overdue: f64, ctx: &KappaContext) -> f64 {
        (**self).contribution(overdue, ctx)
    }
}

/// The step contribution: 0 before a per-heartbeat timeout, 1 after
/// (the "simpler contribution function" of §5.4). κ with this function
/// counts timed-out heartbeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepContribution {
    grace_intervals: f64,
}

impl StepContribution {
    /// A step that fires once a heartbeat is `grace_intervals` estimated
    /// intervals overdue.
    ///
    /// # Panics
    ///
    /// Panics if `grace_intervals` is negative or not finite.
    pub fn new(grace_intervals: f64) -> Self {
        assert!(
            grace_intervals.is_finite() && grace_intervals >= 0.0,
            "grace must be a non-negative number of intervals"
        );
        StepContribution { grace_intervals }
    }
}

impl ContributionFunction for StepContribution {
    fn contribution(&self, overdue: f64, ctx: &KappaContext) -> f64 {
        if overdue > self.grace_intervals * ctx.interval_mean {
            1.0
        } else {
            0.0
        }
    }
}

/// A linear ramp from 0 (just due) to 1 (`full_after_intervals` intervals
/// overdue).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearContribution {
    full_after_intervals: f64,
}

impl LinearContribution {
    /// A ramp reaching 1 after `full_after_intervals` estimated intervals.
    ///
    /// # Panics
    ///
    /// Panics if `full_after_intervals` is not finite and positive.
    pub fn new(full_after_intervals: f64) -> Self {
        assert!(
            full_after_intervals.is_finite() && full_after_intervals > 0.0,
            "ramp length must be positive"
        );
        LinearContribution {
            full_after_intervals,
        }
    }
}

impl ContributionFunction for LinearContribution {
    fn contribution(&self, overdue: f64, ctx: &KappaContext) -> f64 {
        let full = self.full_after_intervals * ctx.interval_mean;
        (overdue / full).clamp(0.0, 1.0)
    }
}

/// The φ-style contribution named by §5.4: the probability that the
/// heartbeat would have arrived by now, under the windowed normal model —
/// `c = 1 − P_later(overdue)` centred on the expected arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhiContribution;

impl ContributionFunction for PhiContribution {
    fn contribution(&self, overdue: f64, ctx: &KappaContext) -> f64 {
        let dist = Normal::new(0.0, ctx.interval_std.max(f64::MIN_POSITIVE))
            .expect("floored std is positive");
        1.0 - dist.sf(overdue)
    }
}

/// Configuration for [`KappaAccrual`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KappaConfig {
    /// Sliding-window capacity for inter-arrival samples.
    pub window_size: usize,
    /// Samples required before trusting the windowed estimates.
    pub min_samples: usize,
    /// Floor on the estimated standard deviation.
    pub min_std_dev: Duration,
    /// Assumed heartbeat interval before data arrives.
    pub initial_interval: Duration,
    /// Upper bound on the number of pending heartbeats summed per query —
    /// purely a computational guard; with any sensible threshold the level
    /// is conclusive long before this cap.
    pub max_pending: usize,
}

impl Default for KappaConfig {
    fn default() -> Self {
        KappaConfig {
            window_size: 1000,
            min_samples: 5,
            min_std_dev: Duration::from_millis(10),
            initial_interval: Duration::from_secs(1),
            max_pending: 10_000,
        }
    }
}

impl KappaConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on an empty window, zero interval, zero
    /// std-dev floor, or zero pending cap.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window_size == 0 {
            return Err(ConfigError::new("kappa window size must be positive"));
        }
        if self.initial_interval.is_zero() {
            return Err(ConfigError::new("kappa initial interval must be positive"));
        }
        if self.min_std_dev.is_zero() {
            return Err(ConfigError::new("kappa min std dev must be positive"));
        }
        if self.max_pending == 0 {
            return Err(ConfigError::new("kappa pending cap must be positive"));
        }
        Ok(())
    }
}

/// The κ accrual failure detector: the sum of contributions of all pending
/// heartbeats.
///
/// # Examples
///
/// ```
/// use afd_core::accrual::AccrualFailureDetector;
/// use afd_core::time::Timestamp;
/// use afd_detectors::kappa::{KappaAccrual, KappaConfig, PhiContribution};
///
/// let mut fd = KappaAccrual::new(KappaConfig::default(), PhiContribution)?;
/// for s in 1..=20 {
///     fd.record_heartbeat(Timestamp::from_secs(s));
/// }
/// // After ~4 intervals of silence, about 4 heartbeats are fully missed.
/// let sl = fd.suspicion_level(Timestamp::from_secs_f64(24.5));
/// assert!(sl.value() > 3.0 && sl.value() < 5.0);
/// # Ok::<(), afd_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KappaAccrual<C> {
    config: KappaConfig,
    contribution: C,
    gaps: SlidingWindow,
    last_heartbeat: Option<Timestamp>,
}

impl<C: ContributionFunction> KappaAccrual<C> {
    /// Creates the detector with the given contribution function.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `config` is invalid.
    pub fn new(config: KappaConfig, contribution: C) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(KappaAccrual {
            config,
            contribution,
            gaps: SlidingWindow::new(config.window_size),
            last_heartbeat: None,
        })
    }

    /// The estimation context in force now.
    pub fn context(&self) -> KappaContext {
        let floor = self.config.min_std_dev.as_secs_f64();
        if self.gaps.len() < self.config.min_samples {
            KappaContext {
                interval_mean: self.config.initial_interval.as_secs_f64(),
                interval_std: (self.config.initial_interval.as_secs_f64() / 4.0).max(floor),
            }
        } else {
            KappaContext {
                interval_mean: self.gaps.mean().max(f64::MIN_POSITIVE),
                interval_std: self.gaps.population_std_dev().max(floor),
            }
        }
    }

    /// The most recent heartbeat arrival, if any.
    pub fn last_heartbeat(&self) -> Option<Timestamp> {
        self.last_heartbeat
    }

    /// The κ value at `now` (equal to the suspicion level).
    pub fn kappa(&self, now: Timestamp) -> f64 {
        let Some(last) = self.last_heartbeat else {
            return 0.0;
        };
        let elapsed = now.saturating_duration_since(last).as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let ctx = self.context();
        let interval = ctx.interval_mean;
        // Heartbeats expected at last + j·Δ̂ for j = 1, 2, …; pending ones
        // are those with expected time ≤ now + one interval lookahead (the
        // next heartbeat starts contributing as it becomes due).
        let pending = ((elapsed / interval).ceil() as usize).min(self.config.max_pending);
        let mut sum = 0.0;
        for j in 1..=pending {
            let overdue = elapsed - j as f64 * interval;
            sum += self
                .contribution
                .contribution(overdue, &ctx)
                .clamp(0.0, 1.0);
        }
        sum
    }
}

impl<C: ContributionFunction> AccrualFailureDetector for KappaAccrual<C> {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        if let Some(last) = self.last_heartbeat {
            debug_assert!(arrival >= last, "heartbeat arrivals must be non-decreasing");
            let gap = arrival.saturating_duration_since(last).as_secs_f64();
            self.gaps.push(gap);
        }
        self.last_heartbeat = Some(self.last_heartbeat.map_or(arrival, |l| l.max(arrival)));
    }

    fn prefetch(&self) {
        self.gaps.prefetch();
    }

    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        SuspicionLevel::clamped(self.kappa(now))
    }
}

impl CanonicalState for PhiContribution {
    fn canonical_state(&self, _digest: &mut StateDigest) {}
}

impl CanonicalState for StepContribution {
    fn canonical_state(&self, digest: &mut StateDigest) {
        digest.push_f64(self.grace_intervals);
    }
}

impl<C: CanonicalState> CanonicalState for KappaAccrual<C> {
    fn canonical_state(&self, digest: &mut StateDigest) {
        digest.push_usize(self.config.window_size);
        digest.push_usize(self.config.min_samples);
        self.config.min_std_dev.canonical_state(digest);
        self.config.initial_interval.canonical_state(digest);
        digest.push_usize(self.config.max_pending);
        self.contribution.canonical_state(digest);
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

    fn regular<C: ContributionFunction>(c: C, n: usize) -> KappaAccrual<C> {
        let mut fd = KappaAccrual::new(KappaConfig::default(), c).unwrap();
        for k in 1..=n {
            fd.record_heartbeat(ts(k as f64));
        }
        fd
    }

    #[test]
    fn zero_before_any_heartbeat_and_right_after_one() {
        let mut fd = KappaAccrual::new(KappaConfig::default(), PhiContribution).unwrap();
        assert_eq!(fd.suspicion_level(ts(5.0)).value(), 0.0);
        fd.record_heartbeat(ts(6.0));
        assert_eq!(fd.suspicion_level(ts(6.0)).value(), 0.0);
    }

    #[test]
    fn counts_missed_heartbeats_when_silent() {
        let fd = regular(PhiContribution, 20);
        // k intervals of silence ≈ k missed heartbeats (the most recent one
        // contributes ~0.5, the older ones ~1).
        for k in [3.0, 5.0, 10.0] {
            let v = fd.kappa(ts(20.0 + k));
            assert!(
                (v - k).abs() < 1.0,
                "after {k} intervals expected κ ≈ {k}, got {v}"
            );
        }
    }

    #[test]
    fn growth_is_linear_not_explosive() {
        // This is κ's defining contrast with φ: doubling the silence
        // roughly doubles κ.
        let fd = regular(PhiContribution, 20);
        let a = fd.kappa(ts(25.0));
        let b = fd.kappa(ts(30.0));
        assert!(
            (b / a - 2.0).abs() < 0.3,
            "κ growth should be linear: {a} → {b}"
        );
    }

    #[test]
    fn step_contribution_counts_timed_out_heartbeats() {
        let fd = regular(StepContribution::new(0.5), 20);
        // At 3.2 intervals of silence with 0.5-interval grace, heartbeats
        // expected at +1, +2 are > 0.5 overdue; +3 is 0.2 overdue (< 0.5).
        let v = fd.kappa(ts(23.2));
        assert_eq!(v, 2.0);
    }

    #[test]
    fn linear_contribution_ramps() {
        let fd = regular(LinearContribution::new(2.0), 20);
        // One heartbeat exactly 1 interval overdue → ramp(1/2) = 0.5, the
        // next is just due (0), total 0.5.
        let v = fd.kappa(ts(22.0));
        assert!((v - 0.5).abs() < 0.05, "got {v}");
    }

    #[test]
    fn stable_network_tracks_contribution_function() {
        // With heartbeats arriving, at most one pending heartbeat has a
        // partial contribution, so κ stays below ~1.
        let mut fd = KappaAccrual::new(KappaConfig::default(), PhiContribution).unwrap();
        let mut max_between = 0.0f64;
        for k in 1..=200 {
            fd.record_heartbeat(ts(k as f64));
            let v = fd.kappa(ts(k as f64 + 0.9));
            max_between = max_between.max(v);
        }
        assert!(
            max_between < 1.5,
            "κ should stay low on a healthy link, got {max_between}"
        );
    }

    #[test]
    fn pending_cap_bounds_work() {
        let cfg = KappaConfig {
            max_pending: 10,
            ..KappaConfig::default()
        };
        let mut fd = KappaAccrual::new(cfg, StepContribution::new(0.0)).unwrap();
        for k in 1..=10 {
            fd.record_heartbeat(ts(k as f64));
        }
        let v = fd.kappa(ts(1_000_000.0));
        assert_eq!(v, 10.0, "capped at max_pending");
    }

    #[test]
    fn contribution_functions_are_monotone_in_overdue() {
        let ctx = KappaContext {
            interval_mean: 1.0,
            interval_std: 0.2,
        };
        let fns: Vec<Box<dyn ContributionFunction>> = vec![
            Box::new(StepContribution::new(0.5)),
            Box::new(LinearContribution::new(2.0)),
            Box::new(PhiContribution),
        ];
        for f in &fns {
            let mut prev = -1.0;
            for i in -20..40 {
                let c = f.contribution(i as f64 * 0.1, &ctx);
                assert!((0.0..=1.0).contains(&c));
                assert!(c >= prev - 1e-12, "contribution not monotone");
                prev = c;
            }
        }
    }

    #[test]
    fn config_validation() {
        let ok = KappaConfig::default();
        assert!(ok.validate().is_ok());
        assert!(KappaConfig {
            window_size: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(KappaConfig {
            initial_interval: Duration::ZERO,
            ..ok
        }
        .validate()
        .is_err());
        assert!(KappaConfig {
            min_std_dev: Duration::ZERO,
            ..ok
        }
        .validate()
        .is_err());
        assert!(KappaConfig {
            max_pending: 0,
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn context_bootstraps_then_estimates() {
        let mut fd = KappaAccrual::new(KappaConfig::default(), PhiContribution).unwrap();
        let ctx0 = fd.context();
        assert_eq!(ctx0.interval_mean, 1.0);
        for k in 1..=20 {
            fd.record_heartbeat(ts(2.0 * k as f64)); // 2-second cadence
        }
        let ctx = fd.context();
        assert!((ctx.interval_mean - 2.0).abs() < 1e-9);
        assert_eq!(fd.last_heartbeat(), Some(ts(40.0)));
    }
}
