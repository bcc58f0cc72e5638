//! The sequence-numbered κ detector — the faithful κ-FD formulation.
//!
//! [`crate::kappa::KappaAccrual`] infers the pending-heartbeat set from
//! the estimated cadence, which is protocol-agnostic but cannot tell *one
//! specific* lost heartbeat from a late one once a newer heartbeat
//! arrives. With explicit sequence numbers (as in Algorithm 4's
//! heartbeats), κ can do better:
//!
//! - each heartbeat number `j` has its own expected arrival time and its
//!   own contribution; receiving `j` — even out of order, even *after*
//!   `j+1` — removes exactly its contribution;
//! - the inter-arrival estimate divides by the sequence gap, so lost
//!   heartbeats do not inflate the estimated sending interval;
//! - only the last `window` sequence numbers can contribute, bounding
//!   both memory and (crucially) the residual suspicion that permanently
//!   lost heartbeats leave behind — without the window, a steady loss
//!   rate would accumulate suspicion forever and violate Upper Bound.

use std::collections::BTreeSet;

use afd_core::accrual::AccrualFailureDetector;
use afd_core::error::ConfigError;
use afd_core::stats::SlidingWindow;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};

use crate::kappa::{ContributionFunction, KappaContext};

/// Configuration for [`SeqKappaAccrual`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeqKappaConfig {
    /// Sliding-window capacity for per-sequence inter-arrival samples.
    pub estimation_window: usize,
    /// Samples required before trusting the windowed estimates.
    pub min_samples: usize,
    /// Floor on the estimated standard deviation.
    pub min_std_dev: Duration,
    /// Assumed heartbeat interval before data arrives.
    pub initial_interval: Duration,
    /// How many recent sequence numbers may contribute suspicion. Also
    /// bounds the per-query work.
    pub tracking_window: u64,
}

impl Default for SeqKappaConfig {
    fn default() -> Self {
        SeqKappaConfig {
            estimation_window: 1000,
            min_samples: 5,
            min_std_dev: Duration::from_millis(10),
            initial_interval: Duration::from_secs(1),
            tracking_window: 100,
        }
    }
}

impl SeqKappaConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on a zero window, interval, floor, or
    /// tracking span.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.estimation_window == 0 {
            return Err(ConfigError::new(
                "seq-kappa estimation window must be positive",
            ));
        }
        if self.initial_interval.is_zero() {
            return Err(ConfigError::new(
                "seq-kappa initial interval must be positive",
            ));
        }
        if self.min_std_dev.is_zero() {
            return Err(ConfigError::new("seq-kappa min std dev must be positive"));
        }
        if self.tracking_window == 0 {
            return Err(ConfigError::new(
                "seq-kappa tracking window must be positive",
            ));
        }
        Ok(())
    }
}

/// κ with explicit heartbeat sequence numbers.
///
/// # Examples
///
/// ```
/// use afd_core::time::Timestamp;
/// use afd_detectors::kappa::StepContribution;
/// use afd_detectors::kappa_seq::{SeqKappaAccrual, SeqKappaConfig};
///
/// let mut fd = SeqKappaAccrual::new(SeqKappaConfig::default(), StepContribution::new(0.25))?;
/// for seq in 1..=10u64 {
///     fd.record_heartbeat_with_seq(seq, Timestamp::from_secs(seq));
/// }
/// // Heartbeat 11 lost; 12 arrives on time: exactly one slot missing.
/// fd.record_heartbeat_with_seq(12, Timestamp::from_secs(12));
/// let sl = fd.kappa(Timestamp::from_secs_f64(12.5));
/// assert_eq!(sl, 1.0);
/// // The straggler finally arrives: its contribution vanishes.
/// fd.record_heartbeat_with_seq(11, Timestamp::from_secs_f64(12.6));
/// assert_eq!(fd.kappa(Timestamp::from_secs_f64(12.7)), 0.0);
/// # Ok::<(), afd_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SeqKappaAccrual<C> {
    config: SeqKappaConfig,
    contribution: C,
    per_seq_gaps: SlidingWindow,
    /// Highest sequence number received and its arrival time.
    anchor: Option<(u64, Timestamp)>,
    /// Sequence numbers received within the tracking window.
    received: BTreeSet<u64>,
}

impl<C: ContributionFunction> SeqKappaAccrual<C> {
    /// Creates the detector.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `config` is invalid.
    pub fn new(config: SeqKappaConfig, contribution: C) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(SeqKappaAccrual {
            config,
            contribution,
            per_seq_gaps: SlidingWindow::new(config.estimation_window),
            anchor: None,
            received: BTreeSet::new(),
        })
    }

    /// Records the arrival of heartbeat number `seq` (1-based, as in
    /// Algorithm 4) at time `arrival`. Out-of-order and duplicate
    /// arrivals are handled: a late heartbeat clears its own pending
    /// contribution; duplicates are ignored.
    pub fn record_heartbeat_with_seq(&mut self, seq: u64, arrival: Timestamp) {
        match self.anchor {
            None => {
                self.anchor = Some((seq, arrival));
                self.received.insert(seq);
            }
            Some((anchor_seq, anchor_at)) => {
                if seq > anchor_seq {
                    // Fresh heartbeat: update the per-sequence estimate,
                    // dividing by the sequence gap so losses do not
                    // inflate the estimated sending interval.
                    let gap = arrival.saturating_duration_since(anchor_at).as_secs_f64();
                    let per_seq = gap / (seq - anchor_seq) as f64;
                    self.per_seq_gaps.push(per_seq);
                    self.anchor = Some((seq, arrival));
                }
                self.received.insert(seq);
                // Prune everything that fell out of the tracking window.
                let (newest, _) = self.anchor.expect("anchor set");
                let cutoff = newest.saturating_sub(self.config.tracking_window);
                self.received = self.received.split_off(&cutoff);
            }
        }
    }

    /// The estimation context in force now.
    pub fn context(&self) -> KappaContext {
        let floor = self.config.min_std_dev.as_secs_f64();
        if self.per_seq_gaps.len() < self.config.min_samples {
            KappaContext {
                interval_mean: self.config.initial_interval.as_secs_f64(),
                interval_std: (self.config.initial_interval.as_secs_f64() / 4.0).max(floor),
            }
        } else {
            KappaContext {
                interval_mean: self.per_seq_gaps.mean().max(f64::MIN_POSITIVE),
                interval_std: self.per_seq_gaps.population_std_dev().max(floor),
            }
        }
    }

    /// The highest received sequence number, if any.
    pub fn highest_seq(&self) -> Option<u64> {
        self.anchor.map(|(s, _)| s)
    }

    /// The κ value at `now`: the sum of contributions of every
    /// not-yet-received heartbeat in the tracking window, from the oldest
    /// tracked sequence number through those already due by `now`.
    pub fn kappa(&self, now: Timestamp) -> f64 {
        let Some((anchor_seq, anchor_at)) = self.anchor else {
            return 0.0;
        };
        let ctx = self.context();
        let interval = ctx.interval_mean;
        let elapsed = now.saturating_duration_since(anchor_at).as_secs_f64();

        // Sequence numbers expected by now: anchor + elapsed/interval.
        let due_past_anchor = (elapsed / interval).ceil() as u64;
        let newest_due = anchor_seq + due_past_anchor.min(self.config.tracking_window);
        let oldest_tracked = newest_due
            .saturating_sub(self.config.tracking_window)
            .max(1);

        let mut sum = 0.0;
        for j in oldest_tracked..=newest_due {
            if self.received.contains(&j) {
                continue;
            }
            // Expected arrival of heartbeat j, extrapolated from the anchor.
            let offset = (j as f64 - anchor_seq as f64) * interval;
            let expected = anchor_at.as_secs_f64() + offset;
            let overdue = now.as_secs_f64() - expected;
            sum += self
                .contribution
                .contribution(overdue, &ctx)
                .clamp(0.0, 1.0);
        }
        sum
    }
}

impl<C: ContributionFunction> AccrualFailureDetector for SeqKappaAccrual<C> {
    /// Without an explicit number, the heartbeat is assumed to be the next
    /// in sequence (`highest + 1`) — correct whenever the transport
    /// deduplicates and orders, and the common case elsewhere.
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        let next = self.highest_seq().map_or(1, |s| s + 1);
        self.record_heartbeat_with_seq(next, arrival);
    }

    fn prefetch(&self) {
        self.per_seq_gaps.prefetch();
    }

    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        SuspicionLevel::clamped(self.kappa(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kappa::{PhiContribution, StepContribution};

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs_f64(s)
    }

    fn detector() -> SeqKappaAccrual<StepContribution> {
        SeqKappaAccrual::new(SeqKappaConfig::default(), StepContribution::new(0.25)).unwrap()
    }

    #[test]
    fn config_validation() {
        let ok = SeqKappaConfig::default();
        assert!(ok.validate().is_ok());
        assert!(SeqKappaConfig {
            estimation_window: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(SeqKappaConfig {
            initial_interval: Duration::ZERO,
            ..ok
        }
        .validate()
        .is_err());
        assert!(SeqKappaConfig {
            min_std_dev: Duration::ZERO,
            ..ok
        }
        .validate()
        .is_err());
        assert!(SeqKappaConfig {
            tracking_window: 0,
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn healthy_stream_has_no_suspicion() {
        let mut fd = detector();
        for seq in 1..=50u64 {
            fd.record_heartbeat_with_seq(seq, ts(seq as f64));
        }
        assert_eq!(fd.kappa(ts(50.2)), 0.0);
        assert_eq!(fd.highest_seq(), Some(50));
    }

    #[test]
    fn specific_lost_heartbeat_keeps_contributing() {
        // This is the behaviour the anchor-based κ cannot express: 11 is
        // lost, 12 and 13 arrive — exactly one unit of suspicion remains.
        let mut fd = detector();
        for seq in 1..=10u64 {
            fd.record_heartbeat_with_seq(seq, ts(seq as f64));
        }
        fd.record_heartbeat_with_seq(12, ts(12.0));
        fd.record_heartbeat_with_seq(13, ts(13.0));
        let v = fd.kappa(ts(13.2));
        assert_eq!(v, 1.0, "the lost heartbeat 11 contributes exactly 1");
    }

    #[test]
    fn late_arrival_clears_its_slot() {
        let mut fd = detector();
        for seq in 1..=10u64 {
            fd.record_heartbeat_with_seq(seq, ts(seq as f64));
        }
        fd.record_heartbeat_with_seq(12, ts(12.0));
        assert!(fd.kappa(ts(12.5)) > 0.5);
        fd.record_heartbeat_with_seq(11, ts(12.6)); // straggler
        assert_eq!(fd.kappa(ts(12.7)), 0.0);
    }

    #[test]
    fn duplicates_are_idempotent() {
        let mut fd = detector();
        fd.record_heartbeat_with_seq(1, ts(1.0));
        fd.record_heartbeat_with_seq(1, ts(1.0));
        fd.record_heartbeat_with_seq(2, ts(2.0));
        fd.record_heartbeat_with_seq(2, ts(2.1));
        assert_eq!(fd.highest_seq(), Some(2));
        assert_eq!(fd.kappa(ts(2.2)), 0.0);
    }

    #[test]
    fn loss_does_not_inflate_interval_estimate() {
        let mut fd = detector();
        fd.record_heartbeat_with_seq(1, ts(1.0));
        // Every second heartbeat lost: arrivals 2 s apart but 2 seqs apart.
        for k in 1..=20u64 {
            fd.record_heartbeat_with_seq(1 + 2 * k, ts(1.0 + 2.0 * k as f64));
        }
        let ctx = fd.context();
        assert!(
            (ctx.interval_mean - 1.0).abs() < 1e-9,
            "per-seq estimate should be 1 s, got {}",
            ctx.interval_mean
        );
    }

    #[test]
    fn crash_accrues_one_per_interval() {
        let mut fd = detector();
        for seq in 1..=30u64 {
            fd.record_heartbeat_with_seq(seq, ts(seq as f64));
        }
        let a = fd.kappa(ts(35.5));
        let b = fd.kappa(ts(40.5));
        assert!((a - 5.0).abs() <= 1.0, "≈5 missed, got {a}");
        assert!((b - 10.0).abs() <= 1.0, "≈10 missed, got {b}");
    }

    #[test]
    fn tracking_window_bounds_suspicion() {
        let cfg = SeqKappaConfig {
            tracking_window: 10,
            ..SeqKappaConfig::default()
        };
        let mut fd = SeqKappaAccrual::new(cfg, StepContribution::new(0.0)).unwrap();
        for seq in 1..=5u64 {
            fd.record_heartbeat_with_seq(seq, ts(seq as f64));
        }
        // A year of silence: suspicion capped by the tracking window.
        let v = fd.kappa(ts(3.0e7));
        assert!(v <= 10.0 + 1e-9, "window must cap suspicion, got {v}");
    }

    #[test]
    fn steady_loss_rate_stays_bounded() {
        // 20% loss forever: without the tracking window the residue would
        // grow without bound; with it, suspicion stays small.
        let mut fd = SeqKappaAccrual::new(SeqKappaConfig::default(), PhiContribution).unwrap();
        let mut max_seen = 0.0f64;
        for seq in 1..=2_000u64 {
            if seq % 5 != 0 {
                fd.record_heartbeat_with_seq(seq, ts(seq as f64));
            }
            max_seen = max_seen.max(fd.kappa(ts(seq as f64 + 0.9)));
        }
        // ~20 of the last 100 tracked are missing and saturated, plus the
        // in-flight one; bounded well below the tracking window.
        assert!(
            max_seen < 40.0,
            "suspicion must stay bounded, got {max_seen}"
        );
        assert!(
            max_seen > 5.0,
            "persistent loss should register, got {max_seen}"
        );
    }

    #[test]
    fn trait_api_infers_sequence_numbers() {
        let mut fd = detector();
        for k in 1..=10u64 {
            fd.record_heartbeat(ts(k as f64));
        }
        assert_eq!(fd.highest_seq(), Some(10));
        assert_eq!(fd.suspicion_level(ts(10.5)).value(), 0.0);
        assert!(fd.suspicion_level(ts(15.5)).value() >= 4.0);
    }
}
