//! Graceful degradation for adaptive detectors under sample starvation.
//!
//! Adaptive detectors (Chen, φ, κ) extrapolate from a window of recent
//! inter-arrival samples. When the network starves that window — a long
//! partition, a burst of loss, a crashed sender — the window's contents go
//! stale and the estimate is no longer trustworthy. This wrapper detects
//! the starvation and falls back to the one detector that needs no window
//! at all: the simple elapsed-time detector of §5.1 (Algorithm 4).
//!
//! The fallback is *offset-continuous*: at the moment of the switch the
//! degraded output starts from the inner detector's current level and adds
//! elapsed time since the last heartbeat. The emitted level therefore never
//! decreases during continued silence, so Accruement (Property 1) is
//! preserved across the switch; and the moment heartbeats refill the
//! window, the wrapper hands back to the inner detector.
//!
//! # Checkpoints
//!
//! The wrapper's durable state is the inner detector's: `save_seed` and
//! `restore_seed` forward. A seed carries window moments, not arrival
//! stamps, so a restore re-arms the wrapper's own recency state from what
//! the seed vouches for — `max(samples + 1, heartbeats_seen)` arrivals,
//! all taken to have landed at `last_heartbeat` — in nominal mode. The
//! restored wrapper therefore starves `horizon` after the last pre-crash
//! heartbeat, up to `min_samples − 1` intervals later than the
//! uninterrupted one, which knew the older stamps; until then it answers
//! with the inner detector's level rather than the fallback's.

use std::collections::VecDeque;

use afd_core::accrual::{AccrualFailureDetector, DetectorSeed};
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};

/// When to consider the sampling window starved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeConfig {
    /// Minimum number of heartbeats inside `horizon` for the inner
    /// detector's estimate to be trusted.
    pub min_samples: usize,
    /// How far back a heartbeat still counts as "recent".
    pub horizon: Duration,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            min_samples: 3,
            horizon: Duration::from_secs(10),
        }
    }
}

impl DegradeConfig {
    /// A config sized for a known heartbeat cadence: the window counts as
    /// healthy while at least `min_samples` heartbeats arrived within
    /// `min_samples + 2` expected intervals.
    pub fn for_interval(interval: Duration, min_samples: usize) -> Self {
        DegradeConfig {
            min_samples,
            horizon: interval * (min_samples as u32 + 2),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Nominal,
    Degraded {
        /// Inner level at the moment of the switch — the floor of all
        /// degraded output.
        offset: f64,
        /// When the switch happened (reference point if no heartbeat was
        /// ever seen).
        since: Timestamp,
    },
}

/// An [`AccrualFailureDetector`] wrapper with a starved-window fallback.
#[derive(Debug, Clone)]
pub struct GracefulDegradation<D> {
    inner: D,
    config: DegradeConfig,
    /// The last `config.min_samples` arrivals, oldest first: the window
    /// is healthy iff the ring is full and its oldest stamp is within
    /// `horizon`, which is all "at least `min_samples` arrivals within
    /// `horizon`" needs of the arrival history.
    recent: VecDeque<Timestamp>,
    last_heartbeat: Option<Timestamp>,
    mode: Mode,
    degrade_events: u64,
}

impl<D: AccrualFailureDetector> GracefulDegradation<D> {
    /// Wraps `inner` with the given starvation policy.
    pub fn new(inner: D, config: DegradeConfig) -> Self {
        GracefulDegradation {
            inner,
            config,
            recent: VecDeque::new(),
            last_heartbeat: None,
            mode: Mode::Nominal,
            degrade_events: 0,
        }
    }

    /// `true` while the fallback is active.
    pub fn is_degraded(&self) -> bool {
        matches!(self.mode, Mode::Degraded { .. })
    }

    /// How many times the wrapper has entered degraded mode.
    pub fn degrade_events(&self) -> u64 {
        self.degrade_events
    }

    /// Publishes degradation counters into `registry` as
    /// `degrade.<name>.events` and `degrade.<name>.active`.
    pub fn export_metrics(&self, registry: &afd_obs::Registry, name: &str) {
        registry
            .counter(&format!("degrade.{name}.events"))
            .set(self.degrade_events);
        registry
            .gauge(&format!("degrade.{name}.active"))
            .set(if self.is_degraded() { 1.0 } else { 0.0 });
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Fewer than `min_samples` arrivals within `horizon` of `now`.
    fn starved(&self, now: Timestamp) -> bool {
        let oldest_is_stale = self
            .recent
            .front()
            .is_some_and(|&oldest| now.saturating_duration_since(oldest) > self.config.horizon);
        self.recent.len() < self.config.min_samples || oldest_is_stale
    }
}

impl<D: AccrualFailureDetector> AccrualFailureDetector for GracefulDegradation<D> {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        self.inner.record_heartbeat(arrival);
        self.last_heartbeat = Some(self.last_heartbeat.map_or(arrival, |l| l.max(arrival)));
        self.recent.push_back(arrival);
        if self.recent.len() > self.config.min_samples {
            self.recent.pop_front();
        }
    }

    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        let starved = self.starved(now);
        match self.mode {
            Mode::Nominal if starved => {
                // Capture the inner level as the continuity offset before
                // abandoning its estimate.
                let offset = self.inner.suspicion_level(now).value();
                self.mode = Mode::Degraded { offset, since: now };
                self.degrade_events += 1;
            }
            Mode::Degraded { .. } if !starved => {
                // Window refilled: the inner estimate is trustworthy again.
                self.mode = Mode::Nominal;
            }
            _ => {}
        }
        match self.mode {
            Mode::Nominal => self.inner.suspicion_level(now),
            Mode::Degraded { offset, since } => {
                // Simple elapsed-time accrual from the switch point. The
                // output is clamped below by `offset`, so it never dips
                // under what was already reported.
                let anchor = self.last_heartbeat.unwrap_or(since);
                let elapsed = now.saturating_duration_since(anchor).as_secs_f64();
                SuspicionLevel::clamped(offset + elapsed)
            }
        }
    }

    fn prefetch(&self) {
        self.inner.prefetch();
    }

    fn save_seed(&self) -> Option<DetectorSeed> {
        self.inner.save_seed()
    }

    /// Re-seeds the inner detector and re-arms the recency ring from the
    /// arrivals the seed vouches for (see the module docs).
    fn restore_seed(&mut self, seed: &DetectorSeed) {
        self.inner.restore_seed(seed);
        self.last_heartbeat = seed.last_heartbeat;
        self.mode = Mode::Nominal;
        self.recent.clear();
        if let Some(last) = seed.last_heartbeat {
            let vouched = seed.samples.saturating_add(1).max(seed.heartbeats_seen);
            let kept = vouched.min(self.config.min_samples as u64) as usize;
            self.recent.extend(std::iter::repeat_n(last, kept));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_detectors::phi::{PhiAccrual, PhiConfig};
    use afd_detectors::simple::SimpleAccrual;
    use proptest::prelude::*;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs_f64(s)
    }

    fn wrapped_phi() -> GracefulDegradation<PhiAccrual> {
        GracefulDegradation::new(
            PhiAccrual::new(PhiConfig::default()).unwrap(),
            DegradeConfig {
                min_samples: 3,
                horizon: Duration::from_secs(5),
            },
        )
    }

    #[test]
    fn a_wrapped_detector_has_no_curve() {
        // The wrapper's query is a step — it is where the mode switches —
        // so even around a detector that has a curve it must not hand one
        // out: a monitor evaluating φ's curve would never see the switch.
        let mut d = wrapped_phi();
        assert_eq!(d.level_curve(), None);
        for k in 1..=20 {
            d.record_heartbeat(ts(k as f64));
        }
        assert!(d.inner().level_curve().is_some());
        assert_eq!(d.level_curve(), None);
        let boxed: Box<dyn AccrualFailureDetector> = Box::new(d);
        assert_eq!(boxed.level_curve(), None);
    }

    #[test]
    fn nominal_while_window_is_healthy() {
        let mut d = wrapped_phi();
        for k in 1..=20 {
            d.record_heartbeat(ts(k as f64));
        }
        let level = d.suspicion_level(ts(20.5));
        assert!(!d.is_degraded());
        assert!(level.value() < 1.0);
    }

    #[test]
    fn starvation_triggers_fallback_and_recovery_exits_it() {
        let mut d = wrapped_phi();
        for k in 1..=20 {
            d.record_heartbeat(ts(k as f64));
        }
        // Silence for longer than the 5 s horizon: the window starves.
        let l1 = d.suspicion_level(ts(27.0));
        assert!(d.is_degraded());
        assert_eq!(d.degrade_events(), 1);
        assert!(l1.value() > 0.0);

        // Heartbeats resume; once 3 land inside the horizon, nominal again.
        for k in [28.0, 29.0, 30.0] {
            d.record_heartbeat(ts(k));
        }
        let l2 = d.suspicion_level(ts(30.5));
        assert!(!d.is_degraded());
        assert!(l2.value() < l1.value(), "recovered level should drop");
    }

    #[test]
    fn degraded_output_is_monotone_during_silence() {
        let mut d = wrapped_phi();
        for k in 1..=10 {
            d.record_heartbeat(ts(k as f64));
        }
        let mut prev = -1.0;
        for q in 0..200 {
            let t = 10.0 + q as f64 * 0.5;
            let level = d.suspicion_level(ts(t)).value();
            assert!(
                level >= prev,
                "level decreased during silence at t={t}: {prev} → {level}"
            );
            assert!(level.is_finite());
            prev = level;
        }
        assert!(d.is_degraded());
    }

    #[test]
    fn switch_is_offset_continuous() {
        let mut d = wrapped_phi();
        for k in 1..=10 {
            d.record_heartbeat(ts(k as f64));
        }
        // Query while the window is still healthy ({8, 9, 10} in horizon).
        let before = d.suspicion_level(ts(12.0)).value();
        assert!(!d.is_degraded());
        // First starved query: must not be below the last nominal answer.
        let after = d.suspicion_level(ts(16.1)).value();
        assert!(d.is_degraded());
        assert!(
            after >= before,
            "degraded output {after} fell below nominal {before}"
        );
    }

    #[test]
    fn never_heartbeated_process_still_accrues() {
        let mut d = GracefulDegradation::new(
            SimpleAccrual::new(Timestamp::ZERO),
            DegradeConfig::default(),
        );
        let a = d.suspicion_level(ts(1.0)).value();
        let b = d.suspicion_level(ts(5.0)).value();
        assert!(d.is_degraded(), "empty window is starved by definition");
        assert!(b > a);
    }

    /// A wrapper that kept the trait's `None` default would silently drop
    /// its peers' windows from every checkpoint.
    #[test]
    fn wrappers_save_the_inner_detectors_seed() {
        fn seed_of(detector: impl AccrualFailureDetector) -> Option<DetectorSeed> {
            detector.save_seed()
        }
        let mut wrapped = wrapped_phi();
        for k in 1..=20 {
            wrapped.record_heartbeat(ts(k as f64));
        }
        let mut phi = wrapped.inner().clone();
        let seed = phi.save_seed();
        assert!(seed.is_some());
        assert_eq!(seed_of(&mut phi), seed);
        assert_eq!(seed_of(Box::new(phi)), seed);
        assert_eq!(seed_of(wrapped), seed);
    }

    #[test]
    fn wrapped_detectors_survive_a_checkpoint_at_pre_crash_quality() {
        use crate::persist::{CheckpointConfig, Checkpointer, MemSink};
        use crate::transport::Transport;
        use crate::{ChannelTransport, Heartbeat, ShardConfig, ShardedMonitor, VirtualClock};
        use afd_core::process::ProcessId;

        let clock = VirtualClock::new();
        // The composition `ShardedMonitor::new` recommends.
        let monitor = |rx| {
            ShardedMonitor::new(rx, clock.clone(), ShardConfig::default(), |_| {
                GracefulDegradation::new(PhiAccrual::with_defaults(), DegradeConfig::default())
            })
        };
        let frame = |sender, seq| {
            let sent_at = Timestamp::from_secs(seq);
            Heartbeat {
                sender,
                seq,
                sent_at,
            }
            .encode()
        };
        let peers = [1, 2, 3].map(ProcessId::new);
        let (mut tx, rx) = ChannelTransport::pair();
        let mut live = monitor(rx);
        for p in peers {
            live.watch(p).unwrap();
        }
        for seq in 1..=20u64 {
            for p in peers {
                // Jittered cadence, so the windows hold real variance.
                let jitter = u64::from(p.as_u32()) * 37 + seq * 11 % 90;
                clock.set(Timestamp::from_millis(seq * 1000 + jitter));
                tx.send(&frame(p, seq)).unwrap();
                live.tick().unwrap();
            }
        }
        let mut ckpt = Checkpointer::new(MemSink::new(), CheckpointConfig::default());
        live.checkpoint(&mut ckpt).unwrap();

        let (mut tx, rx) = ChannelTransport::pair();
        let mut twin = monitor(rx);
        let import = twin.restore(&ckpt.restore(&clock).unwrap().peers);
        assert_eq!(import.seeded, 3, "every window travelled");
        clock.set(Timestamp::from_millis(21_400));
        for p in peers {
            let (was, is) = (live.level(p).unwrap(), twin.level(p).unwrap());
            assert!(
                (was.value() - is.value()).abs() <= 1e-9,
                "{p}: {was:?} vs {is:?}"
            );
            assert!(!twin.detector_mut(p).unwrap().is_degraded());
            // The restored watermarks still reject what was already seen.
            for seq in [20, 13, 21] {
                tx.send(&frame(p, seq)).unwrap();
            }
        }
        assert_eq!(twin.tick().unwrap().accepted, 3);
        let stats = twin.stats().totals;
        assert_eq!((stats.duplicate, stats.stale, stats.accepted), (3, 3, 3));
    }

    #[test]
    fn a_restored_wrapper_starves_one_horizon_after_the_last_heartbeat() {
        let mut live = wrapped_phi();
        for k in 1..=20 {
            live.record_heartbeat(ts(k as f64));
        }
        let mut restored = wrapped_phi();
        restored.restore_seed(&live.save_seed().unwrap());
        // Arrivals 18, 19, 20 and a 5 s horizon: the live wrapper starves
        // once 18 s ages out, the restored one — which takes all three to
        // have landed at 20 s — two intervals later.
        live.suspicion_level(ts(23.5));
        let before = restored.suspicion_level(ts(24.9)).value();
        assert!(live.is_degraded() && !restored.is_degraded());
        let after = restored.suspicion_level(ts(25.1)).value();
        assert!(restored.is_degraded());
        assert!(after >= before, "the switch stays offset-continuous");
    }

    proptest! {
        /// Over any schedule of arrivals and queries in time order —
        /// bursts at one instant, gaps below, at and beyond the horizon —
        /// the ring of the last `min_samples` stamps answers what the
        /// full arrival history, pruned on every call, used to answer.
        #[test]
        fn the_ring_answers_what_the_full_history_answered(
            min_samples in 0usize..6,
            steps in prop::collection::vec((0u64..8, any::<bool>()), 0..120),
        ) {
            let horizon = Duration::from_millis(10);
            let config = DegradeConfig { min_samples, horizon };
            let mut ring = GracefulDegradation::new(SimpleAccrual::new(Timestamp::ZERO), config);
            let mut history: VecDeque<Timestamp> = VecDeque::new();
            let mut now = Timestamp::ZERO;
            for (gap, arrival) in steps {
                now += Duration::from_millis(2 * gap);
                if arrival {
                    ring.record_heartbeat(now);
                    history.push_back(now);
                }
                while history.front().is_some_and(|&old| now - old > horizon) {
                    history.pop_front();
                }
                prop_assert_eq!(ring.starved(now), history.len() < min_samples);
                prop_assert!(ring.recent.len() <= min_samples);
            }
        }
    }

    #[test]
    fn for_interval_sizes_horizon() {
        let c = DegradeConfig::for_interval(Duration::from_millis(100), 3);
        assert_eq!(c.horizon, Duration::from_millis(500));
        assert_eq!(c.min_samples, 3);
    }
}
