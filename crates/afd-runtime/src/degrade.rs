//! Graceful degradation for adaptive detectors under sample starvation.
//!
//! Adaptive detectors (Chen, φ, κ) extrapolate from a window of recent
//! inter-arrival samples. When the network starves that window — a long
//! partition, a burst of loss, a crashed sender — the window's contents go
//! stale and the estimate is no longer trustworthy. This wrapper detects
//! the starvation and falls back to the one detector that needs no window
//! at all: the simple elapsed-time detector of §5.1 (Algorithm 4).
//!
//! The window starves at `t*`, when the oldest of the last `min_samples`
//! arrivals turns `horizon` old — never before the last arrival, so the
//! inner detector is not asked about an instant it has heard past; a ring
//! that never filled is starved from the last heartbeat (from
//! `Timestamp::ZERO` before any). The level is `inner(t)` up to `t*` and
//! `inner(t*) + (t − t*)` after: the fallback is *offset-continuous*, never
//! decreases during silence — Accruement (Property 1) survives the switch —
//! and, like `is_degraded` and `degrade_events`, is a function of the
//! arrivals and `t` alone, whoever queries and however often. The inner
//! detector must be pure in the query, as every shipping one is.
//!
//! # Checkpoints
//!
//! The wrapper's durable state is the inner detector's: `save_seed` and
//! `restore_seed` forward. A seed carries window moments, not arrival
//! stamps, so a restore re-arms the wrapper's own recency state from what
//! the seed vouches for — `max(samples + 1, heartbeats_seen)` arrivals,
//! all taken to have landed at `last_heartbeat`. The restored wrapper
//! therefore starves `horizon` after the last pre-crash heartbeat, up to
//! `min_samples − 1` intervals later than the uninterrupted one, which
//! knew the older stamps; until then it answers with the inner detector's
//! level rather than the fallback's.

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
    /// Starvation episodes an arrival has ended.
    ended_episodes: u64,
}

impl<D: AccrualFailureDetector> GracefulDegradation<D> {
    /// Wraps `inner` with the given starvation policy.
    pub fn new(inner: D, config: DegradeConfig) -> Self {
        GracefulDegradation {
            inner,
            config,
            recent: VecDeque::new(),
            last_heartbeat: None,
            ended_episodes: 0,
        }
    }

    /// Fewer than `min_samples` arrivals within `horizon` of `now`: the
    /// fallback answers.
    pub fn is_degraded(&self, now: Timestamp) -> bool {
        let oldest_is_stale = self
            .recent
            .front()
            .is_some_and(|&oldest| now.saturating_duration_since(oldest) > self.config.horizon);
        self.recent.len() < self.config.min_samples || oldest_is_stale
    }

    /// How many times, by `now`, a window that had filled starved.
    pub fn degrade_events(&self, now: Timestamp) -> u64 {
        self.ended_episodes + u64::from(self.went_stale(now))
    }

    /// Publishes degradation counters as of `now` into `registry` as
    /// `degrade.<name>.events` and `degrade.<name>.active`.
    pub fn export_metrics(&self, registry: &afd_obs::Registry, name: &str, now: Timestamp) {
        registry
            .counter(&format!("degrade.{name}.events"))
            .set(self.degrade_events(now));
        registry
            .gauge(&format!("degrade.{name}.active"))
            .set(if self.is_degraded(now) { 1.0 } else { 0.0 });
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Degraded with a full ring: a starvation episode is open.
    fn went_stale(&self, now: Timestamp) -> bool {
        self.recent.len() == self.config.min_samples && self.is_degraded(now)
    }

    /// `t*`, the instant the window starves (see the module docs).
    fn switch_instant(&self) -> Timestamp {
        let last = self.last_heartbeat.unwrap_or(Timestamp::ZERO);
        let full = self.recent.len() == self.config.min_samples;
        let oldest = self.recent.front().filter(|_| full);
        oldest.map_or(last, |&o| o.saturating_add(self.config.horizon).max(last))
    }
}

impl<D: AccrualFailureDetector> AccrualFailureDetector for GracefulDegradation<D> {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        self.inner.record_heartbeat(arrival);
        let stale = self.went_stale(arrival);
        self.last_heartbeat = Some(self.last_heartbeat.map_or(arrival, |l| l.max(arrival)));
        self.recent.push_back(arrival);
        if self.recent.len() > self.config.min_samples {
            self.recent.pop_front();
        }
        if stale && !self.went_stale(arrival) {
            self.ended_episodes += 1;
        }
    }

    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        if !self.is_degraded(now) {
            return self.inner.suspicion_level(now);
        }
        let switch = self.switch_instant();
        let offset = self.inner.suspicion_level(switch).value();
        SuspicionLevel::clamped(offset + now.saturating_duration_since(switch).as_secs_f64())
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
        wrapped(PhiAccrual::new(PhiConfig::default()).unwrap())
    }

    #[test]
    fn a_wrapped_detector_has_no_curve() {
        // The wrapper's level is piecewise — the inner curve up to `t*`, a
        // line after — so even around a detector that has a curve it must
        // not hand one out: a monitor evaluating φ's curve would never see
        // the switch.
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
        assert!(!d.is_degraded(ts(20.5)));
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
        assert!(d.is_degraded(ts(27.0)));
        assert_eq!(d.degrade_events(ts(27.0)), 1);
        assert!(l1.value() > 0.0);

        // Heartbeats resume; once 3 land inside the horizon, nominal again.
        for k in [28.0, 29.0, 30.0] {
            d.record_heartbeat(ts(k));
        }
        let l2 = d.suspicion_level(ts(30.5));
        assert!(!d.is_degraded(ts(30.5)));
        assert_eq!(d.degrade_events(ts(30.5)), 1);
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
        assert!(d.is_degraded(ts(109.5)));
    }

    #[test]
    fn switch_is_offset_continuous() {
        let mut d = wrapped_phi();
        for k in 1..=10 {
            d.record_heartbeat(ts(k as f64));
        }
        // Query while the window is still healthy ({8, 9, 10} in horizon).
        let before = d.suspicion_level(ts(12.0)).value();
        assert!(!d.is_degraded(ts(12.0)));
        // The window starves at 13 s: from there the level is φ at 13 s
        // plus the seconds since — not since the last heartbeat.
        let at_switch = d.suspicion_level(ts(13.0)).value();
        let after = d.suspicion_level(ts(16.1)).value();
        assert!(d.is_degraded(ts(16.1)));
        assert!(
            (after - (at_switch + 3.1)).abs() <= 1e-9 * after.max(1.0),
            "degraded output {after} is not φ(13 s) = {at_switch} + 3.1 s"
        );
        assert!(at_switch >= before && after >= at_switch);
    }

    #[test]
    fn the_switch_is_continuous_at_the_starvation_instant() {
        let mut d = wrapped_phi();
        for k in 1..=10 {
            d.record_heartbeat(ts(k as f64));
        }
        // Arrivals 8, 9, 10 and a 5 s horizon: `t*` is 13 s.
        let switch = ts(13.0);
        let at = d.suspicion_level(switch).value();
        assert!(!d.is_degraded(switch));
        let past = switch + Duration::from_nanos(1);
        let just_after = d.suspicion_level(past).value();
        assert!(d.is_degraded(past));
        assert!(
            (just_after - at).abs() <= 1e-6,
            "the level jumped at the switch: {at} → {just_after}"
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
        assert!(
            d.is_degraded(ts(5.0)),
            "empty window is starved by definition"
        );
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
            let now = Timestamp::from_millis(21_400);
            assert!(!twin.detector_mut(p).unwrap().is_degraded(now));
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
        let before = restored.suspicion_level(ts(24.9)).value();
        assert!(live.is_degraded(ts(23.5)) && !restored.is_degraded(ts(24.9)));
        let after = restored.suspicion_level(ts(25.1)).value();
        assert!(restored.is_degraded(ts(25.1)));
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
                prop_assert_eq!(ring.is_degraded(now), history.len() < min_samples);
                prop_assert!(ring.recent.len() <= min_samples);
            }
        }
    }

    /// The same wrapper as `wrapped_phi`, around any inner detector.
    fn wrapped<D: AccrualFailureDetector>(inner: D) -> GracefulDegradation<D> {
        GracefulDegradation::new(
            inner,
            DegradeConfig {
                min_samples: 3,
                horizon: Duration::from_secs(5),
            },
        )
    }

    /// Feeds `steps` — a gap in milliseconds, then a heartbeat unless the
    /// second number is 7 or more — to two copies of `d`, asks one at every step and the other
    /// at every `coarse`-th, and checks that wherever both answered they
    /// answered the same, bit for bit, degradation counters included.
    fn same_levels_at_two_cadences<D: AccrualFailureDetector + Clone>(
        d: GracefulDegradation<D>,
        steps: &[(u64, u8)],
        coarse: usize,
    ) {
        let (mut fine, mut sparse) = (d.clone(), d);
        let mut now = Timestamp::ZERO;
        for (k, &(gap, silent)) in steps.iter().enumerate() {
            now += Duration::from_millis(gap);
            if silent < 7 {
                fine.record_heartbeat(now);
                sparse.record_heartbeat(now);
            }
            let level = fine.suspicion_level(now);
            if k % coarse == 0 {
                let other = sparse.suspicion_level(now);
                prop_assert_eq!(
                    level.value().to_bits(),
                    other.value().to_bits(),
                    "at {}",
                    now
                );
                prop_assert_eq!(fine.degrade_events(now), sparse.degrade_events(now));
                prop_assert_eq!(fine.is_degraded(now), sparse.is_degraded(now));
            }
        }
    }

    proptest! {
        /// Arrivals at a jittered cadence with silences below, at and past
        /// the 5 s horizon: a wrapper queried at every step and one queried
        /// at every few give the same level wherever both were asked, and
        /// count the same starvation episodes.
        #[test]
        fn a_level_does_not_depend_on_when_it_was_asked(
            steps in prop::collection::vec((0u64..9_000, 0u8..10), 0..150),
            coarse in 2usize..9,
        ) {
            let phi = wrapped(PhiAccrual::new(PhiConfig::default()).unwrap());
            same_levels_at_two_cadences(phi, &steps, coarse);
            let simple = wrapped(SimpleAccrual::new(Timestamp::ZERO));
            same_levels_at_two_cadences(simple, &steps, coarse);
        }
    }

    #[test]
    fn for_interval_sizes_horizon() {
        let c = DegradeConfig::for_interval(Duration::from_millis(100), 3);
        assert_eq!(c.horizon, Duration::from_millis(500));
        assert_eq!(c.min_samples, 3);
    }
}
