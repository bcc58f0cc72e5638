//! Accrual failure detectors (§3 of the paper).
//!
//! An accrual failure detector outputs, per monitored process, a
//! [`SuspicionLevel`] instead of a binary verdict. The class **◊P_ac**
//! (Definition 2) requires, for every pair of distinct processes:
//!
//! - **Accruement** (Property 1): if the monitored process is faulty, the
//!   suspicion level is eventually monotonously non-decreasing and strictly
//!   increases at least once every `Q` queries, for some finite `Q`.
//! - **Upper Bound** (Property 2): if the monitored process is correct, the
//!   suspicion level is bounded (by some unknown `SL_max`).
//!
//! The two interfaces here mirror the paper's architecture (Figs. 1–2):
//! *monitoring* ([`AccrualFailureDetector::record_heartbeat`]) is the intake
//! of liveness evidence, and *interpretation* is left to the caller — e.g.
//! the threshold interpreters in [`crate::transform`], or
//! application-specific logic such as ranking processes by suspicion level.

use crate::suspicion::SuspicionLevel;
use crate::time::Timestamp;

/// Portable durable state of one accrual detector: everything needed to
/// answer queries at pre-crash quality after a restart, and nothing more.
///
/// The seed deliberately carries *moments*, not raw samples: the adaptive
/// detectors' suspicion level is a function of the window's count, mean,
/// and variance (§5.2–5.3 of the paper), so persisting the three summary
/// statistics reproduces the level to within floating-point error at a
/// fixed 40-byte cost per peer, independent of window size.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DetectorSeed {
    /// Arrival time of the most recent heartbeat, if one was seen.
    pub last_heartbeat: Option<Timestamp>,
    /// Number of inter-arrival samples the window held.
    pub samples: u64,
    /// Mean of the windowed inter-arrival samples (seconds).
    pub mean: f64,
    /// Population variance of the windowed samples (seconds²).
    pub population_variance: f64,
    /// Auxiliary monotone counter for detectors that track one (e.g. the
    /// heartbeat count of the simple elapsed-time detector); zero otherwise.
    pub heartbeats_seen: u64,
}

/// An accrual failure detector module for a single monitored process.
///
/// Implementations take all time inputs explicitly (never reading a clock),
/// which makes them usable with real clocks, simulated clocks, and the
/// drifting local clocks of the paper's partially synchronous model alike.
///
/// The `&mut self` receiver on [`suspicion_level`] follows the paper's query
/// model: a query is a *step* of the monitoring process and may update
/// internal state (e.g. the Algorithm 2 transformation increments its level
/// on every query while the underlying binary detector suspects).
/// Implementations that are pure functions of `(state, now)` simply don't
/// mutate.
///
/// The trait is object-safe (`Box<dyn AccrualFailureDetector>` works), so a
/// monitoring service can manage heterogeneous detectors.
///
/// [`suspicion_level`]: AccrualFailureDetector::suspicion_level
pub trait AccrualFailureDetector {
    /// Records that liveness evidence (typically a heartbeat) from the
    /// monitored process arrived at time `arrival`.
    ///
    /// Arrival times across successive calls must be non-decreasing.
    /// Implementations that need duplicate/reorder protection (e.g.
    /// sequence-numbered heartbeats, Algorithm 4 lines 8–10) perform it
    /// at a higher layer or internally.
    fn record_heartbeat(&mut self, arrival: Timestamp);

    /// Answers one query at time `now`: the current suspicion level of the
    /// monitored process.
    ///
    /// `now` must be ≥ every previously recorded arrival and every previous
    /// query time.
    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel;

    /// Captures this detector's durable state, if it supports persistence.
    ///
    /// The default returns `None`: detectors without an override (scripted
    /// detectors, wrappers) are simply not checkpointed. Implementations
    /// must guarantee that feeding the result to [`restore_seed`] on a
    /// fresh instance with the same configuration reproduces
    /// [`suspicion_level`] to within floating-point error.
    ///
    /// The seed is a function of the arrivals recorded and the seed
    /// restored, never of the queries answered: between two calls to
    /// [`record_heartbeat`] or [`restore_seed`] it must not change. A
    /// monitor relies on that to republish a peer's durable state only
    /// after one of them ran.
    ///
    /// [`record_heartbeat`]: AccrualFailureDetector::record_heartbeat
    /// [`restore_seed`]: AccrualFailureDetector::restore_seed
    /// [`suspicion_level`]: AccrualFailureDetector::suspicion_level
    fn save_seed(&self) -> Option<DetectorSeed> {
        None
    }

    /// Re-seeds a (typically freshly constructed) detector from durable
    /// state previously captured by [`save_seed`].
    ///
    /// The default is a no-op. Implementations replace their learned
    /// inter-arrival statistics with the seed's moments so that the first
    /// post-restore query answers at pre-crash quality instead of
    /// re-bootstrapping from the small-sample prior.
    ///
    /// [`save_seed`]: AccrualFailureDetector::save_seed
    fn restore_seed(&mut self, seed: &DetectorSeed) {
        let _ = seed;
    }

    /// Loads, and discards, state the next [`record_heartbeat`] will read
    /// that lives outside the detector's own fields — in practice the
    /// cell of a heap-allocated sample window the arrival overwrites.
    ///
    /// A monitor that is about to record arrivals for many detectors
    /// calls this on each of them first, so their cache misses overlap
    /// instead of being paid one after another. It must have **no
    /// observable effect**: no level, seed or canonical state may differ
    /// for its having run. The default does nothing, which is always
    /// correct.
    ///
    /// [`record_heartbeat`]: AccrualFailureDetector::record_heartbeat
    fn prefetch(&self) {}
}

impl<D: AccrualFailureDetector + ?Sized> AccrualFailureDetector for &mut D {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        (**self).record_heartbeat(arrival);
    }
    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        (**self).suspicion_level(now)
    }
    // The defaulted methods must forward explicitly: otherwise a `&mut D`
    // (or trait object behind it) would silently answer with the `None`
    // default even when `D` itself persists.
    fn save_seed(&self) -> Option<DetectorSeed> {
        (**self).save_seed()
    }
    fn restore_seed(&mut self, seed: &DetectorSeed) {
        (**self).restore_seed(seed);
    }
    fn prefetch(&self) {
        (**self).prefetch();
    }
}

impl<D: AccrualFailureDetector + ?Sized> AccrualFailureDetector for Box<D> {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        (**self).record_heartbeat(arrival);
    }
    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        (**self).suspicion_level(now)
    }
    fn save_seed(&self) -> Option<DetectorSeed> {
        (**self).save_seed()
    }
    fn restore_seed(&mut self, seed: &DetectorSeed) {
        (**self).restore_seed(seed);
    }
    fn prefetch(&self) {
        (**self).prefetch();
    }
}

/// A scripted accrual detector for tests: replays a fixed sequence of
/// levels (one per query), then holds the last level forever.
///
/// Heartbeats are ignored.
#[derive(Debug, Clone)]
pub struct ScriptedAccrualDetector {
    levels: Vec<SuspicionLevel>,
    next: usize,
}

impl ScriptedAccrualDetector {
    /// Creates a detector that outputs `levels` in order, then repeats the
    /// final element.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn new(levels: Vec<SuspicionLevel>) -> Self {
        assert!(
            !levels.is_empty(),
            "scripted detector needs at least one level"
        );
        ScriptedAccrualDetector { levels, next: 0 }
    }

    /// Convenience constructor from raw `f64` values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains an invalid level.
    pub fn from_values(values: &[f64]) -> Self {
        let levels = values
            .iter()
            // lint:allow(no-panic-paths, documented Panics contract of this test-scripting constructor)
            .map(|&v| SuspicionLevel::new(v).expect("invalid scripted suspicion level"))
            .collect();
        ScriptedAccrualDetector::new(levels)
    }
}

impl AccrualFailureDetector for ScriptedAccrualDetector {
    fn record_heartbeat(&mut self, _arrival: Timestamp) {}

    fn suspicion_level(&mut self, _now: Timestamp) -> SuspicionLevel {
        let i = self.next.min(self.levels.len() - 1);
        self.next += 1;
        self.levels[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_replays_then_holds_last() {
        let mut d = ScriptedAccrualDetector::from_values(&[0.0, 1.0, 2.0]);
        let t = Timestamp::ZERO;
        d.record_heartbeat(t); // ignored
        assert_eq!(d.suspicion_level(t).value(), 0.0);
        assert_eq!(d.suspicion_level(t).value(), 1.0);
        assert_eq!(d.suspicion_level(t).value(), 2.0);
        assert_eq!(d.suspicion_level(t).value(), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn scripted_rejects_empty() {
        let _ = ScriptedAccrualDetector::new(Vec::new());
    }

    #[test]
    fn object_safety_and_forwarding() {
        let mut boxed: Box<dyn AccrualFailureDetector> =
            Box::new(ScriptedAccrualDetector::from_values(&[1.5]));
        boxed.record_heartbeat(Timestamp::ZERO);
        assert_eq!(boxed.suspicion_level(Timestamp::ZERO).value(), 1.5);

        let mut d = ScriptedAccrualDetector::from_values(&[2.5]);
        let r: &mut dyn AccrualFailureDetector = &mut d;
        assert_eq!(r.suspicion_level(Timestamp::ZERO).value(), 2.5);
    }

    #[test]
    fn seed_defaults_to_unsupported() {
        let d = ScriptedAccrualDetector::from_values(&[1.0]);
        assert_eq!(d.save_seed(), None);
        let mut d = d;
        d.restore_seed(&DetectorSeed::default()); // no-op, must not panic
        assert_eq!(d.suspicion_level(Timestamp::ZERO).value(), 1.0);
    }

    /// A detector overriding the seed methods must keep its override when
    /// used through `&mut D` or `Box<dyn …>` — the blanket impls forward.
    #[test]
    fn seed_methods_forward_through_indirection() {
        struct Seeded(u64);
        impl AccrualFailureDetector for Seeded {
            fn record_heartbeat(&mut self, _arrival: Timestamp) {}
            fn suspicion_level(&mut self, _now: Timestamp) -> SuspicionLevel {
                SuspicionLevel::ZERO
            }
            fn save_seed(&self) -> Option<DetectorSeed> {
                Some(DetectorSeed {
                    heartbeats_seen: self.0,
                    ..DetectorSeed::default()
                })
            }
            fn restore_seed(&mut self, seed: &DetectorSeed) {
                self.0 = seed.heartbeats_seen;
            }
        }

        let boxed: Box<dyn AccrualFailureDetector> = Box::new(Seeded(7));
        let seed = boxed.save_seed().expect("override must be reachable");
        assert_eq!(seed.heartbeats_seen, 7);

        let mut fresh = Seeded(0);
        let by_ref: &mut dyn AccrualFailureDetector = &mut fresh;
        by_ref.restore_seed(&seed);
        assert_eq!(by_ref.save_seed().map(|s| s.heartbeats_seen), Some(7));
    }
}
