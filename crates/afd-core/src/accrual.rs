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

use core::f64::consts::LOG10_E;

use crate::dist::{ln_half_erfc, ln_half_erfc_block, LANES};
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

/// A suspicion level as a function of the query time (`sl_qp(t)`, §3
/// Definition 1), for the detectors whose level between two arrivals has
/// one of three closed forms. It is what
/// [`AccrualFailureDetector::level_curve`] hands a monitor, which can then
/// answer queries — [`at`](Self::at), or eight peers at a time with
/// [`at_block`](Self::at_block) — without going back to the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LevelCurve {
    /// Zero whenever asked: nothing has been heard yet, and the detector
    /// trusts until something has.
    Zero,
    /// `(now − since)·rate/per` in seconds, zero up to `since`: the level
    /// gains `rate` every `per` seconds. A product and a quotient rather
    /// than one slope, so that each detector's level keeps the bits its own
    /// formula gives — elapsed time and Chen's lateness gain 1 every
    /// second (both operations are then exact), the φ detector's
    /// exponential tail λ every `ln 10` seconds.
    Linear {
        /// Where the level leaves zero.
        since: Timestamp,
        /// Level gained every `per` seconds.
        rate: f64,
        /// Seconds it takes the level to gain `rate`.
        per: f64,
    },
    /// `−log₁₀(½·erfc(u))` at `u = ((now − last) − mean)·scale`: the φ of
    /// the silence since `last` under normal inter-arrival times.
    NormalTail {
        /// The last arrival.
        last: Timestamp,
        /// Mean inter-arrival time, in seconds.
        mean: f64,
        /// `1/(σ√2)`, per second.
        scale: f64,
    },
}

/// What [`SuspicionLevel::clamped`] stores, for a value that is not NaN.
#[inline]
fn clamp(level: f64) -> f64 {
    level.max(0.0) + 0.0
}

impl LevelCurve {
    /// Curves one [`at_block`](Self::at_block) evaluates.
    pub const BLOCK: usize = LANES;

    /// The seconds elapsed since `since`: the linear curve that gains 1
    /// every second.
    pub fn seconds_since(since: Timestamp) -> Self {
        LevelCurve::Linear {
            since,
            rate: 1.0,
            per: 1.0,
        }
    }

    /// Seconds from `since` to `now`, zero if `now` is not later.
    #[inline]
    fn elapsed(now: Timestamp, since: Timestamp) -> f64 {
        now.saturating_duration_since(since).as_secs_f64()
    }

    /// The linear level `elapsed` seconds past `since`.
    #[inline]
    fn linear_level(elapsed: f64, rate: f64, per: f64) -> f64 {
        clamp(elapsed * rate / per)
    }

    /// `erfc`'s argument for the normal tail `elapsed` seconds after the
    /// last arrival.
    #[inline]
    fn normal_u(elapsed: f64, mean: f64, scale: f64) -> f64 {
        (elapsed - mean) * scale
    }

    /// The φ value a normal tail's `ln(½·erfc(u))` stands for; zero at the
    /// arrival instant itself.
    #[inline]
    fn normal_level(elapsed: f64, ln_tail: f64) -> f64 {
        if elapsed <= 0.0 {
            0.0
        } else {
            clamp(-(ln_tail * LOG10_E))
        }
    }

    /// The level at `now`, as [`SuspicionLevel::value`] reports it: never
    /// negative, never `-0.0`.
    #[inline]
    pub fn at(&self, now: Timestamp) -> f64 {
        match *self {
            LevelCurve::Zero => 0.0,
            LevelCurve::Linear { since, rate, per } => {
                Self::linear_level(Self::elapsed(now, since), rate, per)
            }
            LevelCurve::NormalTail { last, mean, scale } => {
                let elapsed = Self::elapsed(now, last);
                let ln_tail = ln_half_erfc(Self::normal_u(elapsed, mean, scale));
                Self::normal_level(elapsed, ln_tail)
            }
        }
    }

    /// [`at`](Self::at) for eight curves, bit for bit, in *stages* — every
    /// lane's argument, then every lane's table piece, then every lane's
    /// polynomial, then the selection — each a short loop of its own. One
    /// curve's evaluation is a chain of some twenty-five dependent
    /// operations, long enough that a processor walking curves one by one
    /// keeps only two or three in flight; staged, the eight chains of a
    /// stage are independent and overlap. A lane past the polynomial's
    /// range (a peer well into suspicion) is handed back to the scalar
    /// path. Pad a short block with [`LevelCurve::Zero`].
    #[inline]
    pub fn at_block(curves: &[LevelCurve; Self::BLOCK], now: Timestamp) -> [f64; Self::BLOCK] {
        let mut elapsed = [0.0; Self::BLOCK];
        let mut u = [0.0; Self::BLOCK];
        for ((curve, elapsed), u) in curves.iter().zip(&mut elapsed).zip(&mut u) {
            match *curve {
                LevelCurve::Zero => {}
                LevelCurve::Linear { since, .. } => *elapsed = Self::elapsed(now, since),
                LevelCurve::NormalTail { last, mean, scale } => {
                    *elapsed = Self::elapsed(now, last);
                    *u = Self::normal_u(*elapsed, mean, scale);
                }
            }
        }
        let mut levels = ln_half_erfc_block(&u);
        for ((curve, elapsed), level) in curves.iter().zip(elapsed).zip(&mut levels) {
            *level = match *curve {
                LevelCurve::Zero => 0.0,
                LevelCurve::Linear { rate, per, .. } => Self::linear_level(elapsed, rate, per),
                LevelCurve::NormalTail { .. } => Self::normal_level(elapsed, *level),
            };
        }
        levels
    }
}

/// An accrual failure detector module for a single monitored process.
///
/// Implementations take all time inputs explicitly (never reading a clock),
/// which makes them usable with real clocks, simulated clocks, and the
/// drifting local clocks of the paper's partially synchronous model alike.
///
/// The `&mut self` receiver on [`suspicion_level`] follows the paper's query
/// model: a query is a *step* of the monitoring process and may update
/// internal state. Three kinds of implementation use that step: the
/// Algorithm 2 transformation ([`crate::transform`]), which raises its
/// level by ε on every query while the underlying binary detector
/// suspects; the Appendix A.5 adversary, which is query-driven by design;
/// and scripted test detectors such as [`ScriptedAccrualDetector`], which
/// replay one level per query. Every shipping detector — simple, Chen,
/// Bertier, the φ and κ families, the adaptive detector, and the
/// degradation wrapper around any of them — is pure: its level is a
/// function of the arrivals it recorded (and the seed it restored) and
/// `now`, whoever asks and however often.
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

    /// The suspicion level as a function of the query time, for a detector
    /// whose level has one of [`LevelCurve`]'s shapes until the next
    /// arrival; `None` (the default) for every other — one whose query is a
    /// step, or whose level has another shape.
    ///
    /// A monitor that holds the curve answers queries from it instead of
    /// calling [`suspicion_level`], so an implementation that returns
    /// `Some(curve)` guarantees:
    ///
    /// - **pure in the query**: [`suspicion_level`] changes no state, and
    ///   for every `now` it returns exactly `curve.at(now)` — bit for bit;
    ///   the simplest way to hold that is to *define* it so;
    /// - **a function of the same state as [`save_seed`]**: the curve (and
    ///   whether there is one) changes only where [`record_heartbeat`] or
    ///   [`restore_seed`] ran, never with the queries answered or the time
    ///   passed, so a monitor refreshes it where it refreshes the seed.
    ///
    /// [`record_heartbeat`]: AccrualFailureDetector::record_heartbeat
    /// [`restore_seed`]: AccrualFailureDetector::restore_seed
    /// [`save_seed`]: AccrualFailureDetector::save_seed
    /// [`suspicion_level`]: AccrualFailureDetector::suspicion_level
    fn level_curve(&self) -> Option<LevelCurve> {
        None
    }
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
    fn level_curve(&self) -> Option<LevelCurve> {
        (**self).level_curve()
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
    fn level_curve(&self) -> Option<LevelCurve> {
        (**self).level_curve()
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
        assert_eq!(d.level_curve(), None, "a scripted query is a step");
        let mut d = d;
        d.restore_seed(&DetectorSeed::default()); // no-op, must not panic
        assert_eq!(d.suspicion_level(Timestamp::ZERO).value(), 1.0);
    }

    #[test]
    fn a_curve_is_its_formula_and_a_block_is_eight_curves() {
        let last = Timestamp::from_secs(10);
        let linear = LevelCurve::Linear {
            since: last,
            rate: 3.0,
            per: 2.0,
        };
        // σ = 0.1 s around a 1 s mean: u = (elapsed − 1)/(0.1·√2).
        let normal = LevelCurve::NormalTail {
            last,
            mean: 1.0,
            scale: 1.0 / (0.1 * core::f64::consts::SQRT_2),
        };
        assert_eq!(LevelCurve::Zero.at(Timestamp::MAX), 0.0);
        assert_eq!(
            linear.at(Timestamp::from_secs(9)),
            0.0,
            "zero up to `since`"
        );
        assert_eq!(linear.at(Timestamp::from_secs(14)), 6.0);
        assert_eq!(
            LevelCurve::seconds_since(last).at(Timestamp::from_secs(14)),
            4.0
        );
        assert_eq!(normal.at(last), 0.0, "zero at the arrival instant");
        // At the mean half the mass is in the tail: φ = log₁₀ 2.
        let at_mean = normal.at(Timestamp::from_secs(11));
        assert!((at_mean - 2f64.log10()).abs() < 1e-12, "{at_mean}");
        assert_eq!(
            normal.at(Timestamp::from_secs_f64(10.1)),
            0.0,
            "nine σ early"
        );
        assert!(normal.at(Timestamp::from_secs(15)) > 300.0, "forty σ late");

        let mut block = [LevelCurve::Zero; LevelCurve::BLOCK];
        block[1] = normal;
        block[2] = linear;
        block[LevelCurve::BLOCK - 1] = normal;
        for millis in [
            9_000, 10_000, 10_100, 10_950, 11_000, 11_071, 11_500, 15_000,
        ] {
            let now = Timestamp::from_millis(millis);
            let levels = LevelCurve::at_block(&block, now);
            for (curve, level) in block.iter().zip(levels) {
                assert_eq!(
                    level.to_bits(),
                    curve.at(now).to_bits(),
                    "{curve:?} at {now}"
                );
            }
        }
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
            fn level_curve(&self) -> Option<LevelCurve> {
                Some(LevelCurve::Zero)
            }
        }

        let boxed: Box<dyn AccrualFailureDetector> = Box::new(Seeded(7));
        let seed = boxed.save_seed().expect("override must be reachable");
        assert_eq!(seed.heartbeats_seen, 7);
        assert_eq!(boxed.level_curve(), Some(LevelCurve::Zero));

        let mut fresh = Seeded(0);
        let by_ref: &mut dyn AccrualFailureDetector = &mut fresh;
        by_ref.restore_seed(&seed);
        assert_eq!(by_ref.save_seed().map(|s| s.heartbeats_seen), Some(7));
        assert_eq!(by_ref.level_curve(), Some(LevelCurve::Zero));
    }
}
