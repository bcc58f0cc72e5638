//! The transition system: model states, the event alphabet, the enabled
//! relation, and the transition function with the paper's properties
//! checked on every edge.
//!
//! # Soundness under canonical-state merging
//!
//! The explorer prunes a state whose canonical digest was already seen.
//! That is only sound if every property is either (a) an invariant of the
//! transition `(state, event, state′)` alone, or (b) a predicate over
//! aggregates that *live in the canonical state* (transition counters,
//! last observed levels, quiet-since-crash flags). Nothing here consults
//! the path taken to reach a state, so merging two histories that agree
//! on the digest can never hide a violation: any violating continuation
//! of one is a violating continuation of the other.

use afd_core::binary::Status;
use afd_core::canonical::{CanonicalState, StateDigest};
use afd_core::process::ProcessId;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;
use afd_core::transform::{Interpreter, ThresholdInterpreter};
use afd_detectors::spec::ZooSpec;

use crate::bounds::ModelBounds;
use crate::mutants::{really_fresh, Alg1Sut, Alg2Sut, DetectorSut, HystSut, Mutant, SeqSut};

/// One event of the model's alphabet. Mirrors
/// [`afd_runtime::ScriptEvent`] one-to-one (minus `Recover`, which the
/// bounded model does not explore), so a model path converts directly
/// into a replayable script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelEvent {
    /// Advance virtual time one tick; due heartbeats are emitted and
    /// every process is queried.
    Tick,
    /// Deliver in-flight frame `i` to the monitor.
    Deliver(usize),
    /// Lose in-flight frame `i` (spends loss budget).
    Drop(usize),
    /// Duplicate in-flight frame `i` (spends duplication budget).
    Duplicate(usize),
    /// Permanently crash a sender (spends crash budget).
    Crash(ProcessId),
}

/// Which checked property a violation is against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// Property 1 (§3): after a crash, with no heartbeat left in flight,
    /// the suspicion level must not decrease.
    Accruement,
    /// Upper-bound discipline (§3, Property 2's mechanism): an accepted
    /// fresh heartbeat must not *increase* the suspicion level.
    UpperBoundReset,
    /// Algorithm 1 (§4.1): an S-transition must raise `SL_susp` to the
    /// triggering level, and S-transitions are bounded by `SL_susp/ε + 1`.
    Alg1Threshold,
    /// Algorithm 2 (§4.2): suspected verdicts accrue exactly ε, trusted
    /// verdicts reset to zero.
    Alg2Accrual,
    /// Algorithm 3 (§4.4): the hysteresis interpreter must match the
    /// paper's transition spec exactly (strict `>` high, `≤` low).
    HysteresisSpec,
    /// §4.4 ordering theorems: conservative interpreters' suspect sets are
    /// contained in aggressive ones'.
    QosOrdering,
    /// Algorithm 4 (§5.1): a non-fresh frame must leave the detector
    /// untouched.
    Alg4Freshness,
}

impl Property {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Property::Accruement => "accruement",
            Property::UpperBoundReset => "upper-bound-reset",
            Property::Alg1Threshold => "alg1-threshold",
            Property::Alg2Accrual => "alg2-accrual",
            Property::HysteresisSpec => "hysteresis-spec",
            Property::QosOrdering => "qos-ordering",
            Property::Alg4Freshness => "alg4-freshness",
        }
    }
}

/// A property violation found on a transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The property violated.
    pub property: Property,
    /// The process it concerns.
    pub process: ProcessId,
    /// Model tick at which it fired.
    pub tick: u32,
    /// Human-readable evidence.
    pub detail: String,
}

/// One in-flight heartbeat frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Originating sender.
    pub sender: ProcessId,
    /// Its sequence number (Algorithm 4's monotone counter).
    pub seq: u64,
    /// Tick at which it was emitted.
    pub emitted_tick: u32,
}

/// Per-process state: the sender's pacing, the monitor's freshness
/// watermark, the detector under test, and the full interpreter stack
/// whose cross-checks encode the paper's theorems.
#[derive(Debug, Clone)]
struct ProcState {
    id: ProcessId,
    crashed: bool,
    /// Next tick a heartbeat is due (SenderCore: first due at start).
    next_due: u32,
    /// Last emitted sequence number (SenderCore pre-increments: first
    /// frame carries 1).
    last_seq: u64,
    /// Monitor's highest accepted sequence (None before the first).
    highest_seq: Option<u64>,
    detector: DetectorSut,
    alg1: Alg1Sut,
    alg2: Alg2Sut,
    hyst: HystSut,
    thr_t1: ThresholdInterpreter<SuspicionLevel>,
    thr_t2: ThresholdInterpreter<SuspicionLevel>,
    hyst_t1: HystSut,
    hyst_t2: HystSut,
    /// Level at the most recent query (state-resident aggregate: the
    /// Accruement check is a transition invariant, not a path property).
    last_level: f64,
    /// Was the process crashed-and-quiet at the previous query?
    prev_quiet: bool,
}

impl CanonicalState for ProcState {
    fn canonical_state(&self, digest: &mut StateDigest) {
        digest.push_usize(self.id.index());
        digest.push_bool(self.crashed);
        digest.push_u64(u64::from(self.next_due));
        digest.push_u64(self.last_seq);
        digest.push_opt_u64(self.highest_seq);
        self.detector.canonical_state(digest);
        self.alg1.canonical_state(digest);
        self.alg2.canonical_state(digest);
        self.hyst.canonical_state(digest);
        self.thr_t1.canonical_state(digest);
        self.thr_t2.canonical_state(digest);
        self.hyst_t1.canonical_state(digest);
        self.hyst_t2.canonical_state(digest);
        digest.push_f64(self.last_level);
        digest.push_bool(self.prev_quiet);
    }
}

/// A full model state.
#[derive(Debug, Clone)]
pub struct ModelState {
    bounds: ModelBounds,
    spec: ZooSpec,
    mutant: Mutant,
    seq_filter: SeqSut,
    tick: u32,
    frames: Vec<Frame>,
    procs: Vec<ProcState>,
    losses_used: u32,
    dups_used: u32,
    crashes_used: u32,
    deferrals_used: u32,
}

impl ModelState {
    /// The initial state: every sender emits its t = 0 heartbeat into the
    /// in-flight pool (SenderCore's first frame is due at start), and
    /// every process is queried once to seed the interpreter stack.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` space heartbeats zero apart.
    pub fn initial(spec: ZooSpec, mutant: Mutant, bounds: ModelBounds) -> Self {
        let interval = bounds.tick.mul_f64(f64::from(bounds.heartbeat_every));
        let detector = spec
            .detector
            .model_sized(interval)
            .expect("model bounds space heartbeats a positive interval apart");
        let (t0, t1, t2, epsilon) = (spec.low, spec.threshold, spec.high, spec.epsilon);
        let procs = (1..=bounds.processes)
            .map(|i| ProcState {
                id: ProcessId::new(i),
                crashed: false,
                next_due: 0,
                last_seq: 0,
                highest_seq: None,
                detector: DetectorSut::new(detector.build(), mutant),
                alg1: Alg1Sut::new(epsilon, mutant),
                alg2: Alg2Sut::new(epsilon, mutant),
                hyst: HystSut::new(t1, t0, mutant),
                thr_t1: ThresholdInterpreter::new(SuspicionLevel::clamped(t1)),
                thr_t2: ThresholdInterpreter::new(SuspicionLevel::clamped(t2)),
                hyst_t1: HystSut::new(t1, t0, Mutant::None),
                hyst_t2: HystSut::new(t2, t0, Mutant::None),
                last_level: 0.0,
                prev_quiet: false,
            })
            .collect();
        let mut state = ModelState {
            bounds,
            spec,
            mutant,
            seq_filter: SeqSut::new(mutant),
            tick: 0,
            frames: Vec::new(),
            procs,
            losses_used: 0,
            dups_used: 0,
            crashes_used: 0,
            deferrals_used: 0,
        };
        state.emit_due();
        // Seed the interpreter stack at t = 0. The real system cannot
        // violate anything this early; a mutant conceivably could, but the
        // explorer only checks transitions, so fold seeding violations
        // into the first Tick instead of erroring from a constructor.
        for i in 0..state.procs.len() {
            let _ = state.query_checks(i);
        }
        state
    }

    /// The virtual time of the current tick.
    pub fn time(&self) -> Timestamp {
        Timestamp::from_nanos(u64::from(self.tick) * self.bounds.tick.as_nanos())
    }

    /// Current tick index.
    pub fn tick(&self) -> u32 {
        self.tick
    }

    /// The in-flight pool (frames awaiting delivery, loss, or aging).
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The exploration bounds this state was built with.
    pub fn bounds(&self) -> &ModelBounds {
        &self.bounds
    }

    /// The planted mutant (or [`Mutant::None`] for the real system).
    pub fn mutant(&self) -> Mutant {
        self.mutant
    }

    /// Suspicion levels of every process at the current time, in id
    /// order — the model-side counterpart of the replay harness's
    /// per-event samples. Queries mutate mutant bookkeeping, so this is
    /// only used by the replay-trace path, never by the explorer.
    pub fn levels(&mut self) -> Vec<f64> {
        let t = self.time();
        self.procs
            .iter_mut()
            .map(|p| p.detector.suspicion_level(t).value())
            .collect()
    }

    fn emit_due(&mut self) {
        let tick = self.tick;
        for p in &mut self.procs {
            if !p.crashed && p.next_due <= tick {
                while p.next_due <= tick {
                    p.next_due += self.bounds.heartbeat_every;
                }
                p.last_seq += 1;
                self.frames.push(Frame {
                    sender: p.id,
                    seq: p.last_seq,
                    emitted_tick: tick,
                });
            }
        }
    }

    fn due_emissions_after_tick(&self) -> usize {
        let next = self.tick + 1;
        self.procs
            .iter()
            .filter(|p| !p.crashed && p.next_due <= next)
            .count()
    }

    fn oldest_frame_age(&self) -> u32 {
        self.frames
            .iter()
            .map(|f| self.tick - f.emitted_tick)
            .max()
            .unwrap_or(0)
    }

    /// Is `event` enabled in this state?
    pub fn is_enabled(&self, event: ModelEvent) -> bool {
        match event {
            ModelEvent::Tick => {
                self.tick < self.bounds.max_ticks
                    && (self.frames.is_empty() || self.deferrals_used < self.bounds.max_deferrals)
                    && self.oldest_frame_age() < self.bounds.max_frame_age
                    && self.frames.len() + self.due_emissions_after_tick()
                        <= self.bounds.max_in_flight
            }
            ModelEvent::Deliver(i) => i < self.frames.len(),
            ModelEvent::Drop(i) => {
                i < self.frames.len() && self.losses_used < self.bounds.max_losses
            }
            ModelEvent::Duplicate(i) => {
                i < self.frames.len()
                    && self.dups_used < self.bounds.max_duplicates
                    && self.frames.len() < self.bounds.max_in_flight
            }
            ModelEvent::Crash(p) => {
                self.crashes_used < self.bounds.max_crashes
                    && self.procs.iter().any(|proc| proc.id == p && !proc.crashed)
            }
        }
    }

    /// Every enabled event, in a fixed deterministic order.
    pub fn enabled_events(&self) -> Vec<ModelEvent> {
        let mut events = Vec::new();
        for i in 0..self.frames.len() {
            events.push(ModelEvent::Deliver(i));
        }
        if self.is_enabled(ModelEvent::Tick) {
            events.push(ModelEvent::Tick);
        }
        if self.losses_used < self.bounds.max_losses {
            for i in 0..self.frames.len() {
                events.push(ModelEvent::Drop(i));
            }
        }
        if self.dups_used < self.bounds.max_duplicates
            && self.frames.len() < self.bounds.max_in_flight
        {
            for i in 0..self.frames.len() {
                events.push(ModelEvent::Duplicate(i));
            }
        }
        if self.crashes_used < self.bounds.max_crashes {
            for p in &self.procs {
                if !p.crashed {
                    events.push(ModelEvent::Crash(p.id));
                }
            }
        }
        events
    }

    /// Applies `event` (which must be enabled), checking every property
    /// the transition touches. Returns the violation if one fired.
    pub fn apply(&mut self, event: ModelEvent) -> Result<(), Violation> {
        debug_assert!(self.is_enabled(event), "apply of a disabled event");
        match event {
            ModelEvent::Tick => {
                if !self.frames.is_empty() {
                    self.deferrals_used += 1;
                }
                self.tick += 1;
                self.emit_due();
                for i in 0..self.procs.len() {
                    self.query_checks(i)?;
                }
                Ok(())
            }
            ModelEvent::Deliver(i) => {
                let frame = self.frames.remove(i);
                self.deliver_checks(frame)
            }
            ModelEvent::Drop(i) => {
                self.frames.remove(i);
                self.losses_used += 1;
                Ok(())
            }
            ModelEvent::Duplicate(i) => {
                let copy = self.frames[i];
                self.frames.push(copy);
                self.dups_used += 1;
                Ok(())
            }
            ModelEvent::Crash(p) => {
                self.crashes_used += 1;
                for proc in &mut self.procs {
                    if proc.id == p {
                        proc.crashed = true;
                    }
                }
                Ok(())
            }
        }
    }

    /// Delivery of one frame: the Algorithm 4 freshness check and the
    /// accepted-heartbeat level discipline.
    fn deliver_checks(&mut self, frame: Frame) -> Result<(), Violation> {
        let t = self.time();
        let tick = self.tick;
        let seq_filter = self.seq_filter;
        let p = self
            .procs
            .iter_mut()
            .find(|p| p.id == frame.sender)
            .expect("frame from unknown sender");

        let fresh = really_fresh(frame.seq, p.highest_seq);
        let accepts = seq_filter.accepts(frame.seq, p.highest_seq);
        let pre_digest = p.detector.core_digest();
        let pre_level = p.detector.suspicion_level(t).value();
        if accepts {
            p.detector.record_heartbeat(t);
            // Mirrors `Shard::accept`: the watermark is set to
            // the accepted frame's sequence unconditionally.
            p.highest_seq = Some(frame.seq);
        }
        let post_digest = p.detector.core_digest();

        if !fresh && post_digest != pre_digest {
            return Err(Violation {
                property: Property::Alg4Freshness,
                process: frame.sender,
                tick,
                detail: format!(
                    "non-fresh frame seq={} (highest {:?}) mutated the detector",
                    frame.seq, p.highest_seq
                ),
            });
        }
        if accepts && fresh {
            // Property 2's mechanism: a fresh heartbeat drives the level
            // decisively below every interpretation threshold. Detectors
            // with bootstrap priors (adaptive) legitimately report a tiny
            // positive level at elapsed 0, so an increase only counts when
            // it also clears the floor (half the lowest threshold T₀).
            let floor = self.spec.low * 0.5;
            let post_level = p.detector.suspicion_level(t).value();
            if post_level > pre_level + 1e-9 && post_level > floor {
                return Err(Violation {
                    property: Property::UpperBoundReset,
                    process: frame.sender,
                    tick,
                    detail: format!(
                        "accepted heartbeat left the level high: {pre_level} -> {post_level} (floor {floor})"
                    ),
                });
            }
        }
        Ok(())
    }

    /// The per-query property battery: Accruement, Algorithms 1–3, and
    /// the §4.4 orderings, all as transition invariants.
    fn query_checks(&mut self, index: usize) -> Result<(), Violation> {
        let t = self.time();
        let tick = self.tick;
        let quiet = {
            let p = &self.procs[index];
            p.crashed && !self.frames.iter().any(|f| f.sender == p.id)
        };
        let p = &mut self.procs[index];
        let level = p.detector.suspicion_level(t);
        let lv = level.value();

        // Property 1 (Accruement regime): crashed and quiet for two
        // consecutive queries means the level may not decrease.
        if quiet && p.prev_quiet && lv < p.last_level - 1e-12 {
            return Err(Violation {
                property: Property::Accruement,
                process: p.id,
                tick,
                detail: format!(
                    "level decreased after crash with nothing in flight: {} -> {lv}",
                    p.last_level
                ),
            });
        }
        p.prev_quiet = quiet;
        p.last_level = lv;

        // Algorithm 1: S-transitions must raise SL_susp to the level, and
        // their count is bounded by SL_susp/ε + 1 (Lemma 8's mechanism).
        let eps = p.alg1.epsilon();
        let pre_s = p.alg1.s_transitions();
        let status1 = p.alg1.observe(t, level);
        if p.alg1.s_transitions() > pre_s {
            let threshold = p
                .alg1
                .suspicion_threshold()
                .expect("threshold initialized by first observation");
            let expect = level.quantize(eps);
            if (threshold.value() - expect.value()).abs() > 1e-12 {
                return Err(Violation {
                    property: Property::Alg1Threshold,
                    process: p.id,
                    tick,
                    detail: format!(
                        "S-transition left SL_susp at {} instead of {}",
                        threshold.value(),
                        expect.value()
                    ),
                });
            }
        }
        if let Some(threshold) = p.alg1.suspicion_threshold() {
            let bound = threshold.value() / eps + 1.5;
            if p.alg1.s_transitions() as f64 > bound {
                return Err(Violation {
                    property: Property::Alg1Threshold,
                    process: p.id,
                    tick,
                    detail: format!(
                        "{} S-transitions exceeds SL_susp/ε + 1 = {bound}",
                        p.alg1.s_transitions()
                    ),
                });
            }
        }

        // Algorithm 2 on Algorithm 1's verdicts: ε per suspected query,
        // reset on trusted (the round-trip of Theorems 9 + 12).
        let prev2 = p.alg2.level();
        let lvl2 = p.alg2.observe(status1, t);
        let expect2 = if status1.is_suspected() {
            prev2 + eps
        } else {
            0.0
        };
        if (lvl2 - expect2).abs() > 1e-9 {
            return Err(Violation {
                property: Property::Alg2Accrual,
                process: p.id,
                tick,
                detail: format!("alg2 level {lvl2} after {status1:?} verdict, expected {expect2}"),
            });
        }

        // Algorithm 3: the implementation must match the paper's
        // transition spec exactly.
        let prev_status = p.hyst.status();
        let (high, low) = p.hyst.thresholds();
        let got = p.hyst.observe(t, level);
        let expected = match prev_status {
            Status::Trusted if lv > high => Status::Suspected,
            Status::Suspected if lv <= low => Status::Trusted,
            other => other,
        };
        if got != expected {
            return Err(Violation {
                property: Property::HysteresisSpec,
                process: p.id,
                tick,
                detail: format!(
                    "hysteresis({high}, {low}) reported {got:?} from {prev_status:?} at level {lv}, spec says {expected:?}"
                ),
            });
        }

        // §4.4 orderings: T₂ > T₁ means the conservative interpreter's
        // suspect set is contained in the aggressive one's; the plain
        // threshold's suspicions are contained in the hysteresis ones.
        let s1 = p.thr_t1.observe(t, level);
        let s2 = p.thr_t2.observe(t, level);
        let h1 = p.hyst_t1.observe(t, level);
        let h2 = p.hyst_t2.observe(t, level);
        let ordering_broken = (s2.is_suspected() && !s1.is_suspected())
            || (h2.is_suspected() && !h1.is_suspected())
            || (s1.is_suspected() && !h1.is_suspected());
        if ordering_broken {
            return Err(Violation {
                property: Property::QosOrdering,
                process: p.id,
                tick,
                detail: format!(
                    "suspect-set containment broke at level {lv}: thr {s1:?}/{s2:?}, hyst {h1:?}/{h2:?}"
                ),
            });
        }
        Ok(())
    }

    /// The canonical digest the explorer merges on.
    pub fn digest(&self) -> u128 {
        let mut d = StateDigest::new();
        d.push_u64(u64::from(self.tick));
        d.push_u64(u64::from(self.losses_used));
        d.push_u64(u64::from(self.dups_used));
        d.push_u64(u64::from(self.crashes_used));
        d.push_u64(u64::from(self.deferrals_used));
        d.push_usize(self.frames.len());
        for f in &self.frames {
            d.push_usize(f.sender.index());
            d.push_u64(f.seq);
            d.push_u64(u64::from(f.emitted_tick));
        }
        for p in &self.procs {
            p.canonical_state(&mut d);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::time::Duration;
    use afd_detectors::spec;

    fn state() -> ModelState {
        ModelState::initial(spec::simple(), Mutant::None, ModelBounds::mutant_hunt())
    }

    #[test]
    fn initial_state_has_the_first_heartbeat_in_flight() {
        let s = state();
        assert_eq!(s.frames().len(), 1);
        assert_eq!(s.frames()[0].seq, 1);
        assert_eq!(s.frames()[0].emitted_tick, 0);
    }

    #[test]
    fn deliver_then_ticks_accrue_on_the_real_system() {
        let mut s = state();
        s.apply(ModelEvent::Deliver(0)).unwrap();
        s.apply(ModelEvent::Tick).unwrap();
        s.apply(ModelEvent::Tick).unwrap();
        // Heartbeat due at tick 2 was emitted but not delivered.
        assert_eq!(s.frames().len(), 1);
        assert_eq!(s.tick(), 2);
    }

    #[test]
    fn independent_event_orders_converge_to_the_same_digest() {
        let bounds = ModelBounds {
            processes: 2,
            ..ModelBounds::mutant_hunt()
        };
        let mut a = ModelState::initial(spec::simple(), Mutant::None, bounds);
        let mut b = a.clone();
        // Two frames in flight (one per sender); delivery order must not
        // matter once both are delivered.
        a.apply(ModelEvent::Deliver(0)).unwrap();
        a.apply(ModelEvent::Deliver(0)).unwrap();
        b.apply(ModelEvent::Deliver(1)).unwrap();
        b.apply(ModelEvent::Deliver(0)).unwrap();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_distinguishes_delivered_from_dropped() {
        let mut a = state();
        let mut b = a.clone();
        a.apply(ModelEvent::Deliver(0)).unwrap();
        b.apply(ModelEvent::Drop(0)).unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn tick_is_gated_by_frame_age() {
        let mut s = state();
        // Age the initial frame to the cap by deferring twice.
        s.apply(ModelEvent::Tick).unwrap();
        s.apply(ModelEvent::Tick).unwrap();
        assert!(
            !s.is_enabled(ModelEvent::Tick),
            "over-age frame blocks tick"
        );
        assert!(s.is_enabled(ModelEvent::Deliver(0)));
    }

    #[test]
    fn time_is_tick_times_duration() {
        let mut s = state();
        s.apply(ModelEvent::Deliver(0)).unwrap();
        s.apply(ModelEvent::Tick).unwrap();
        assert_eq!(s.time(), Timestamp::from_secs(1));
        assert_eq!(s.bounds().tick, Duration::from_secs(1));
    }
}
