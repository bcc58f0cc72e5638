//! Seeded mutants: deliberately broken variants of the algorithms under
//! check, used to demonstrate the checker's *soundness* — a checker that
//! cannot flag a planted off-by-one is vacuous no matter how many states
//! it explores.
//!
//! Each mutant is a faithful copy of the real component with exactly one
//! defect, selected by [`Mutant`] when the model's initial state is built.
//! The exhaustive tests assert that the real system passes every property
//! at every reachable state AND that each mutant is caught with a
//! minimized, replayable counterexample.

use afd_core::accrual::AccrualFailureDetector;
use afd_core::binary::{BinaryFailureDetector, Status};
use afd_core::canonical::{CanonicalState, StateDigest};
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;
use afd_core::transform::{AccrualToBinary, BinaryToAccrual, HysteresisInterpreter, Interpreter};
use afd_detectors::spec::AnyDetector;
use afd_runtime::seq::{classify, SeqVerdict};

/// Which planted defect (if any) the model run carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The real system: every property must hold at every state.
    None,
    /// The detector's level saw-tooths between queries instead of accruing
    /// monotonically — violates Property 1 (Accruement) after a crash.
    NonMonotoneAccrual,
    /// The monitor's Algorithm 4 sequence check is dropped: duplicated and
    /// stale frames reach the detector.
    DroppedSeqCheck,
    /// Algorithm 3 hysteresis with off-by-one comparisons: S-transition at
    /// `level ≥ T` instead of `level > T`, T-transition at `level < T₀`
    /// instead of `level ≤ T₀`.
    HysteresisOffByOne,
    /// Algorithm 1 without the `SL_susp := sl` raise on S-transitions —
    /// wrong suspicions never cease, breaking Lemma 8.
    Alg1NoThresholdRaise,
    /// Algorithm 2 without the reset-to-zero on trusted verdicts —
    /// breaking Lemma 11's bound for correct processes.
    Alg2NoReset,
}

impl Mutant {
    /// Every seeded mutant (excluding [`Mutant::None`]).
    pub const ALL: [Mutant; 5] = [
        Mutant::NonMonotoneAccrual,
        Mutant::DroppedSeqCheck,
        Mutant::HysteresisOffByOne,
        Mutant::Alg1NoThresholdRaise,
        Mutant::Alg2NoReset,
    ];

    /// Short display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Mutant::None => "none",
            Mutant::NonMonotoneAccrual => "non-monotone-accrual",
            Mutant::DroppedSeqCheck => "dropped-seq-check",
            Mutant::HysteresisOffByOne => "hysteresis-off-by-one",
            Mutant::Alg1NoThresholdRaise => "alg1-no-threshold-raise",
            Mutant::Alg2NoReset => "alg2-no-reset",
        }
    }
}

/// The detector under test: the real detector, or the saw-tooth
/// mutant whose reported level alternates between the true value and a
/// quarter of it.
#[derive(Debug, Clone)]
pub enum DetectorSut {
    /// Unmodified detector.
    Real(AnyDetector),
    /// Saw-tooth level: every other query reports `level / 4`.
    Sawtooth {
        /// The real detector underneath.
        inner: AnyDetector,
        /// Queries answered so far (drives the parity).
        queries: u64,
    },
}

impl DetectorSut {
    /// Builds the real or mutated detector.
    pub fn new(detector: AnyDetector, mutant: Mutant) -> Self {
        match mutant {
            Mutant::NonMonotoneAccrual => DetectorSut::Sawtooth {
                inner: detector,
                queries: 0,
            },
            _ => DetectorSut::Real(detector),
        }
    }

    /// Feeds a heartbeat to the underlying detector.
    pub fn record_heartbeat(&mut self, arrival: Timestamp) {
        match self {
            DetectorSut::Real(d) => d.record_heartbeat(arrival),
            DetectorSut::Sawtooth { inner, .. } => inner.record_heartbeat(arrival),
        }
    }

    /// The suspicion level the system under test reports.
    pub fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        match self {
            DetectorSut::Real(d) => d.suspicion_level(now),
            DetectorSut::Sawtooth { inner, queries } => {
                let level = inner.suspicion_level(now);
                *queries += 1;
                if *queries % 2 == 1 {
                    level
                } else {
                    SuspicionLevel::clamped(level.value() * 0.25)
                }
            }
        }
    }

    /// Digest of the *underlying* detector only, excluding mutant
    /// bookkeeping — this is what the Algorithm 4 safety check compares
    /// before and after a non-fresh delivery.
    pub fn core_digest(&self) -> u128 {
        match self {
            DetectorSut::Real(d) => afd_core::canonical::digest_of(d),
            DetectorSut::Sawtooth { inner, .. } => afd_core::canonical::digest_of(inner),
        }
    }
}

impl CanonicalState for DetectorSut {
    fn canonical_state(&self, digest: &mut StateDigest) {
        match self {
            DetectorSut::Real(d) => {
                digest.push_u64(0);
                d.canonical_state(digest);
            }
            DetectorSut::Sawtooth { inner, queries } => {
                digest.push_u64(1);
                digest.push_u64(*queries);
                inner.canonical_state(digest);
            }
        }
    }
}

/// Algorithm 1 without the threshold raise: identical to
/// [`AccrualToBinary`] except that an S-transition leaves `SL_susp`
/// untouched.
#[derive(Debug, Clone)]
pub struct NoRaiseAlg1 {
    epsilon: f64,
    status: Status,
    sl_susp: Option<SuspicionLevel>,
    run_length: u64,
    l_trust: u64,
    sl_prev: Option<SuspicionLevel>,
    s_transitions: u64,
}

impl NoRaiseAlg1 {
    fn new(epsilon: f64) -> Self {
        NoRaiseAlg1 {
            epsilon,
            status: Status::Trusted,
            sl_susp: None,
            run_length: 1,
            l_trust: 1,
            sl_prev: None,
            s_transitions: 0,
        }
    }

    fn observe(&mut self, level: SuspicionLevel) -> Status {
        let sl = level.quantize(self.epsilon);
        let sl_prev = *self.sl_prev.get_or_insert(sl);
        let sl_susp = *self.sl_susp.get_or_insert(sl);
        if sl != sl_prev {
            self.run_length = 0;
        }
        self.run_length += 1;
        if sl > sl_susp && self.status == Status::Trusted {
            self.status = Status::Suspected;
            // BUG (the mutation): `self.sl_susp = Some(sl)` is missing.
            self.s_transitions += 1;
        }
        if (sl < sl_prev || self.run_length > self.l_trust) && self.status == Status::Suspected {
            self.status = Status::Trusted;
            self.l_trust += 1;
        }
        self.sl_prev = Some(sl);
        self.status
    }
}

/// Algorithm 1 under test: real or the no-raise mutant.
#[derive(Debug, Clone)]
pub enum Alg1Sut {
    /// The real [`AccrualToBinary`].
    Real(AccrualToBinary),
    /// The no-threshold-raise mutant.
    NoRaise(NoRaiseAlg1),
}

impl Alg1Sut {
    /// Builds the variant `mutant` selects, with resolution `epsilon`.
    pub fn new(epsilon: f64, mutant: Mutant) -> Self {
        match mutant {
            Mutant::Alg1NoThresholdRaise => Alg1Sut::NoRaise(NoRaiseAlg1::new(epsilon)),
            _ => Alg1Sut::Real(AccrualToBinary::new(epsilon)),
        }
    }

    /// One observation step.
    pub fn observe(&mut self, at: Timestamp, level: SuspicionLevel) -> Status {
        match self {
            Alg1Sut::Real(a) => a.observe(at, level),
            Alg1Sut::NoRaise(a) => a.observe(level),
        }
    }

    /// The resolution ε.
    pub fn epsilon(&self) -> f64 {
        match self {
            Alg1Sut::Real(a) => a.epsilon(),
            Alg1Sut::NoRaise(a) => a.epsilon,
        }
    }

    /// S-transitions so far.
    pub fn s_transitions(&self) -> u64 {
        match self {
            Alg1Sut::Real(a) => a.s_transitions(),
            Alg1Sut::NoRaise(a) => a.s_transitions,
        }
    }

    /// The dynamic threshold `SL_susp`.
    pub fn suspicion_threshold(&self) -> Option<SuspicionLevel> {
        match self {
            Alg1Sut::Real(a) => a.suspicion_threshold(),
            Alg1Sut::NoRaise(a) => a.sl_susp,
        }
    }
}

impl CanonicalState for Alg1Sut {
    fn canonical_state(&self, digest: &mut StateDigest) {
        match self {
            Alg1Sut::Real(a) => {
                digest.push_u64(0);
                a.canonical_state(digest);
            }
            Alg1Sut::NoRaise(a) => {
                digest.push_u64(1);
                digest.push_f64(a.epsilon);
                a.status.canonical_state(digest);
                a.sl_susp.canonical_state(digest);
                digest.push_u64(a.run_length);
                digest.push_u64(a.l_trust);
                a.sl_prev.canonical_state(digest);
                digest.push_u64(a.s_transitions);
            }
        }
    }
}

/// A binary "detector" whose verdict is set from outside: the adapter
/// that lets the model feed Algorithm 1's output into the real
/// [`BinaryToAccrual`] (Algorithm 2) one verdict at a time.
#[derive(Debug, Clone)]
pub struct StatusFeed {
    /// The verdict the next query returns.
    pub status: Status,
}

impl BinaryFailureDetector for StatusFeed {
    fn query(&mut self, _now: Timestamp) -> Status {
        self.status
    }
}

impl CanonicalState for StatusFeed {
    fn canonical_state(&self, digest: &mut StateDigest) {
        self.status.canonical_state(digest);
    }
}

/// Algorithm 2 under test: the real transformer, or the no-reset mutant
/// that keeps accruing after a trusted verdict.
#[derive(Debug, Clone)]
pub enum Alg2Sut {
    /// The real [`BinaryToAccrual`] over a [`StatusFeed`] oracle.
    Real(BinaryToAccrual<StatusFeed>),
    /// The no-reset mutant: `level` only ever grows.
    NoReset {
        /// ε accrued per suspected verdict.
        epsilon: f64,
        /// Current level.
        level: f64,
    },
}

impl Alg2Sut {
    /// Builds the variant `mutant` selects.
    pub fn new(epsilon: f64, mutant: Mutant) -> Self {
        match mutant {
            Mutant::Alg2NoReset => Alg2Sut::NoReset {
                epsilon,
                level: 0.0,
            },
            _ => Alg2Sut::Real(BinaryToAccrual::new(
                StatusFeed {
                    status: Status::Trusted,
                },
                epsilon,
            )),
        }
    }

    /// Feeds one binary verdict, returning the accrued level.
    pub fn observe(&mut self, status: Status, at: Timestamp) -> f64 {
        match self {
            Alg2Sut::Real(a) => {
                a.binary_mut().status = status;
                a.suspicion_level(at).value()
            }
            Alg2Sut::NoReset { epsilon, level } => {
                if status.is_suspected() {
                    *level += *epsilon;
                }
                // BUG (the mutation): the trusted branch's reset to zero
                // is missing.
                *level
            }
        }
    }

    /// The current accrued level.
    pub fn level(&self) -> f64 {
        match self {
            Alg2Sut::Real(a) => a.level().value(),
            Alg2Sut::NoReset { level, .. } => *level,
        }
    }
}

impl CanonicalState for Alg2Sut {
    fn canonical_state(&self, digest: &mut StateDigest) {
        match self {
            Alg2Sut::Real(a) => {
                digest.push_u64(0);
                a.canonical_state(digest);
            }
            Alg2Sut::NoReset { epsilon, level } => {
                digest.push_u64(1);
                digest.push_f64(*epsilon);
                digest.push_f64(*level);
            }
        }
    }
}

/// Algorithm 3 under test: the real hysteresis interpreter, or the
/// off-by-one mutant.
#[derive(Debug, Clone)]
pub enum HystSut {
    /// The real [`HysteresisInterpreter`] with constant thresholds.
    Real(HysteresisInterpreter<SuspicionLevel, SuspicionLevel>),
    /// Off-by-one comparisons: `≥ high` to suspect, `< low` to trust.
    OffByOne {
        /// S-transition threshold.
        high: f64,
        /// T-transition threshold.
        low: f64,
        /// Current status.
        status: Status,
    },
}

impl HystSut {
    /// Builds the variant `mutant` selects with thresholds `(high, low)`.
    pub fn new(high: f64, low: f64, mutant: Mutant) -> Self {
        match mutant {
            Mutant::HysteresisOffByOne => HystSut::OffByOne {
                high,
                low,
                status: Status::Trusted,
            },
            _ => HystSut::Real(HysteresisInterpreter::new(
                SuspicionLevel::clamped(high),
                SuspicionLevel::clamped(low),
            )),
        }
    }

    /// The current status.
    pub fn status(&self) -> Status {
        match self {
            HystSut::Real(h) => h.status(),
            HystSut::OffByOne { status, .. } => *status,
        }
    }

    /// The constant `(high, low)` threshold pair.
    pub fn thresholds(&self) -> (f64, f64) {
        match self {
            HystSut::Real(h) => (h.high_fn().value(), h.low_fn().value()),
            HystSut::OffByOne { high, low, .. } => (*high, *low),
        }
    }

    /// One observation step.
    pub fn observe(&mut self, at: Timestamp, level: SuspicionLevel) -> Status {
        match self {
            HystSut::Real(h) => h.observe(at, level),
            HystSut::OffByOne { high, low, status } => {
                // BUG (the mutation): Algorithm 3 requires strict `>` for
                // the S-transition and `≤` for the T-transition.
                match *status {
                    Status::Trusted if level.value() >= *high => *status = Status::Suspected,
                    Status::Suspected if level.value() < *low => *status = Status::Trusted,
                    _ => {}
                }
                *status
            }
        }
    }
}

impl CanonicalState for HystSut {
    fn canonical_state(&self, digest: &mut StateDigest) {
        match self {
            HystSut::Real(h) => {
                digest.push_u64(0);
                h.canonical_state(digest);
            }
            HystSut::OffByOne { high, low, status } => {
                digest.push_u64(1);
                digest.push_f64(*high);
                digest.push_f64(*low);
                status.canonical_state(digest);
            }
        }
    }
}

/// The Algorithm 4 freshness filter under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqSut {
    /// The real serial-number filter ([`afd_runtime::seq::classify`]).
    Real,
    /// The dropped-check mutant: every frame counts as fresh.
    AlwaysFresh,
}

impl SeqSut {
    /// Builds the variant `mutant` selects.
    pub fn new(mutant: Mutant) -> Self {
        match mutant {
            Mutant::DroppedSeqCheck => SeqSut::AlwaysFresh,
            _ => SeqSut::Real,
        }
    }

    /// Does the monitor under test accept a frame with `seq`, given the
    /// highest sequence accepted so far? Mirrors `Shard::accept`:
    /// the first frame from a sender is always accepted.
    pub fn accepts(self, seq: u64, highest: Option<u64>) -> bool {
        match self {
            SeqSut::AlwaysFresh => true,
            SeqSut::Real => really_fresh(seq, highest),
        }
    }
}

/// The ground-truth freshness verdict, independent of the system under
/// test — what the checker compares mutated behavior against.
pub fn really_fresh(seq: u64, highest: Option<u64>) -> bool {
    match highest {
        None => true,
        Some(h) => classify(seq, h) == SeqVerdict::Fresh,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sawtooth_alternates() {
        let simple = afd_detectors::spec::simple().detector.build();
        let mut sut = DetectorSut::new(simple, Mutant::NonMonotoneAccrual);
        let t = Timestamp::from_secs(4);
        let a = sut.suspicion_level(t).value();
        let b = sut.suspicion_level(t).value();
        assert_eq!(a, 4.0);
        assert_eq!(b, 1.0, "every other query reports a quarter");
    }

    #[test]
    fn always_fresh_accepts_duplicates() {
        assert!(!SeqSut::Real.accepts(5, Some(5)));
        assert!(SeqSut::AlwaysFresh.accepts(5, Some(5)));
        assert!(SeqSut::Real.accepts(6, Some(5)));
        assert!(really_fresh(1, None));
        assert!(!really_fresh(4, Some(5)));
    }

    #[test]
    fn off_by_one_differs_exactly_at_the_boundary() {
        let mut real = HystSut::new(2.0, 1.0, Mutant::None);
        let mut bug = HystSut::new(2.0, 1.0, Mutant::HysteresisOffByOne);
        let t = Timestamp::ZERO;
        let at_high = SuspicionLevel::clamped(2.0);
        assert_eq!(real.observe(t, at_high), Status::Trusted);
        assert_eq!(bug.observe(t, at_high), Status::Suspected);
    }

    #[test]
    fn no_reset_keeps_accruing() {
        let mut real = Alg2Sut::new(0.5, Mutant::None);
        let mut bug = Alg2Sut::new(0.5, Mutant::Alg2NoReset);
        let t = Timestamp::ZERO;
        for sut in [&mut real, &mut bug] {
            sut.observe(Status::Suspected, t);
            sut.observe(Status::Suspected, t);
        }
        assert_eq!(real.observe(Status::Trusted, t), 0.0);
        assert_eq!(bug.observe(Status::Trusted, t), 1.0);
    }

    #[test]
    fn no_raise_leaves_threshold_at_initial_level() {
        let mut real = Alg1Sut::new(1.0, Mutant::None);
        let mut bug = Alg1Sut::new(1.0, Mutant::Alg1NoThresholdRaise);
        let t = Timestamp::ZERO;
        for sut in [&mut real, &mut bug] {
            sut.observe(t, SuspicionLevel::ZERO);
            sut.observe(t, SuspicionLevel::clamped(3.0));
        }
        assert_eq!(
            real.suspicion_threshold(),
            Some(SuspicionLevel::clamped(3.0))
        );
        assert_eq!(bug.suspicion_threshold(), Some(SuspicionLevel::ZERO));
    }
}
