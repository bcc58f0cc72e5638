//! The weak-accruement adversary of Appendix A.5.
//!
//! The paper proves that replacing Accruement (Property 1) with the weaker
//! "`sl → ∞` if the process is faulty" (Property 3) breaks the equivalence
//! with ◊P: an adversary that *watches the algorithm's output* can keep the
//! level constant whenever the algorithm suspects and raise it by ε
//! whenever the algorithm trusts. The resulting history satisfies Upper
//! Bound and Weak Accruement simultaneously for every possible verdict
//! sequence, so no algorithm can stabilize — experiment E9 demonstrates it
//! against Algorithm 1.
//!
//! [`WeakAccruementAdversary`] implements exactly that strategy. It is fed
//! the algorithm's previous verdict via [`observe_verdict`], closing the
//! feedback loop the proof requires.
//!
//! [`observe_verdict`]: WeakAccruementAdversary::observe_verdict

use afd_core::accrual::AccrualFailureDetector;
use afd_core::binary::Status;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;

/// The adversarial suspicion-level source of Appendix A.5.
#[derive(Debug, Clone)]
pub struct WeakAccruementAdversary {
    epsilon: f64,
    level: f64,
    last_verdict: Status,
}

impl WeakAccruementAdversary {
    /// Creates the adversary with resolution `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not finite and strictly positive.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "resolution ε must be finite and positive, got {epsilon}"
        );
        WeakAccruementAdversary {
            epsilon,
            level: 0.0,
            last_verdict: Status::Trusted,
        }
    }

    /// Tells the adversary what the algorithm decided after its last query.
    pub fn observe_verdict(&mut self, verdict: Status) {
        self.last_verdict = verdict;
    }

    /// The verdict the adversary will react to on the next query.
    pub fn pending_verdict(&self) -> Status {
        self.last_verdict
    }
}

impl AccrualFailureDetector for WeakAccruementAdversary {
    /// The adversary fabricates its level; heartbeats are irrelevant.
    fn record_heartbeat(&mut self, _arrival: Timestamp) {}

    fn suspicion_level(&mut self, _now: Timestamp) -> SuspicionLevel {
        match self.last_verdict {
            // Algorithm suspects → keep the level constant.
            Status::Suspected => {}
            // Algorithm trusts → raise by ε.
            // lint:allow(pure-query, Appendix A.5's adversary is query-driven: ε per trusting query)
            Status::Trusted => self.level += self.epsilon,
        }
        SuspicionLevel::clamped(self.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::transform::{AccrualToBinary, Interpreter};

    #[test]
    fn raises_while_trusted_freezes_while_suspected() {
        let mut adv = WeakAccruementAdversary::new(1.0);
        let t = Timestamp::ZERO;
        assert_eq!(adv.suspicion_level(t).value(), 1.0);
        assert_eq!(adv.suspicion_level(t).value(), 2.0);
        adv.observe_verdict(Status::Suspected);
        assert_eq!(adv.suspicion_level(t).value(), 2.0);
        assert_eq!(adv.suspicion_level(t).value(), 2.0);
        adv.observe_verdict(Status::Trusted);
        assert_eq!(adv.suspicion_level(t).value(), 3.0);
    }

    #[test]
    fn defeats_algorithm_1_transitions_never_cease() {
        // Run Algorithm 1 against the adversary for a long horizon and
        // count transitions in each half: they must keep occurring.
        let mut adv = WeakAccruementAdversary::new(1.0);
        let mut alg = AccrualToBinary::new(1.0);
        let t = Timestamp::ZERO;
        let horizon = 100_000;
        let mut transitions_late = 0u64;
        let mut prev = Status::Trusted;
        for k in 0..horizon {
            let sl = adv.suspicion_level(t);
            let status = alg.observe(t, sl);
            adv.observe_verdict(status);
            if status != prev && k > horizon / 2 {
                transitions_late += 1;
            }
            prev = status;
        }
        assert!(
            transitions_late > 0,
            "the adversary must prevent stabilization forever"
        );
    }

    #[test]
    fn adversary_history_is_bounded_while_suspected_forever() {
        // If an algorithm were to suspect forever, the level stays bounded —
        // i.e. the history is consistent with a CORRECT process, proving
        // the algorithm wrong for suspecting. This is case 1 of the proof.
        let mut adv = WeakAccruementAdversary::new(0.5);
        adv.observe_verdict(Status::Suspected);
        let t = Timestamp::ZERO;
        let levels: Vec<f64> = (0..1000).map(|_| adv.suspicion_level(t).value()).collect();
        assert!(levels.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn adversary_history_diverges_while_trusted_forever() {
        // If an algorithm trusts forever, the level goes to infinity — the
        // history is consistent with a FAULTY process. Case 2 of the proof.
        let mut adv = WeakAccruementAdversary::new(0.5);
        let t = Timestamp::ZERO;
        let mut last = 0.0;
        for _ in 0..1000 {
            last = adv.suspicion_level(t).value();
        }
        assert_eq!(last, 500.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_bad_epsilon() {
        let _ = WeakAccruementAdversary::new(f64::NAN);
    }
}
