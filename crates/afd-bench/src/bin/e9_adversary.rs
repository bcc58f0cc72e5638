//! **E9 — Appendix A.5: Weak Accruement is not enough.**
//!
//! The adversary keeps the level constant while the algorithm suspects and
//! raises it by ε while the algorithm trusts; the resulting history
//! satisfies Upper Bound and Weak Accruement for *both* possible worlds,
//! so no algorithm can stabilize. The table shows Algorithm 1's transition
//! count growing without end against the adversary across horizons —
//! while on a genuine Property-1 input (the same ε-staircase without
//! feedback) transitions stop early and stay stopped.
//!
//! The adversary's levels go through the property fold at each horizon:
//! they pass Weak Accruement (Prop. 3), and the longest plateau of their
//! Accruement witness grows with the horizon, so no `Q` bounds it (Prop. 1).

use afd_bench::experiment::Table;
use afd_core::accrual::{AccrualFailureDetector, ScriptedAccrualDetector};
use afd_core::binary::Status;
use afd_core::properties::{AccruementCheck, PropertyFold};
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;
use afd_core::transform::{AccrualToBinary, Interpreter};
use afd_detectors::adversary::WeakAccruementAdversary;

/// Algorithm 1's transitions (total, late) against the adversary, and the
/// adversary's levels folded.
fn against_adversary(horizon: usize) -> (u64, u64, PropertyFold) {
    let mut adv = WeakAccruementAdversary::new(1.0);
    let mut alg = AccrualToBinary::new(1.0);
    let mut levels = PropertyFold::new(AccruementCheck::STRICT.epsilon);
    let t = Timestamp::ZERO;
    let mut transitions = 0u64;
    let mut late_transitions = 0u64;
    let mut prev = Status::Trusted;
    for k in 0..horizon {
        let sl = adv.suspicion_level(t);
        levels.observe(sl);
        let status = alg.observe(t, sl);
        adv.observe_verdict(status);
        if status != prev {
            transitions += 1;
            if k >= horizon / 2 {
                late_transitions += 1;
            }
        }
        prev = status;
    }
    (transitions, late_transitions, levels)
}

fn against_honest_staircase(horizon: usize) -> (u64, u64) {
    // A genuine Accruement input: +ε every query, no feedback.
    let levels: Vec<f64> = (0..horizon.min(4_000)).map(|k| k as f64).collect();
    let mut det = ScriptedAccrualDetector::from_values(&levels);
    let mut alg = AccrualToBinary::new(1.0);
    let t = Timestamp::ZERO;
    let mut transitions = 0u64;
    let mut late_transitions = 0u64;
    let mut prev = Status::Trusted;
    for k in 0..horizon {
        let sl = det.suspicion_level(t);
        // Past the script, keep accruing manually.
        let sl = if k >= 4_000 {
            SuspicionLevel::new(k as f64).expect("valid")
        } else {
            sl
        };
        let status = alg.observe(t, sl);
        if status != prev {
            transitions += 1;
            if k >= horizon / 2 {
                late_transitions += 1;
            }
        }
        prev = status;
    }
    (transitions, late_transitions)
}

fn main() {
    let mut table = Table::new(
        "E9: Algorithm 1 vs the A.5 adversary (transitions; 'late' = 2nd half)",
        &[
            "horizon (queries)",
            "adversary: total",
            "adversary: late",
            "honest accrual: total",
            "honest accrual: late",
        ],
    );
    let mut last_adv = 0;
    let (mut last_level, mut last_plateau) = (SuspicionLevel::ZERO, 0);
    for horizon in [1_000usize, 10_000, 100_000, 1_000_000] {
        let (adv_total, adv_late, levels) = against_adversary(horizon);
        let weak = levels
            .weak_accruement(last_level)
            .expect("the adversary's levels satisfy Weak Accruement");
        let plateau = levels
            .accruement(&AccruementCheck::STRICT)
            .expect("a finite prefix has an Accruement witness")
            .max_constant_run;
        assert!(
            weak.final_level > last_level,
            "the level must outgrow every bound"
        );
        assert!(
            plateau > last_plateau,
            "the longest plateau must grow with the horizon: no Q bounds it"
        );
        (last_level, last_plateau) = (weak.final_level, plateau);
        let (hon_total, hon_late) = against_honest_staircase(horizon);
        assert!(adv_late > 0, "adversary must keep forcing transitions");
        assert!(
            adv_total > last_adv,
            "transitions must grow with the horizon"
        );
        assert_eq!(hon_late, 0, "honest input must stabilize");
        last_adv = adv_total;
        table.push_row(vec![
            horizon.to_string(),
            adv_total.to_string(),
            adv_late.to_string(),
            hon_total.to_string(),
            hon_late.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "reading: against the adversary the transition count scales with the\n\
         horizon — the algorithm never stabilizes, for any horizon, matching\n\
         the impossibility proof. The same algorithm on an honest Property-1\n\
         input makes a handful of early transitions and then none: the\n\
         bounded-plateau condition (not mere divergence) is what makes ◊P\n\
         achievable."
    );
}
