//! **E4 — Algorithm 2 (§4.2): binary → accrual, empirically ◊P_ac.**
//!
//! A scripted ◊P oracle (mistakes before stabilization, perfect after)
//! is wrapped by Algorithm 2. The tables regenerate the two lemmas:
//!
//! - faulty-oracle runs satisfy Accruement with Q = 1 (the level rises by
//!   ε on *every* query after stabilization);
//! - correct-oracle runs are bounded by ε times the longest pre-
//!   stabilization mistake streak, exactly as Lemma 11 predicts.

use afd_bench::experiment::{cell, Table};
use afd_core::accrual::AccrualFailureDetector;
use afd_core::binary::{ScriptedBinaryDetector, Status};
use afd_core::history::SuspicionTrace;
use afd_core::properties::{check_accruement, check_upper_bound};
use afd_core::time::Timestamp;
use afd_core::transform::BinaryToAccrual;
use afd_sim::rng::SimRng;

const EPSILON: f64 = 0.25;
const QUERIES: u64 = 5_000;

/// Builds a pre-stabilization prefix with `mistakes` flip-flops and
/// reports the longest consecutive "wrong" streak it contains.
fn noisy_prefix(rng: &mut SimRng, mistakes: usize, wrong: Status) -> (Vec<Status>, usize) {
    let right = match wrong {
        Status::Suspected => Status::Trusted,
        Status::Trusted => Status::Suspected,
    };
    let mut prefix = Vec::new();
    let mut longest = 0usize;
    for _ in 0..mistakes {
        let streak = 1 + rng.index(8);
        longest = longest.max(streak);
        prefix.extend(std::iter::repeat_n(wrong, streak));
        prefix.extend(std::iter::repeat_n(right, 1 + rng.index(5)));
    }
    (prefix, longest)
}

fn drive(oracle: ScriptedBinaryDetector) -> SuspicionTrace {
    let mut accrual = BinaryToAccrual::new(oracle, EPSILON);
    let mut trace = SuspicionTrace::new();
    for k in 0..QUERIES {
        let at = Timestamp::from_millis(100 * k);
        trace.push(at, accrual.suspicion_level(at));
    }
    trace
}

fn main() {
    let mut rng = SimRng::seed_from_u64(4);

    let mut t1 = Table::new(
        "E4a: Algorithm 2 over a faulty-process oracle (Accruement, Lemma 10)",
        &[
            "run",
            "pre-stab mistakes",
            "witness K",
            "witness plateau",
            "accruement",
        ],
    );
    for run in 0..10 {
        let mistakes = 5 + run;
        let (prefix, longest_wrong) = noisy_prefix(&mut rng, mistakes, Status::Trusted);
        let prefix_len = prefix.len();
        let oracle = ScriptedBinaryDetector::new(prefix, Status::Suspected);
        let trace = drive(oracle);
        let witness = check_accruement(&trace);
        let (k, q, ok) = match &witness {
            Ok(w) => (w.stabilization_index, w.max_constant_run, true),
            Err(_) => (0, 0, false),
        };
        assert!(ok, "Accruement must hold");
        // The checker's suffix starts at the last drop-to-zero, so it can
        // still contain the tail of the oracle's final mistake streak (a
        // constant-zero run); the plateau is bounded by that streak.
        assert!(
            q < longest_wrong.max(1),
            "plateau {q} vs streak {longest_wrong}"
        );
        assert!(k <= prefix_len, "stabilization within the oracle prefix");
        // Once the oracle stabilizes, Q = 1 exactly: the level strictly
        // increases on every query over the entire post-prefix tail.
        let tail = &trace.samples()[prefix_len..];
        assert!(
            tail.windows(2).all(|w| w[1].level > w[0].level),
            "post-stabilization level must increase every query"
        );
        t1.push_row(vec![
            run.to_string(),
            mistakes.to_string(),
            k.to_string(),
            q.to_string(),
            "ok".to_string(),
        ]);
    }
    println!("{t1}");

    let mut t2 = Table::new(
        "E4b: Algorithm 2 over a correct-process oracle (Upper Bound, Lemma 11)",
        &[
            "run",
            "longest wrong streak",
            "predicted bound",
            "observed SL_max",
            "final level",
        ],
    );
    for run in 0..10 {
        let (prefix, longest) = noisy_prefix(&mut rng, 5 + run, Status::Suspected);
        let oracle = ScriptedBinaryDetector::new(prefix, Status::Trusted);
        let trace = drive(oracle);
        let bound = check_upper_bound(&trace, None).expect("bounded");
        let predicted = longest as f64 * EPSILON;
        assert!(
            bound.observed_bound.value() <= predicted + 1e-9,
            "bound must match the longest streak"
        );
        let last = trace.samples().last().unwrap().level;
        assert!(
            last.is_zero(),
            "level resets to zero once the oracle trusts"
        );
        t2.push_row(vec![
            run.to_string(),
            longest.to_string(),
            cell(predicted, 2),
            cell(bound.observed_bound.value(), 2),
            cell(last.value(), 2),
        ]);
    }
    println!("{t2}");
    println!(
        "reading: the transformation inherits ◊P's stabilization — unbounded\n\
         ε-accrual for faulty processes (Q = 1), a finite pre-stabilization\n\
         bound and permanent zero for correct ones (Theorem 12)."
    );
}
