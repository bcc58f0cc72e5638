//! Property-based tests for the QoS metric computations: invariants that
//! must hold for *any* binary history, checked against independent
//! recomputations.

// Exact float equality is intentional in test assertions.
#![allow(clippy::float_cmp)]

use afd_core::binary::{Status, TransitionDetector};
use afd_core::history::BinaryTrace;
use afd_core::time::Timestamp;
use afd_obs::analyze;
use proptest::prelude::*;

/// Builds a one-query-per-second trace from booleans (true = suspected).
fn trace_from(bits: &[bool]) -> BinaryTrace {
    let mut t = BinaryTrace::new();
    for (i, &b) in bits.iter().enumerate() {
        t.push(
            Timestamp::from_secs(i as u64 + 1),
            if b {
                Status::Suspected
            } else {
                Status::Trusted
            },
        );
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 128 }))]

    /// Invariants on runs without a crash.
    #[test]
    fn healthy_run_invariants(bits in prop::collection::vec(any::<bool>(), 1..300)) {
        let trace = trace_from(&bits);
        let report = analyze(&trace, None);

        // P_A is a probability and equals the trusted fraction.
        prop_assert!((0.0..=1.0).contains(&report.query_accuracy));
        let trusted = bits.iter().filter(|&&b| !b).count();
        prop_assert!((report.query_accuracy - trusted as f64 / bits.len() as f64).abs() < 1e-12);

        // Mistakes equal S-transitions counted independently.
        let mut td = TransitionDetector::new();
        let s_count = bits
            .iter()
            .filter(|&&b| {
                matches!(
                    td.observe(if b { Status::Suspected } else { Status::Trusted }),
                    Some(afd_core::binary::Transition::Suspect)
                )
            })
            .count() as u64;
        prop_assert_eq!(report.mistakes, s_count);

        // Rate is mistakes per observed second.
        if report.observed_alive > 0.0 {
            prop_assert!(
                (report.mistake_rate - report.mistakes as f64 / report.observed_alive).abs()
                    < 1e-12
            );
        }

        // No crash ⇒ no detection time.
        prop_assert_eq!(report.detection_time, None);

        // Durations are non-negative when present.
        for v in [report.mistake_recurrence, report.mistake_duration, report.good_period]
            .into_iter()
            .flatten()
        {
            prop_assert!(v >= 0.0);
        }
    }

    /// Invariants on crash runs.
    #[test]
    fn crash_run_invariants(
        prefix in prop::collection::vec(any::<bool>(), 1..100),
        crash_offset in 1usize..50,
        detect_lag in 0usize..20,
    ) {
        // Build: prefix (alive), then trusted until detection, then
        // suspected forever.
        let crash_idx = prefix.len() + crash_offset;
        let total = crash_idx + detect_lag + 30;
        let mut bits = prefix.clone();
        bits.resize(crash_idx + detect_lag, false);
        bits.resize(total, true);
        let trace = trace_from(&bits);
        let crash = Timestamp::from_secs(crash_idx as u64 + 1);
        let report = analyze(&trace, Some(crash));

        // Detection happened and is measured from the crash.
        let td = report.detection_time.expect("trace ends suspected");
        prop_assert!(td >= 0.0);
        prop_assert!((td - detect_lag as f64) <= 1e-9, "td {td} lag {detect_lag}");

        // Accuracy metrics only use the pre-crash portion.
        let alive_report = analyze(&trace_from(&prefix), None);
        // (prefix may end mid-mistake; mistake counts still agree because
        // both analyses see the same pre-crash samples)
        prop_assert_eq!(report.mistakes, alive_report.mistakes);
    }

    /// Analysis is insensitive to appending more suspected samples after
    /// permanent detection (the metrics are already determined).
    #[test]
    fn extending_permanent_suspicion_changes_nothing(
        prefix in prop::collection::vec(any::<bool>(), 1..60),
        extra in 1usize..50,
    ) {
        let crash_idx = prefix.len();
        let mut bits = prefix;
        bits.resize(crash_idx + 10, true);
        let crash = Timestamp::from_secs(crash_idx as u64 + 1);

        let short = analyze(&trace_from(&bits), Some(crash));
        bits.resize(bits.len() + extra, true);
        let long = analyze(&trace_from(&bits), Some(crash));

        prop_assert_eq!(short.detection_time, long.detection_time);
        prop_assert_eq!(short.mistakes, long.mistakes);
        prop_assert_eq!(short.query_accuracy, long.query_accuracy);
    }
}
