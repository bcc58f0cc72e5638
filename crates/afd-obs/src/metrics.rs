//! [`analyze`](crate::analyze) over hand-built binary traces: each Chen
//! metric of §2 against the value worked out by hand, one query a second.
//! [`qos`](crate::qos)'s own tests drive the streaming estimator; these
//! read it the way an offline analysis of a recorded run does.

#[cfg(test)]
mod tests {
    use afd_core::binary::Status;
    use afd_core::history::BinaryTrace;
    use afd_core::time::Timestamp;

    use crate::{analyze, OnlineQos, QosReport};

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs_f64(s)
    }

    /// Builds a trace with one query per second; `suspected` lists the
    /// (whole) seconds at which the detector output "suspected".
    fn trace(horizon: u64, suspected: &[u64]) -> BinaryTrace {
        let mut t = BinaryTrace::new();
        for s in 1..=horizon {
            let status = if suspected.contains(&s) {
                Status::Suspected
            } else {
                Status::Trusted
            };
            t.push(Timestamp::from_secs(s), status);
        }
        t
    }

    #[test]
    fn empty_trace_gives_default() {
        assert_eq!(analyze(&BinaryTrace::new(), None), QosReport::default());
    }

    #[test]
    fn perfect_run_has_full_accuracy() {
        let r = analyze(&trace(100, &[]), None);
        assert_eq!(r.mistakes, 0);
        assert_eq!(r.query_accuracy, 1.0);
        assert_eq!(r.mistake_rate, 0.0);
        assert_eq!(r.mistake_recurrence, None);
        assert_eq!(r.mistake_duration, None);
        assert_eq!(r.detection_time, None);
        assert!((r.observed_alive - 99.0).abs() < 1e-9);
    }

    #[test]
    fn single_mistake_metrics() {
        // Suspected during seconds 10–12 → S at 10, T at 13.
        let r = analyze(&trace(100, &[10, 11, 12]), None);
        assert_eq!(r.mistakes, 1);
        assert_eq!(r.mistake_recurrence, None); // needs two mistakes
        assert_eq!(r.mistake_duration, Some(3.0));
        assert!((r.query_accuracy - 0.97).abs() < 1e-9);
        assert!((r.mistake_rate - 1.0 / 99.0).abs() < 1e-9);
    }

    #[test]
    fn recurrence_and_good_periods() {
        // Mistakes at 10 and 50 (each 1 s long).
        let r = analyze(&trace(100, &[10, 50]), None);
        assert_eq!(r.mistakes, 2);
        assert_eq!(r.mistake_recurrence, Some(40.0));
        assert_eq!(r.mistake_duration, Some(1.0));
        // Good period: T at 11 → S at 50 = 39 s.
        assert_eq!(r.good_period, Some(39.0));
    }

    #[test]
    fn detection_time_measured_from_crash() {
        // Crash at t = 60; detector suspects permanently from t = 63.
        let suspected: Vec<u64> = (63..=100).collect();
        let r = analyze(&trace(100, &suspected), Some(ts(60.0)));
        assert_eq!(r.detection_time, Some(3.0));
        // No mistakes before the crash.
        assert_eq!(r.mistakes, 0);
        assert_eq!(r.query_accuracy, 1.0);
    }

    #[test]
    fn detection_requires_permanence() {
        // Suspects at 63 but trusts again at 80: the FINAL S-transition is
        // what counts (at 90 here).
        let mut suspected: Vec<u64> = (63..80).collect();
        suspected.extend(90..=100);
        let r = analyze(&trace(100, &suspected), Some(ts(60.0)));
        assert_eq!(r.detection_time, Some(30.0));
    }

    #[test]
    fn undetected_crash_has_no_detection_time() {
        let r = analyze(&trace(100, &[]), Some(ts(60.0)));
        assert_eq!(r.detection_time, None);
    }

    #[test]
    fn crash_beyond_trace_is_ignored() {
        let r = analyze(
            &trace(100, &(40..=100).collect::<Vec<_>>()),
            Some(ts(500.0)),
        );
        assert_eq!(r.detection_time, None);
    }

    #[test]
    fn pre_crash_mistakes_do_not_count_against_detection() {
        // A mistake at 20, recovery, then crash at 60 detected at 64.
        let mut suspected = vec![20, 21];
        suspected.extend(64..=100);
        let r = analyze(&trace(100, &suspected), Some(ts(60.0)));
        assert_eq!(r.mistakes, 1);
        assert_eq!(r.detection_time, Some(4.0));
        assert!(r.query_accuracy < 1.0);
    }

    #[test]
    fn suspicion_already_active_at_crash_gives_zero_detection() {
        // Wrongly suspecting from t=50 onward; crash at 60. The final
        // S-transition (50) predates the crash → detection time 0.
        let suspected: Vec<u64> = (50..=100).collect();
        let r = analyze(&trace(100, &suspected), Some(ts(60.0)));
        assert_eq!(r.detection_time, Some(0.0));
    }

    #[test]
    fn threshold_helper_matches_manual_analysis() {
        use afd_core::history::SuspicionTrace;
        use afd_core::suspicion::SuspicionLevel;

        // `SuspicionTrace::threshold` (Eq. 2) then `analyze` reads the
        // same metrics as the trace thresholded by hand.
        let mut levels = SuspicionTrace::new();
        for s in 1..=10u64 {
            let v = if s >= 5 { 3.0 } else { 0.5 };
            levels.push(Timestamp::from_secs(s), SuspicionLevel::new(v).unwrap());
        }
        let thr = SuspicionLevel::new(1.0).unwrap();
        let helper = analyze(&levels.threshold(thr), Some(ts(4.0)));
        let manual = analyze(&trace(10, &(5..=10).collect::<Vec<_>>()), Some(ts(4.0)));
        assert_eq!(helper, manual);
        assert_eq!(helper.detection_time, Some(1.0));
    }

    // --- Regression: alive-window accounting -----------------------------
    // `observed_alive` used to stop at the last sample that happened to
    // land before the crash, biasing λ_M and the P_A denominator by up to
    // one query period.

    #[test]
    fn alive_window_extends_to_a_mid_period_crash() {
        // Crash at t = 60.5, between the queries at 60 and 61: the alive
        // window is 59.5 s, not 59 s (last alive sample − first sample).
        let suspected: Vec<u64> = (63..=100).collect();
        let r = analyze(&trace(100, &suspected), Some(ts(60.5)));
        assert!((r.observed_alive - 59.5).abs() < 1e-9, "{r:?}");
        assert_eq!(r.mistakes, 0);
        assert_eq!(r.detection_time, Some(2.5));
    }

    #[test]
    fn mistake_rate_uses_the_crash_bounded_window() {
        // One mistake (at 10) before a crash at 60.5 → λ_M = 1 / 59.5.
        let mut suspected = vec![10];
        suspected.extend(63..=100);
        let r = analyze(&trace(100, &suspected), Some(ts(60.5)));
        assert_eq!(r.mistakes, 1);
        assert!((r.mistake_rate - 1.0 / 59.5).abs() < 1e-12, "{r:?}");
    }

    #[test]
    fn crash_beyond_trace_keeps_the_final_sample_in_accuracy() {
        // A crash scheduled past the horizon must not drop the last query
        // from the accuracy window: a mistake at t = 100 still counts.
        let r = analyze(&trace(100, &[100]), Some(ts(500.0)));
        assert_eq!(r.mistakes, 1);
        assert!((r.query_accuracy - 0.99).abs() < 1e-9, "{r:?}");
        assert!((r.observed_alive - 99.0).abs() < 1e-9);
    }

    // --- Edge cases -------------------------------------------------------

    #[test]
    fn trace_ending_exactly_at_the_crash_instant() {
        // The final query coincides with the crash: it belongs to the
        // detection side (at >= crash), not the accuracy side, and the
        // alive window spans first sample → crash.
        let mut t = BinaryTrace::new();
        for s in 1..=59u64 {
            t.push(Timestamp::from_secs(s), Status::Trusted);
        }
        t.push(Timestamp::from_secs(60), Status::Suspected);
        let r = analyze(&t, Some(ts(60.0)));
        assert_eq!(r.mistakes, 0);
        assert_eq!(r.query_accuracy, 1.0);
        assert!((r.observed_alive - 59.0).abs() < 1e-9);
        assert_eq!(r.detection_time, Some(0.0));
    }

    #[test]
    fn single_sample_traces() {
        let mut trusted = BinaryTrace::new();
        trusted.push(Timestamp::from_secs(5), Status::Trusted);
        let r = analyze(&trusted, None);
        assert_eq!(r.observed_alive, 0.0);
        assert_eq!(r.query_accuracy, 1.0);
        assert_eq!(r.mistake_rate, 0.0);
        assert_eq!(r.detection_time, None);

        let mut suspected = BinaryTrace::new();
        suspected.push(Timestamp::from_secs(5), Status::Suspected);
        let r = analyze(&suspected, Some(ts(3.0)));
        // The lone sample is post-crash: no alive queries, instant
        // (well, 2 s) permanent detection.
        assert_eq!(r.mistakes, 0);
        assert_eq!(r.query_accuracy, 1.0);
        assert_eq!(r.detection_time, Some(2.0));
        let r = analyze(&suspected, None);
        // Without a crash the sample is one alive mistake.
        assert_eq!(r.mistakes, 1);
        assert_eq!(r.query_accuracy, 0.0);
    }

    #[test]
    fn online_estimator_agrees_with_offline_analyze() {
        // Deterministic replay check (the property-style version over
        // random traces lives in tests/online_offline.rs).
        let scenarios: &[(Vec<u64>, Option<f64>)] = &[
            ((63..=100).collect(), Some(60.5)),
            (vec![10, 11, 40, 41, 42, 90], None),
            (vec![1, 2, 3], Some(2.0)),
        ];
        for (suspected, crash) in scenarios {
            let t = trace(100, suspected);
            let crash = crash.map(ts);
            let mut online = OnlineQos::new(crash);
            for s in t.samples() {
                online.observe(s.at, s.status);
            }
            assert_eq!(online.report(), analyze(&t, crash));
        }
    }
}
