//! Acceptance: the streaming QoS estimators embedded in the chaos harness
//! agree with the offline analyzer on the same runs.
//!
//! `run_chaos` feeds every sampled suspicion level through an
//! [`accrual_fd::obs::OnlineQos`] at observation time; this test replays the
//! recorded traces through the offline [`accrual_fd::qos::analyze`] path
//! (each detector's own threshold interpretation, then metric extraction)
//! and demands the two agree on every Chen et al. metric, for all six
//! detectors, across several seeded fault scripts.

use accrual_fd::core::time::{Duration, Timestamp};
use accrual_fd::qos::analyze;
use accrual_fd::runtime::{run_chaos, ChaosScenario};

const TOLERANCE: f64 = 1e-9;

fn assert_close(context: &str, online: f64, offline: f64) {
    assert!(
        (online - offline).abs() <= TOLERANCE,
        "{context}: online {online} vs offline {offline}"
    );
}

fn assert_opt_close(context: &str, online: Option<f64>, offline: Option<f64>) {
    match (online, offline) {
        (Some(a), Some(b)) => assert_close(context, a, b),
        (None, None) => {}
        _ => panic!("{context}: online {online:?} vs offline {offline:?}"),
    }
}

/// Runs the scenario and checks online-vs-offline agreement per detector.
fn check_agreement(scenario: &ChaosScenario, seed: u64) {
    let report = run_chaos(scenario, seed);
    let crash = scenario.permanent_crash();
    assert_eq!(report.detectors.len(), 6);
    for d in &report.detectors {
        let (name, online) = (d.name, &d.qos);
        let offline = analyze(&d.trace.threshold(d.threshold), crash);
        assert_opt_close(
            &format!("{name}.detection_time"),
            online.detection_time,
            offline.detection_time,
        );
        assert_eq!(online.mistakes, offline.mistakes, "{name}.mistakes");
        assert_opt_close(
            &format!("{name}.mistake_recurrence"),
            online.mistake_recurrence,
            offline.mistake_recurrence,
        );
        assert_opt_close(
            &format!("{name}.mistake_duration"),
            online.mistake_duration,
            offline.mistake_duration,
        );
        assert_close(
            &format!("{name}.mistake_rate"),
            online.mistake_rate,
            offline.mistake_rate,
        );
        assert_close(
            &format!("{name}.query_accuracy"),
            online.query_accuracy,
            offline.query_accuracy,
        );
        assert_opt_close(
            &format!("{name}.good_period"),
            online.good_period,
            offline.good_period,
        );
        assert_close(
            &format!("{name}.observed_alive"),
            online.observed_alive,
            offline.observed_alive,
        );
    }
}

#[test]
fn online_matches_offline_through_partition_and_final_crash() {
    let mut s = ChaosScenario::new(Duration::from_secs(120));
    s.burst_loss = Some((0.0625, 4.0));
    s.partitions
        .push((Timestamp::from_secs(20), Timestamp::from_secs(30)));
    s.crashes.push((Timestamp::from_secs(90), None));
    check_agreement(&s, 7);
    check_agreement(&s, 23);
}

#[test]
fn online_matches_offline_through_crash_recover_cycles() {
    let mut s = ChaosScenario::new(Duration::from_secs(150));
    s.crashes
        .push((Timestamp::from_secs(40), Some(Timestamp::from_secs(55))));
    s.crashes
        .push((Timestamp::from_secs(80), Some(Timestamp::from_secs(95))));
    s.crashes.push((Timestamp::from_secs(120), None));
    check_agreement(&s, 11);
}

#[test]
fn online_matches_offline_when_the_process_stays_up() {
    // No permanent crash: detection must be None on both sides, while the
    // mistake metrics still have to agree through the loss bursts.
    let mut s = ChaosScenario::new(Duration::from_secs(100));
    s.burst_loss = Some((0.1, 5.0));
    s.partitions
        .push((Timestamp::from_secs(35), Timestamp::from_secs(45)));
    check_agreement(&s, 3);
    let report = run_chaos(&s, 3);
    for d in &report.detectors {
        let (name, online) = (d.name, &d.qos);
        assert!(
            online.detection_time.is_none(),
            "{name}: detected a crash that never happened"
        );
    }
}
