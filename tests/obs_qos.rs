//! Acceptance: the streaming QoS estimators embedded in chaos runs
//! agree with the offline analyzer on the same runs.
//!
//! `run_chaos` feeds every suspicion level the monitor published at a
//! query through an [`accrual_fd::obs::OnlineQos`]; this test replays the
//! recorded traces through the offline [`accrual_fd::qos::analyze`] path
//! (each detector's own threshold interpretation, then metric extraction)
//! and demands the two agree on every Chen et al. metric, for all six
//! detectors, across several seeded fault scripts.

use accrual_fd::core::time::Timestamp;
use accrual_fd::qos::analyze;
use accrual_fd::runtime::run_chaos;
use accrual_fd::sim::loss::GilbertElliottLoss;
use accrual_fd::sim::scenario::{LossKind, Scenario};

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
fn check_agreement(scenario: &Scenario, seed: u64) {
    let report = run_chaos(scenario, seed);
    let crash = scenario.crash_at;
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

/// 1 s heartbeats on an ideal link with Gilbert–Elliott bursts.
fn bursty(horizon_s: u64, burst_start: f64, mean_burst_len: f64) -> Scenario {
    Scenario {
        loss: LossKind::GilbertElliott(GilbertElliottLoss::bursts(burst_start, mean_burst_len)),
        ..Scenario::ideal()
    }
    .with_horizon(Timestamp::from_secs(horizon_s))
}

#[test]
fn online_matches_offline_through_partition_and_final_crash() {
    let at = Timestamp::from_secs;
    let s = bursty(120, 0.0625, 4.0)
        .with_partition(at(20), at(30))
        .with_crash_at(at(90));
    check_agreement(&s, 7);
    check_agreement(&s, 23);
}

#[test]
fn online_matches_offline_through_crash_recover_cycles() {
    let at = Timestamp::from_secs;
    let s = Scenario::ideal()
        .with_horizon(at(150))
        .with_outage(at(40), at(55))
        .with_outage(at(80), at(95))
        .with_crash_at(at(120));
    check_agreement(&s, 11);
}

#[test]
fn online_matches_offline_when_the_process_stays_up() {
    // No permanent crash: detection must be None on both sides, while the
    // mistake metrics still have to agree through the loss bursts.
    let at = Timestamp::from_secs;
    let s = bursty(100, 0.1, 5.0).with_partition(at(35), at(45));
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
