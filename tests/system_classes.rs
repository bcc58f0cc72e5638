//! System-level class conformance (§3.2, §4.3): a whole simulated system
//! — n processes, every monitor watching every peer — checked against the
//! ◊P_ac and ◊S_ac definitions.

use accrual_fd::core::failure::FailurePattern;
use accrual_fd::core::process::MonitorPair;
use accrual_fd::core::properties::AccruementCheck;
use accrual_fd::core::system::{check_classes, SystemObservation};
use accrual_fd::prelude::*;
use accrual_fd::runtime::replay::replay;
use accrual_fd::sim::replay::ReplayConfig;
use accrual_fd::sim::scenario::Scenario;
use accrual_fd::sim::simulate;

/// Simulates every (monitor, monitored) pair of an n-process system with
/// independent links and the given crash set, feeding φ detectors.
fn observe_system(
    n: u32,
    crashes: &[(u32, u64)],
    horizon_secs: u64,
    seed_base: u64,
) -> (SystemObservation, FailurePattern) {
    let mut pattern = FailurePattern::all_correct(n);
    for &(p, at) in crashes {
        pattern.crash(ProcessId::new(p), Timestamp::from_secs(at));
    }

    let mut observation = SystemObservation::new();
    for q in 0..n {
        for p in 0..n {
            if p == q {
                continue;
            }
            let mut scenario =
                Scenario::wan_jitter().with_horizon(Timestamp::from_secs(horizon_secs));
            if let Some(at) = pattern.crash_time(ProcessId::new(p)) {
                scenario = scenario.with_crash_at(at);
            }
            // Each link gets its own seed (independent networks).
            let arrivals = simulate(&scenario, seed_base + (q as u64) * 101 + p as u64);
            let trace = replay(
                &arrivals,
                |_| PhiAccrual::with_defaults(),
                ReplayConfig::every(Duration::from_millis(250)),
            )
            .levels;
            observation.insert(
                MonitorPair::new(ProcessId::new(q), ProcessId::new(p)),
                trace,
            );
        }
    }
    (observation, pattern)
}

#[test]
fn phi_system_conforms_to_diamond_p_ac() {
    // 4 processes, p1 and p3 crash: 12 monitored pairs total.
    let (obs, pattern) = observe_system(4, &[(1, 120), (3, 200)], 400, 7_000);
    assert_eq!(obs.len(), 12);
    let report = check_classes(&obs, &pattern, &AccruementCheck::STRICT);
    assert!(
        report.is_diamond_p_ac(),
        "violations: accruement {:?}, bound {:?}",
        report.accruement_violations,
        report.bound_violations
    );
    assert!(report.is_diamond_s_ac(), "◊P_ac implies ◊S_ac");
    // Both correct processes are witnesses.
    assert_eq!(report.bounded_correct_processes.len(), 2);
}

#[test]
fn all_correct_system_has_no_violations() {
    let (obs, pattern) = observe_system(3, &[], 300, 9_000);
    let report = check_classes(&obs, &pattern, &AccruementCheck::STRICT);
    assert!(report.is_diamond_p_ac());
    assert_eq!(report.bounded_correct_processes.len(), 3);
}

#[test]
fn flat_detector_fails_system_check() {
    // A detector that never accrues (always zero) violates Accruement for
    // every faulty pair — the system check must catch it.
    use accrual_fd::core::accrual::AccrualFailureDetector;

    #[derive(Debug)]
    struct AlwaysZero;
    impl AccrualFailureDetector for AlwaysZero {
        fn record_heartbeat(&mut self, _arrival: Timestamp) {}
        fn suspicion_level(&mut self, _now: Timestamp) -> SuspicionLevel {
            SuspicionLevel::ZERO
        }
    }

    let mut pattern = FailurePattern::all_correct(2);
    pattern.crash(ProcessId::new(1), Timestamp::from_secs(50));
    let scenario = Scenario::wan_jitter()
        .with_horizon(Timestamp::from_secs(200))
        .with_crash_at(Timestamp::from_secs(50));
    let arrivals = simulate(&scenario, 1);
    let trace = replay(
        &arrivals,
        |_| AlwaysZero,
        ReplayConfig::every(Duration::from_millis(250)),
    )
    .levels;
    let mut obs = SystemObservation::new();
    obs.insert(
        MonitorPair::new(ProcessId::new(0), ProcessId::new(1)),
        trace,
    );
    let report = check_classes(&obs, &pattern, &AccruementCheck::STRICT);
    assert!(!report.is_diamond_p_ac());
    assert!(!report.is_diamond_s_ac());
    assert_eq!(report.accruement_violations.len(), 1);
}
