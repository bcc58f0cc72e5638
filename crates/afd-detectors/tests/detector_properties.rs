//! The defining properties (§3) checked for every detector implementation
//! over simulated networks.
//!
//! For each of the four detectors and several network scenarios:
//!
//! - **Accruement** (Property 1): after a crash, the suspicion level
//!   eventually increases monotonously with bounded plateaus.
//! - **Upper Bound** (Property 2): while the monitored process is correct,
//!   the level stays finite — and the observed bound does not grow when
//!   the run gets longer (the empirical signature of boundedness).
//! - Monotonicity between heartbeats, and basic cross-detector sanity.

use afd_core::accrual::AccrualFailureDetector;
use afd_core::canonical::{digest_of, CanonicalState};
use afd_core::history::SuspicionTrace;
use afd_core::properties::{check_upper_bound, AccruementCheck};
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::adaptive::{AdaptiveAccrual, AdaptiveConfig};
use afd_detectors::akka::{AkkaPhi, AkkaPhiConfig};
use afd_detectors::bertier::BertierAccrual;
use afd_detectors::chen::{ChenAccrual, ChenConfig};
use afd_detectors::kappa::{KappaAccrual, KappaConfig, PhiContribution, StepContribution};
use afd_detectors::phi::{PhiAccrual, PhiConfig, PhiModel};
use afd_detectors::simple::SimpleAccrual;
use afd_sim::replay::{replay, ReplayConfig};
use afd_sim::scenario::Scenario;
use afd_sim::simulate;
use proptest::prelude::*;

/// All detector constructors under test, boxed for uniform iteration.
fn all_detectors() -> Vec<(&'static str, Box<dyn AccrualFailureDetector>)> {
    vec![
        ("simple", Box::new(SimpleAccrual::new(Timestamp::ZERO))),
        ("chen", Box::new(ChenAccrual::with_defaults())),
        ("bertier", Box::new(BertierAccrual::with_defaults())),
        ("phi-normal", Box::new(PhiAccrual::with_defaults())),
        (
            "phi-exponential",
            Box::new(
                PhiAccrual::new(PhiConfig {
                    model: PhiModel::Exponential,
                    ..PhiConfig::default()
                })
                .unwrap(),
            ),
        ),
        (
            "phi-empirical",
            Box::new(
                PhiAccrual::new(PhiConfig {
                    model: PhiModel::Empirical {
                        bins: 200,
                        max_intervals: 16.0,
                    },
                    ..PhiConfig::default()
                })
                .unwrap(),
            ),
        ),
        (
            "kappa-phi",
            Box::new(KappaAccrual::new(KappaConfig::default(), PhiContribution).unwrap()),
        ),
        (
            "kappa-step",
            Box::new(
                KappaAccrual::new(KappaConfig::default(), StepContribution::new(0.5)).unwrap(),
            ),
        ),
    ]
}

fn run_trace(
    scenario: &Scenario,
    seed: u64,
    detector: &mut dyn AccrualFailureDetector,
) -> SuspicionTrace {
    let trace = simulate(scenario, seed);
    replay(
        &trace,
        &mut *detector,
        ReplayConfig::every(Duration::from_millis(200)).with_clock(scenario.monitor_clock),
    )
}

#[test]
fn accruement_holds_after_crash_for_every_detector() {
    let scenario = Scenario::wan_jitter()
        .with_horizon(Timestamp::from_secs(300))
        .with_crash_at(Timestamp::from_secs(120));
    for seed in [1, 2, 3] {
        for (name, mut detector) in all_detectors() {
            let trace = run_trace(&scenario, seed, detector.as_mut());
            // Only judge the post-crash suffix plus some margin.
            let check = AccruementCheck {
                epsilon: 1e-6,
                min_increases: 10,
                min_suffix_fraction: 0.2,
            };
            let witness = check
                .run(&trace)
                .unwrap_or_else(|e| panic!("{name} (seed {seed}) violates Accruement: {e}"));
            assert!(
                witness.stabilization_index < trace.len(),
                "{name}: no stabilization found"
            );
        }
    }
}

#[test]
fn upper_bound_holds_for_correct_process_for_every_detector() {
    let scenario = Scenario::wan_jitter().with_horizon(Timestamp::from_secs(300));
    for seed in [1, 2, 3] {
        for (name, mut detector) in all_detectors() {
            let trace = run_trace(&scenario, seed, detector.as_mut());
            let witness = check_upper_bound(&trace, None)
                .unwrap_or_else(|e| panic!("{name} (seed {seed}) violates Upper Bound: {e}"));
            // A sane bound for a healthy 1 Hz heartbeat stream. The cap is
            // unit-dependent: simple/Chen measure seconds and κ counts
            // heartbeats, so a healthy bound is a few units; φ measures
            // decades of tail probability and legitimately spikes into the
            // hundreds when 1% loss stretches a gap (exactly the §5.4
            // critique that motivates κ).
            let cap = if name.starts_with("phi") {
                2_000.0
            } else {
                60.0
            };
            assert!(
                witness.observed_bound.value() < cap,
                "{name} (seed {seed}): implausible bound {}",
                witness.observed_bound
            );
        }
    }
}

#[test]
fn observed_bound_does_not_grow_with_run_length() {
    // Empirical signature of Property 2: doubling the horizon must not
    // meaningfully raise the max suspicion level of a correct process.
    for (name, _) in all_detectors() {
        let mut bounds = Vec::new();
        for horizon in [300u64, 600] {
            let scenario = Scenario::wan_jitter().with_horizon(Timestamp::from_secs(horizon));
            // Fresh detector per horizon.
            let (_, mut detector) = all_detectors()
                .into_iter()
                .find(|(n, _)| *n == name)
                .unwrap();
            let trace = run_trace(&scenario, 7, detector.as_mut());
            bounds.push(
                check_upper_bound(&trace, None)
                    .unwrap()
                    .observed_bound
                    .value(),
            );
        }
        assert!(
            bounds[1] <= bounds[0] * 2.0 + 1.0,
            "{name}: bound grew with horizon: {bounds:?}"
        );
    }
}

#[test]
fn accruement_also_holds_under_bursty_loss() {
    let scenario = Scenario::bursty_loss()
        .with_horizon(Timestamp::from_secs(300))
        .with_crash_at(Timestamp::from_secs(120));
    for (name, mut detector) in all_detectors() {
        let trace = run_trace(&scenario, 11, detector.as_mut());
        let check = AccruementCheck {
            epsilon: 1e-6,
            min_increases: 10,
            min_suffix_fraction: 0.2,
        };
        check
            .run(&trace)
            .unwrap_or_else(|e| panic!("{name} violates Accruement under loss: {e}"));
    }
}

#[test]
fn partially_synchronous_model_still_yields_diamond_p_ac() {
    // Theorem 15 setting: drifting clocks, pre-GST chaos. The simple
    // detector (Algorithm 4) must satisfy both properties; so should the
    // adaptive ones.
    let crash = Scenario::partially_synchronous()
        .with_horizon(Timestamp::from_secs(400))
        .with_crash_at(Timestamp::from_secs(250));
    let healthy = Scenario::partially_synchronous().with_horizon(Timestamp::from_secs(400));
    for (name, mut detector) in all_detectors() {
        let trace = run_trace(&crash, 3, detector.as_mut());
        let check = AccruementCheck {
            epsilon: 1e-6,
            min_increases: 10,
            min_suffix_fraction: 0.15,
        };
        check
            .run(&trace)
            .unwrap_or_else(|e| panic!("{name} violates Accruement (partial synchrony): {e}"));
    }
    for (name, mut detector) in all_detectors() {
        let trace = run_trace(&healthy, 3, detector.as_mut());
        check_upper_bound(&trace, None)
            .unwrap_or_else(|e| panic!("{name} violates Upper Bound (partial synchrony): {e}"));
    }
}

#[test]
fn crash_raises_level_above_healthy_maximum() {
    // The separation that makes thresholds work at all: the level reached
    // shortly after a crash exceeds everything seen while healthy.
    let healthy = Scenario::wan_jitter().with_horizon(Timestamp::from_secs(200));
    let crashed = Scenario::wan_jitter()
        .with_horizon(Timestamp::from_secs(200))
        .with_crash_at(Timestamp::from_secs(100));
    for (name, mut d1) in all_detectors() {
        let (_, mut d2) = all_detectors()
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap();
        let healthy_max = check_upper_bound(&run_trace(&healthy, 5, d1.as_mut()), None)
            .unwrap()
            .observed_bound;
        let crash_trace = run_trace(&crashed, 5, d2.as_mut());
        let crash_max = crash_trace.max_level().unwrap();
        assert!(
            crash_max > healthy_max,
            "{name}: crash max {crash_max} not above healthy max {healthy_max}"
        );
    }
}

/// Feeds two copies of `detector` the same jittered arrivals, running
/// the monitor's warm reads — `save_seed` and `prefetch` — on one of them
/// before every arrival (long enough that a four-sample window wraps
/// several times), and holds the two to the same state.
fn warm_reads_change_nothing<D>(name: &str, detector: D)
where
    D: AccrualFailureDetector + CanonicalState + Clone,
{
    let mut warmed = detector.clone();
    let mut plain = detector;
    let mut at = Timestamp::from_secs(1);
    for k in 0..24u64 {
        at = at.saturating_add(Duration::from_millis(900 + 40 * (k % 7)));
        let _ = warmed.save_seed();
        warmed.prefetch();
        warmed.record_heartbeat(at);
        plain.record_heartbeat(at);
    }
    warmed.prefetch();
    assert_eq!(digest_of(&warmed), digest_of(&plain), "{name}: state");
    assert_eq!(warmed.save_seed(), plain.save_seed(), "{name}: seed");
    for late in [10, 1_500, 60_000] {
        let now = at.saturating_add(Duration::from_millis(late));
        let (a, b) = (warmed.suspicion_level(now), plain.suspicion_level(now));
        assert_eq!(
            a.value().to_bits(),
            b.value().to_bits(),
            "{name} +{late} ms"
        );
    }
}

#[test]
fn warm_reads_have_no_observable_effect() {
    // The six members of the runtime's `DetectorZoo::standard`, those
    // with a sample window given a small one.
    warm_reads_change_nothing("simple", SimpleAccrual::new(Timestamp::ZERO));
    let chen = ChenConfig {
        window_size: 4,
        ..ChenConfig::default()
    };
    warm_reads_change_nothing("chen", ChenAccrual::new(chen).unwrap());
    warm_reads_change_nothing("bertier", BertierAccrual::with_defaults());
    let phi = PhiConfig {
        window_size: 4,
        ..PhiConfig::default()
    };
    warm_reads_change_nothing("phi", PhiAccrual::new(phi).unwrap());
    let akka = AkkaPhiConfig {
        window_size: 4,
        ..AkkaPhiConfig::default()
    };
    warm_reads_change_nothing("akka", AkkaPhi::new(akka).unwrap());
    let adaptive = AdaptiveConfig {
        window_size: 4,
        ..AdaptiveConfig::default()
    };
    warm_reads_change_nothing("adaptive", AdaptiveAccrual::new(adaptive).unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All detectors are monotone in `now` between heartbeats.
    #[test]
    fn monotone_between_heartbeats(
        gaps in prop::collection::vec(0.2..3.0f64, 2..40),
        probe_step in 0.05..0.5f64,
    ) {
        for (name, mut detector) in all_detectors() {
            let mut t = 0.0;
            for &g in &gaps {
                t += g;
                detector.record_heartbeat(Timestamp::from_secs_f64(t));
            }
            let mut prev = SuspicionLevel::ZERO;
            let mut probe = t;
            for _ in 0..50 {
                probe += probe_step;
                let level = detector.suspicion_level(Timestamp::from_secs_f64(probe));
                prop_assert!(
                    level >= prev,
                    "{} level decreased without a heartbeat: {} < {}",
                    name, level, prev
                );
                prev = level;
            }
        }
    }

    /// A heartbeat never increases the suspicion level.
    #[test]
    fn heartbeat_never_raises_suspicion(
        gaps in prop::collection::vec(0.5..2.0f64, 5..30),
        silence in 1.0..10.0f64,
    ) {
        for (name, mut detector) in all_detectors() {
            let mut t = 0.0;
            for &g in &gaps {
                t += g;
                detector.record_heartbeat(Timestamp::from_secs_f64(t));
            }
            let when = Timestamp::from_secs_f64(t + silence);
            let before = detector.suspicion_level(when);
            detector.record_heartbeat(when);
            let after = detector.suspicion_level(when);
            prop_assert!(
                after <= before,
                "{}: heartbeat raised level {} → {}",
                name, before, after
            );
        }
    }
}
