//! The checker's headline guarantees, end to end:
//!
//! 1. The real system is violation-free at every canonical state the
//!    smoke bounds reach, for all six zoo detectors.
//! 2. Every seeded mutant is caught, the counterexample minimizes to a
//!    1-minimal schedule, and that schedule replays through the *real*
//!    sender/monitor pipeline (`runtime_trace`).
//! 3. On clean schedules the model and the runtime agree on every
//!    suspicion level after every event — the model is a faithful
//!    abstraction, not a parallel implementation drifting on its own.

use afd_core::canonical::StateDigest;
use afd_core::process::ProcessId;
use afd_detectors::spec::{self, ZooSpec};
use afd_model::{
    explore, find_counterexample, minimize, model_trace, replay, runtime_trace, ModelBounds,
    ModelEvent, Mutant, Property,
};

/// The mixed two-sender schedule the model and the runtime must agree on
/// level by level: delivery, deferral, loss and a crash.
fn clean_schedule() -> [ModelEvent; 14] {
    use ModelEvent as E;
    let p1 = ProcessId::new(1);
    [
        E::Deliver(0),
        E::Deliver(0),
        E::Tick,
        E::Tick,
        E::Deliver(1),
        E::Drop(0),
        E::Tick,
        E::Tick,
        E::Crash(p1),
        E::Deliver(0),
        E::Deliver(0),
        E::Tick,
        E::Tick,
        E::Deliver(0),
    ]
}

/// Feeds `digest` the runtime replay of `path` under `zoo`: every level's
/// bits after every event, then the intake's accepted, stale and duplicate
/// counts, the heartbeats sent and the frames left in flight.
fn digest_runtime(
    digest: &mut StateDigest,
    zoo: ZooSpec,
    bounds: ModelBounds,
    path: &[ModelEvent],
) {
    let report = runtime_trace(zoo, bounds, path);
    for levels in &report.levels {
        for &level in levels {
            digest.push_f64(level);
        }
    }
    let stats = report.monitor_stats;
    let sent = report.heartbeats_sent;
    let undelivered = report.undelivered as u64;
    for n in [
        stats.accepted,
        stats.stale,
        stats.duplicate,
        sent,
        undelivered,
    ] {
        digest.push_u64(n);
    }
}

#[test]
fn real_system_is_clean_and_smoke_bounds_are_nontrivial() {
    let bounds = ModelBounds::smoke();
    // The exact counts pin the search: a change to a detector's state, to
    // its digest or to the transition system moves them.
    let expected = [28_545, 74_083, 71_936, 75_263, 75_977, 75_977];
    let mut total_states = 0u64;
    for (zoo, states) in spec::zoo().into_iter().zip(expected) {
        let report = explore(zoo, Mutant::None, bounds);
        assert!(
            report.counterexample.is_none(),
            "{}: the real system violated a property: {:?}",
            zoo.detector.name(),
            report.counterexample
        );
        assert_eq!(report.states, states, "{}", zoo.detector.name());
        total_states += report.states;
    }
    assert_eq!(total_states, 401_781);
}

#[test]
fn every_mutant_is_caught_minimized_and_replayable() {
    let bounds = ModelBounds::mutant_hunt();
    let simple = spec::simple();
    for mutant in Mutant::ALL {
        let cex = find_counterexample(simple, mutant, bounds)
            .unwrap_or_else(|| panic!("{}: mutant escaped the checker", mutant.name()));

        // The property each mutant was planted for, and the event counts
        // of its first counterexample and of that one minimized: the rows
        // `e17_model` prints.
        let (expected_property, cex_len, min_len) = match mutant {
            Mutant::None => unreachable!("ALL excludes None"),
            Mutant::NonMonotoneAccrual => (Property::Accruement, 6, 6),
            Mutant::DroppedSeqCheck => (Property::Alg4Freshness, 3, 3),
            Mutant::HysteresisOffByOne => (Property::HysteresisSpec, 3, 2),
            Mutant::Alg1NoThresholdRaise => (Property::Alg1Threshold, 2, 1),
            Mutant::Alg2NoReset => (Property::Alg2Accrual, 3, 3),
        };
        assert_eq!(
            cex.violation.property,
            expected_property,
            "{}: caught, but by the wrong property",
            mutant.name()
        );

        let min = minimize(simple, mutant, bounds, &cex);
        assert_eq!(
            (cex.path.len(), min.path.len()),
            (cex_len, min_len),
            "{}: counterexample / minimized lengths moved",
            mutant.name()
        );
        assert!(
            replay(simple, mutant, bounds, &min.path).is_some(),
            "{}: minimized schedule no longer violates",
            mutant.name()
        );
        for i in 0..min.path.len() {
            let mut shorter = min.path.clone();
            shorter.remove(i);
            assert!(
                replay(simple, mutant, bounds, &shorter).is_none(),
                "{}: not 1-minimal, event {i} is removable",
                mutant.name()
            );
        }

        // The minimized schedule is a runnable artifact: drive the real
        // SenderCore/ShardedMonitor stack with it. The real stack has no
        // mutants, so the run must be clean — but every event must
        // execute (no index drift between model and runtime in-flight
        // pools).
        let report = runtime_trace(simple, bounds, &min.path);
        assert_eq!(
            report.levels.len(),
            min.path.len(),
            "{}: runtime replay diverged from the model schedule",
            mutant.name()
        );
    }
}

#[test]
fn model_and_runtime_agree_level_by_level_on_a_clean_schedule() {
    let bounds = ModelBounds::smoke();
    // Two senders; exercise delivery, deferral, loss, and a crash.
    let path = clean_schedule();
    for zoo in spec::zoo() {
        let trace = model_trace(zoo, bounds, &path);
        let report = runtime_trace(zoo, bounds, &path);
        assert_eq!(report.levels.len(), trace.len());
        for (event_index, (runtime_levels, model_levels)) in
            report.levels.iter().zip(&trace).enumerate()
        {
            assert_eq!(runtime_levels.len(), model_levels.len());
            let procs = (1..).map(ProcessId::new);
            for ((proc, runtime_level), model_level) in procs.zip(runtime_levels).zip(model_levels)
            {
                assert!(
                    (runtime_level - model_level).abs() < 1e-9,
                    "{}: divergence at event {} for {proc}: runtime {} vs model {}",
                    zoo.detector.name(),
                    event_index,
                    runtime_level,
                    model_level
                );
            }
        }
    }
}

#[test]
fn runtime_replay_of_model_schedules_is_pinned() {
    // Per zoo kind, one digest over the five mutants' minimized
    // counterexamples (found at the mutant-hunt bounds, as `e17_model`
    // finds them) and one over the clean two-sender schedule: a change to
    // the sender, the wire or the monitor's receive rule moves them. Chen
    // and Bertier read the same levels on every one of these schedules.
    let hunt = ModelBounds::mutant_hunt();
    let paths: Vec<Vec<ModelEvent>> = Mutant::ALL
        .into_iter()
        .map(|mutant| {
            let cex = find_counterexample(spec::simple(), mutant, hunt).unwrap();
            minimize(spec::simple(), mutant, hunt, &cex).path
        })
        .collect();
    let digests: Vec<(u128, u128)> = spec::zoo()
        .into_iter()
        .map(|zoo| {
            let mut mutants = StateDigest::new();
            for path in &paths {
                digest_runtime(&mut mutants, zoo, hunt, path);
            }
            let mut clean = StateDigest::new();
            digest_runtime(&mut clean, zoo, ModelBounds::smoke(), &clean_schedule());
            (mutants.finish(), clean.finish())
        })
        .collect();
    let expected: [(u128, u128); 6] = [
        (
            0x4fe5_6cdf_29bd_58b9_3ddd_e142_22c6_f52a,
            0x4b0d_fb0c_7592_2ee3_6ac0_cd38_fc1c_cfcd,
        ),
        (
            0x6df6_5070_c2c9_6e1e_828d_5055_91e1_5cf3,
            0xb39a_6459_4418_2daf_30ed_1428_7439_f92f,
        ),
        (
            0x6df6_5070_c2c9_6e1e_828d_5055_91e1_5cf3,
            0xb39a_6459_4418_2daf_30ed_1428_7439_f92f,
        ),
        (
            0x2f2e_d6f2_2a67_1ffe_1a54_5689_a1ea_44b9,
            0x627e_486b_ab88_ce95_9259_0416_c537_8729,
        ),
        (
            0xc82f_4f58_02e1_069a_56fe_62b7_a314_bf09,
            0xdd93_e204_f0f5_94b4_9c26_da7c_06d0_e9fd,
        ),
        (
            0x58a2_33b9_8bc9_07ab_4cae_bf0a_f0d0_2e92,
            0x6e97_6e71_1f02_3db4_b691_0876_efd8_6b43,
        ),
    ];
    assert_eq!(digests, expected);
}

#[test]
fn exhaustive_bounds_subsume_smoke_bounds() {
    // Same shape, longer horizon: anything smoke explores, exhaustive
    // explores too, so a clean exhaustive run implies a clean smoke run.
    let smoke = ModelBounds::smoke();
    let full = ModelBounds::exhaustive();
    assert_eq!(smoke.processes, full.processes);
    assert_eq!(smoke.max_in_flight, full.max_in_flight);
    assert_eq!(smoke.heartbeat_every, full.heartbeat_every);
    assert!(smoke.max_ticks < full.max_ticks);
    assert_eq!(smoke.max_losses, full.max_losses);
    assert_eq!(smoke.max_duplicates, full.max_duplicates);
    assert_eq!(smoke.max_crashes, full.max_crashes);
}
