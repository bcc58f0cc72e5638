//! The checker's headline guarantees, end to end:
//!
//! 1. The real system is violation-free at every canonical state the
//!    smoke bounds reach, for all six zoo detectors.
//! 2. Every seeded mutant is caught, the counterexample minimizes to a
//!    1-minimal schedule, and that schedule replays through the *real*
//!    sender/monitor pipeline as a `ChaosScript`.
//! 3. On clean schedules the model and the runtime agree on every
//!    suspicion level after every event — the model is a faithful
//!    abstraction, not a parallel implementation drifting on its own.

use afd_core::process::ProcessId;
use afd_model::{
    explore, find_counterexample, minimize, model_trace, replay, to_script, DetectorKind,
    ModelBounds, ModelEvent, Mutant, Property, ZooDetector,
};
use afd_runtime::run_chaos_script;

#[test]
fn real_system_is_clean_and_smoke_bounds_are_nontrivial() {
    let bounds = ModelBounds::smoke();
    let mut total_states = 0u64;
    for kind in DetectorKind::ALL {
        let report = explore(kind, Mutant::None, bounds);
        assert!(
            report.counterexample.is_none(),
            "{}: the real system violated a property: {:?}",
            kind.name(),
            report.counterexample
        );
        assert!(
            report.states > 10_000,
            "{}: suspiciously small search ({} states) — bounds degenerated",
            kind.name(),
            report.states
        );
        total_states += report.states;
    }
    assert!(
        total_states >= 100_000,
        "smoke exploration covered only {total_states} canonical states"
    );
}

#[test]
fn every_mutant_is_caught_minimized_and_replayable() {
    let bounds = ModelBounds::mutant_hunt();
    let kind = DetectorKind::Simple;
    for mutant in Mutant::ALL {
        let cex = find_counterexample(kind, mutant, bounds)
            .unwrap_or_else(|| panic!("{}: mutant escaped the checker", mutant.name()));

        let expected_property = match mutant {
            Mutant::None => unreachable!("ALL excludes None"),
            Mutant::NonMonotoneAccrual => Property::Accruement,
            Mutant::DroppedSeqCheck => Property::Alg4Freshness,
            Mutant::HysteresisOffByOne => Property::HysteresisSpec,
            Mutant::Alg1NoThresholdRaise => Property::Alg1Threshold,
            Mutant::Alg2NoReset => Property::Alg2Accrual,
        };
        assert_eq!(
            cex.violation.property,
            expected_property,
            "{}: caught, but by the wrong property",
            mutant.name()
        );

        let min = minimize(kind, mutant, bounds, &cex);
        assert!(min.path.len() <= cex.path.len());
        assert!(
            replay(kind, mutant, bounds, &min.path).is_some(),
            "{}: minimized schedule no longer violates",
            mutant.name()
        );
        for i in 0..min.path.len() {
            let mut shorter = min.path.clone();
            shorter.remove(i);
            assert!(
                replay(kind, mutant, bounds, &shorter).is_none(),
                "{}: not 1-minimal, event {i} is removable",
                mutant.name()
            );
        }

        // The minimized schedule is a runnable artifact: convert it to a
        // ChaosScript and drive the real SenderCore/ShardedMonitor stack
        // with it. The real stack has no mutants, so the run must be
        // clean — but every event must execute (no index drift between
        // model and runtime in-flight pools).
        let script = to_script(&bounds, &min.path);
        let interval = script.heartbeat_interval;
        let report = run_chaos_script(&script, move |_| ZooDetector::new(kind, interval));
        assert_eq!(
            report.trace.len(),
            min.path.len(),
            "{}: runtime replay diverged from the model schedule",
            mutant.name()
        );
    }
}

#[test]
fn model_and_runtime_agree_level_by_level_on_a_clean_schedule() {
    use ModelEvent as E;
    let bounds = ModelBounds::smoke();
    let p1 = ProcessId::new(1);
    // Two senders; exercise delivery, deferral, loss, and a crash.
    let path = [
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
    ];
    for kind in DetectorKind::ALL {
        let trace = model_trace(kind, bounds, &path);
        let script = to_script(&bounds, &path);
        let interval = script.heartbeat_interval;
        let report = run_chaos_script(&script, move |_| ZooDetector::new(kind, interval));
        assert_eq!(report.trace.len(), trace.len());
        for (sample, model_levels) in report.trace.iter().zip(&trace) {
            assert_eq!(sample.levels.len(), model_levels.len());
            for ((proc, runtime_level), model_level) in sample.levels.iter().zip(model_levels) {
                assert!(
                    (runtime_level.value() - model_level).abs() < 1e-9,
                    "{}: divergence at event {} for {proc}: runtime {} vs model {}",
                    kind.name(),
                    sample.event_index,
                    runtime_level.value(),
                    model_level
                );
            }
        }
    }
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
