//! Cross-detector conformance suite: every member of the standard zoo —
//! simple, Chen, Bertier, φ, Akka φ, adaptive — is held to one behavioural
//! contract, regardless of how each computes its level.
//!
//! The contract (§4 of the paper, plus the practical edges the detectors
//! have tripped over historically):
//!
//! 1. between heartbeats the level is monotone non-decreasing in elapsed
//!    time, and genuinely grows over a long silence;
//! 2. a fresh heartbeat resets the level back down;
//! 3. querying at the exact arrival instant (`elapsed == 0`) is finite and
//!    non-negative — no NaN, no negative φ, no panic;
//! 4. Accruement (Property 1) holds on a virtual-time chaos run that
//!    ends in a crash, and Upper Bound (Property 2) on a calm run;
//! 5. the PR-7 detectors round-trip through save/restore seeds.

use accrual_fd::core::properties::{check_upper_bound, AccruementCheck};
use accrual_fd::detectors::spec::{self, AnyDetector};
use accrual_fd::prelude::*;
use accrual_fd::runtime::run_chaos;
use accrual_fd::sim::Scenario;

/// The catalogue's six zoo members, built, in zoo order.
fn zoo() -> impl Iterator<Item = (&'static str, AnyDetector)> {
    spec::zoo()
        .into_iter()
        .map(|zoo| (zoo.detector.name(), zoo.detector.build()))
}

/// Feeds `beats` heartbeats on a regular 1 s cadence; returns the last
/// arrival instant.
fn warm(fd: &mut dyn AccrualFailureDetector, beats: u64) -> Timestamp {
    let mut last = Timestamp::ZERO;
    for s in 1..=beats {
        last = Timestamp::from_secs(s);
        fd.record_heartbeat(last);
    }
    last
}

#[test]
fn levels_are_monotone_between_heartbeats_and_grow_over_silence() {
    for (name, mut fd) in zoo() {
        let last = warm(&mut fd, 30);
        let mut prev = fd.suspicion_level(last).value();
        for step in 1..=400u64 {
            let at = last.saturating_add(Duration::from_millis(step * 50));
            let level = fd.suspicion_level(at).value();
            assert!(
                level + 1e-12 >= prev,
                "{name}: level fell from {prev} to {level} at +{}ms",
                step * 50
            );
            prev = level;
        }
        let early = fd
            .suspicion_level(last.saturating_add(Duration::from_millis(100)))
            .value();
        assert!(
            prev > early,
            "{name}: 20 s of silence did not grow the level ({early} .. {prev})"
        );
    }
}

#[test]
fn a_fresh_heartbeat_resets_the_level() {
    for (name, mut fd) in zoo() {
        let last = warm(&mut fd, 30);
        let late = last.saturating_add(Duration::from_secs(10));
        let suspicious = fd.suspicion_level(late).value();
        fd.record_heartbeat(late);
        let relieved = fd.suspicion_level(late).value();
        assert!(
            relieved < suspicious,
            "{name}: heartbeat did not lower the level ({suspicious} -> {relieved})"
        );
    }
}

/// The shared `elapsed == 0` edge case: querying at the precise arrival
/// instant must be finite and non-negative for every detector. (The φ
/// family returns exactly 0 there; the adaptive detector only its small
/// Laplace floor — both are fine, NaN or a panic is not.)
#[test]
fn querying_at_the_arrival_instant_is_finite_and_non_negative() {
    for (name, mut fd) in zoo() {
        let last = warm(&mut fd, 10);
        let level = fd.suspicion_level(last).value();
        assert!(
            level.is_finite() && level >= 0.0,
            "{name}: level at elapsed == 0 is {level}"
        );
        let later = fd
            .suspicion_level(last.saturating_add(Duration::from_secs(10)))
            .value();
        assert!(
            later > level,
            "{name}: level at elapsed == 0 ({level}) not below a late query ({later})"
        );
    }
}

/// Accruement (Property 1) on a chaos run: after a permanent crash,
/// every zoo member's trace keeps increasing toward the horizon.
#[test]
fn all_zoo_members_satisfy_accruement_after_a_crash() {
    let scenario = Scenario::ideal()
        .with_horizon(Timestamp::from_secs(90))
        .with_crash_at(Timestamp::from_secs(30));
    let report = run_chaos(&scenario, 42);
    let check = AccruementCheck {
        epsilon: 1e-9,
        ..AccruementCheck::STRICT
    };
    for d in &report.detectors {
        let witness = check.run(&d.trace);
        assert!(
            witness.is_ok(),
            "{}: accruement violated after crash: {:?}",
            d.name,
            witness
        );
    }
}

/// Upper Bound (Property 2) on a calm run: with the sender alive the whole
/// horizon, no zoo member's level diverges or goes infinite.
#[test]
fn all_zoo_members_stay_bounded_while_the_sender_lives() {
    let scenario = Scenario::ideal().with_horizon(Timestamp::from_secs(90));
    let report = run_chaos(&scenario, 42);
    for d in &report.detectors {
        let witness = check_upper_bound(&d.trace, None);
        assert!(
            witness.is_ok(),
            "{}: upper bound violated on a calm run: {:?}",
            d.name,
            witness
        );
    }
}

/// Every zoo member that persists a seed round-trips it: save → restore →
/// identical answers on a regular cadence (where the moments-only seed is
/// lossless).
#[test]
fn new_detectors_roundtrip_their_seeds() {
    for zoo in spec::zoo() {
        let (name, mut fd) = (zoo.detector.name(), zoo.detector.build());
        let last = warm(&mut fd, 25);
        let Some(seed) = fd.save_seed() else {
            continue;
        };
        let mut fresh = zoo.detector.build();
        fresh.restore_seed(&seed);
        for late_ms in [0u64, 250, 1000, 4000, 12_000] {
            let q = last.saturating_add(Duration::from_millis(late_ms));
            let a = fd.suspicion_level(q).value();
            let b = fresh.suspicion_level(q).value();
            assert!(
                (a - b).abs() < 1e-9 * a.abs().max(1.0),
                "{name} at +{late_ms}ms: {a} vs restored {b}"
            );
        }
    }
}
