//! Fault-injection robustness: adversarial network inputs that a
//! production failure detector must shrug off — extreme reordering,
//! duplicate deliveries, total loss, pathological cadences, and
//! degenerate configurations.

// Exact float equality is intentional in test assertions.
#![allow(clippy::float_cmp)]

use accrual_fd::core::accrual::AccrualFailureDetector;
use accrual_fd::core::history::SuspicionTrace;
use accrual_fd::core::properties::{check_upper_bound, AccruementCheck};
use accrual_fd::detectors::kappa::PhiContribution;
use accrual_fd::detectors::kappa_seq::{SeqKappaAccrual, SeqKappaConfig};
use accrual_fd::detectors::spec;
use accrual_fd::prelude::*;
use accrual_fd::runtime::replay::replay;
use accrual_fd::sim::replay::ReplayConfig;
use accrual_fd::sim::rng::SimRng;
use accrual_fd::sim::trace::{ArrivalTrace, HeartbeatRecord};

/// The sequence-numbered κ, which is in no catalogue.
fn kappa_seq() -> SeqKappaAccrual<PhiContribution> {
    SeqKappaAccrual::new(SeqKappaConfig::default(), PhiContribution).unwrap()
}

fn all_detectors() -> Vec<(&'static str, Box<dyn AccrualFailureDetector>)> {
    let series = spec::series().map(|spec| (spec.name(), Box::new(spec.build()) as Box<_>));
    let kappa_seq = ("kappa-seq", Box::new(kappa_seq()) as Box<_>);
    series.into_iter().chain([kappa_seq]).collect()
}

/// Replays `t` through the shipping monitor once per detector of
/// [`all_detectors`].
fn replay_all(t: &ArrivalTrace, config: ReplayConfig) -> Vec<(&'static str, SuspicionTrace)> {
    let series =
        spec::series().map(|spec| (spec.name(), replay(t, move |_| spec.build(), config).levels));
    let kappa_seq = ("kappa-seq", replay(t, |_| kappa_seq(), config).levels);
    series.into_iter().chain([kappa_seq]).collect()
}

/// Builds a hand-crafted trace from (seq, sent, delivered) tuples.
fn trace(records: Vec<(u64, f64, Option<f64>)>, horizon: f64) -> ArrivalTrace {
    let records = records
        .into_iter()
        .map(|(seq, sent, delivered)| HeartbeatRecord {
            seq,
            sent_at: Timestamp::from_secs_f64(sent),
            delivered_at: delivered.map(Timestamp::from_secs_f64),
            delivered_local: delivered.map(Timestamp::from_secs_f64),
        })
        .collect();
    ArrivalTrace::new(
        records,
        None,
        Timestamp::from_secs_f64(horizon),
        Duration::from_secs(1),
    )
}

#[test]
fn heavy_reordering_never_rewinds_detectors() {
    // Heartbeats delivered in near-reverse order within a 5 s jumble: the
    // monitor's freshness filter must keep every detector's view monotone,
    // and levels must stay finite and small while deliveries keep coming.
    let mut records = Vec::new();
    for k in 1..=60u64 {
        // Sent at k, delivered at k + jitter where jitter is adversarial:
        // every 5th heartbeat is delayed by 4.5 s (overtaken by 4 others).
        let delay = if k % 5 == 0 { 4.5 } else { 0.1 };
        records.push((k, k as f64, Some(k as f64 + delay)));
    }
    let t = trace(records, 70.0);
    for (name, levels) in replay_all(&t, ReplayConfig::every(Duration::from_millis(500))) {
        let bound = check_upper_bound(&levels, None).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            bound.observed_bound.value() < 30.0,
            "{name}: reordering inflated the level to {}",
            bound.observed_bound
        );
    }
}

#[test]
fn total_blackout_accrues_for_every_detector() {
    // Healthy for 60 heartbeats, then NOTHING (but no crash marker): the
    // level must accrue anyway — detectors cannot tell blackout from
    // crash, and must not wedge.
    let mut records: Vec<(u64, f64, Option<f64>)> = (1..=60)
        .map(|k| (k, k as f64, Some(k as f64 + 0.05)))
        .collect();
    for k in 61..=180u64 {
        records.push((k, k as f64, None));
    }
    let t = trace(records, 180.0);
    let check = AccruementCheck::STRICT;
    for (name, levels) in replay_all(&t, ReplayConfig::every(Duration::from_millis(500))) {
        check
            .run(&levels)
            .unwrap_or_else(|e| panic!("{name} wedged during blackout: {e}"));
    }
}

#[test]
fn zero_gap_heartbeat_storm_is_survived() {
    // 1000 heartbeats delivered at the SAME instant (a queue flush), then
    // normal cadence: estimators must not divide by zero or panic, and
    // must recover a sane level afterwards.
    let mut records: Vec<(u64, f64, Option<f64>)> =
        (1..=1000).map(|k| (k, 1.0, Some(10.0))).collect();
    for k in 1001..=1060u64 {
        let at = 10.0 + (k - 1000) as f64;
        records.push((k, at, Some(at)));
    }
    let t = trace(records, 75.0);
    for (name, levels) in replay_all(&t, ReplayConfig::every(Duration::from_millis(500))) {
        for s in levels.iter() {
            assert!(
                !s.level.is_infinite(),
                "{name}: infinite level after zero-gap storm at {}",
                s.at
            );
        }
    }
}

#[test]
fn duplicate_and_stale_sequence_numbers_are_ignored() {
    // The seq-κ detector receives duplicates and decades-old numbers.
    let mut fd = SeqKappaAccrual::new(SeqKappaConfig::default(), PhiContribution).unwrap();
    for k in 1..=50u64 {
        fd.record_heartbeat_with_seq(k, Timestamp::from_secs(k));
    }
    let baseline = fd.kappa(Timestamp::from_secs_f64(50.5));
    // Replays of old heartbeats must not change anything.
    for k in 1..=50u64 {
        fd.record_heartbeat_with_seq(k, Timestamp::from_secs(50));
    }
    let after = fd.kappa(Timestamp::from_secs_f64(50.5));
    assert_eq!(baseline, after);
    assert_eq!(fd.highest_seq(), Some(50));
}

#[test]
fn extreme_cadences_do_not_break_estimators() {
    // 10 kHz heartbeats and 1-per-hour heartbeats: levels stay finite,
    // non-negative, and responsive at both extremes.
    for (gap, probe_mult) in [(1e-4f64, 10.0f64), (3600.0, 1.5)] {
        for (name, mut d) in all_detectors() {
            let mut t = 0.0;
            for _ in 0..200 {
                t += gap;
                d.record_heartbeat(Timestamp::from_secs_f64(t));
            }
            let fresh = d.suspicion_level(Timestamp::from_secs_f64(t + gap * 0.5));
            let late = d.suspicion_level(Timestamp::from_secs_f64(t + gap * probe_mult * 10.0));
            assert!(
                !fresh.is_infinite(),
                "{name} at gap {gap}: fresh level infinite"
            );
            assert!(
                !late.is_infinite(),
                "{name} at gap {gap}: late level infinite"
            );
            assert!(
                late >= fresh,
                "{name} at gap {gap}: level not monotone ({fresh} → {late})"
            );
        }
    }
}

#[test]
fn phi_with_zero_std_floor_survives_constant_cadence() {
    // A zero min_std_dev over a metronome-regular window collapses the
    // variance estimate to exactly zero. φ must stay a finite, monotone
    // accrual — no NaN, no ∞, no divide-by-zero panic — and the trace must
    // still satisfy Accruement once heartbeats stop.
    use accrual_fd::detectors::phi::PhiConfig;

    let fd = PhiAccrual::new(PhiConfig {
        min_std_dev: Duration::ZERO,
        ..PhiConfig::default()
    })
    .expect("zero σ floor is a valid configuration");
    let mut records: Vec<(u64, f64, Option<f64>)> =
        (1..=120).map(|k| (k, k as f64, Some(k as f64))).collect();
    for k in 121..=180u64 {
        records.push((k, k as f64, None)); // blackout tail
    }
    let t = trace(records, 180.0);
    let levels = replay(
        &t,
        move |_| fd.clone(),
        ReplayConfig::every(Duration::from_millis(500)),
    )
    .levels;
    for s in levels.iter() {
        assert!(
            s.level.value().is_finite(),
            "zero-floor φ must stay finite, got {} at {}",
            s.level,
            s.at
        );
        assert!(s.level.value() >= 0.0);
    }
    AccruementCheck::STRICT
        .run(&levels)
        .expect("zero-floor φ must still accrue during the blackout");
}

#[test]
fn random_garbage_traces_never_panic() {
    // Fuzz-ish: random subsets delivered with random delays, in every
    // detector, across many seeds. Nothing may panic; all levels finite
    // while deliveries continue.
    let mut rng = SimRng::seed_from_u64(99);
    for _ in 0..20 {
        let n = 20 + rng.index(100) as u64;
        let mut records = Vec::new();
        for k in 1..=n {
            let delivered = if rng.bernoulli(0.7) {
                Some(k as f64 + rng.uniform_in(0.0, 3.0))
            } else {
                None
            };
            records.push((k, k as f64, delivered));
        }
        let t = trace(records, n as f64 + 10.0);
        let _ = replay_all(&t, ReplayConfig::every(Duration::from_secs(1)));
    }
}
