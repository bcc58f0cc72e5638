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

use afd_core::accrual::{AccrualFailureDetector, CurveBlock, LevelCurve};
use afd_core::canonical::{digest_of, CanonicalState};
use afd_core::dist::{ArrivalDistribution, Exponential, Normal};
use afd_core::history::SuspicionTrace;
use afd_core::properties::{check_upper_bound, AccruementCheck};
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::adaptive::AdaptiveAccrual;
use afd_detectors::akka::AkkaPhi;
use afd_detectors::bertier::BertierAccrual;
use afd_detectors::chen::{ChenAccrual, ChenConfig};
use afd_detectors::kappa::{KappaAccrual, KappaConfig, PhiContribution, StepContribution};
use afd_detectors::phi::{PhiAccrual, PhiConfig, PhiModel};
use afd_detectors::simple::SimpleAccrual;
use afd_detectors::spec::{self, AnyDetector, DetectorSpec};
use afd_runtime::replay::replay;
use afd_sim::replay::ReplayConfig;
use afd_sim::scenario::Scenario;
use afd_sim::simulate;
use proptest::prelude::*;

/// Every detector the E-series compares, built from the catalogue.
fn all_detectors() -> Vec<(&'static str, AnyDetector)> {
    spec::series()
        .iter()
        .map(|spec| (spec.name(), spec.build()))
        .collect()
}

/// Simulates `scenario` and replays it through the shipping monitor with
/// a detector built from `spec`.
fn run_trace(scenario: &Scenario, seed: u64, spec: DetectorSpec) -> SuspicionTrace {
    replay(
        &simulate(scenario, seed),
        move |_| spec.build(),
        ReplayConfig::every(Duration::from_millis(200)).with_clock(scenario.monitor_clock),
    )
    .levels
}

#[test]
fn accruement_holds_after_crash_for_every_detector() {
    let scenario = Scenario::wan_jitter()
        .with_horizon(Timestamp::from_secs(300))
        .with_crash_at(Timestamp::from_secs(120));
    for seed in [1, 2, 3] {
        for spec in spec::series() {
            let name = spec.name();
            let trace = run_trace(&scenario, seed, spec);
            // Only judge the post-crash suffix plus some margin.
            let check = AccruementCheck::STRICT;
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
        for spec in spec::series() {
            let name = spec.name();
            let trace = run_trace(&scenario, seed, spec);
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
    for spec in spec::series() {
        let name = spec.name();
        let mut bounds = Vec::new();
        for horizon in [300u64, 600] {
            let scenario = Scenario::wan_jitter().with_horizon(Timestamp::from_secs(horizon));
            let trace = run_trace(&scenario, 7, spec);
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
    for spec in spec::series() {
        let name = spec.name();
        let trace = run_trace(&scenario, 11, spec);
        let check = AccruementCheck::STRICT;
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
    for spec in spec::series() {
        let name = spec.name();
        let trace = run_trace(&crash, 3, spec);
        let check = AccruementCheck {
            min_suffix_fraction: 0.15,
            ..AccruementCheck::STRICT
        };
        check
            .run(&trace)
            .unwrap_or_else(|e| panic!("{name} violates Accruement (partial synchrony): {e}"));
    }
    for spec in spec::series() {
        let name = spec.name();
        let trace = run_trace(&healthy, 3, spec);
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
    for spec in spec::series() {
        let name = spec.name();
        let healthy_max = check_upper_bound(&run_trace(&healthy, 5, spec), None)
            .unwrap()
            .observed_bound;
        let crash_trace = run_trace(&crashed, 5, spec);
        let crash_max = crash_trace.max_level().unwrap();
        assert!(
            crash_max > healthy_max,
            "{name}: crash max {crash_max} not above healthy max {healthy_max}"
        );
    }
}

/// Feeds two detectors from `build` the same jittered arrivals, running
/// the monitor's warm reads — `save_seed` and `prefetch` — on one of them
/// before every arrival (long enough that a four-sample window wraps
/// several times), and holds the two to the same state.
fn warm_reads_change_nothing<D>(name: &str, build: impl Fn() -> D)
where
    D: AccrualFailureDetector + CanonicalState,
{
    let mut warmed = build();
    let mut plain = build();
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
    // Every catalogued detector with a four-sample window, both as itself
    // and behind `AnyDetector`, whose forwarding must change nothing.
    let zoo = spec::zoo().map(|zoo| zoo.detector);
    for spec in zoo.into_iter().chain(spec::series()) {
        let small = spec.model_sized(Duration::from_secs(1)).unwrap();
        warm_reads_change_nothing(spec.name(), || unwrapped(small.build()));
        warm_reads_change_nothing(spec.name(), || small.build());
    }
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

// ---- curve conformance ----
//
// A curve-bearing detector *defines* its level as its curve's, so holding
// the two to each other would hold nothing. The references below are the
// formulas each detector's `suspicion_level` spelled out before there was a
// `LevelCurve` — elapsed time, lateness past `EA`, `−log₁₀` of the model's
// tail through `ArrivalDistribution::log10_sf` — built from public accessors
// only: the curve must land on their bits.

/// What `SuspicionLevel::clamped` stores.
fn clamped(level: f64) -> f64 {
    SuspicionLevel::clamped(level).value()
}

fn elapsed(now: Timestamp, since: Timestamp) -> f64 {
    now.saturating_duration_since(since).as_secs_f64()
}

/// φ from a distribution's log-tail, as the detector wrote it.
fn phi_of_tail(fd: &PhiAccrual, now: Timestamp, log10_sf: impl Fn(f64) -> f64) -> f64 {
    let Some(last) = fd.last_heartbeat() else {
        return 0.0;
    };
    let elapsed = elapsed(now, last);
    if elapsed <= 0.0 {
        return 0.0;
    }
    clamped((-log10_sf(elapsed)).max(0.0))
}

fn phi_normal_reference(fd: &PhiAccrual, now: Timestamp) -> f64 {
    let tail = Normal::new(fd.mean_interval(), fd.std_dev()).unwrap();
    phi_of_tail(fd, now, |x| tail.log10_sf(x))
}

fn phi_exponential_reference(fd: &PhiAccrual, now: Timestamp) -> f64 {
    let tail = Exponential::from_mean(fd.mean_interval()).unwrap();
    phi_of_tail(fd, now, |x| tail.log10_sf(x))
}

fn phi(model: PhiModel) -> PhiAccrual {
    PhiAccrual::new(PhiConfig {
        model,
        window_size: 16,
        ..PhiConfig::default()
    })
    .unwrap()
}

const EMPIRICAL: PhiModel = PhiModel::Empirical {
    bins: 32,
    max_intervals: 8.0,
};

/// Query times around the last arrival `last` of a peer whose gaps have
/// mean `mean` and deviation `std`: the arrival instant and just past it,
/// the live range `u ∈ [−6, 0.5)` of the normal tail end to end, the tail
/// regime past `0.5` that a block hands back to the scalar path, and so
/// far out that φ passes 300 — plus `at`, wherever that falls.
fn probes(last: Timestamp, mean: f64, std: f64, at: f64) -> Vec<Timestamp> {
    let sigmas = [-9.0, -8.4, -6.0, -2.5, -0.1, 0.0, 0.6, 0.8, 3.0, 12.0, 45.0];
    let mut offsets = vec![0.0, 1e-9, at, 1e4];
    offsets.extend(sigmas.iter().map(|k| (mean + k * std).max(0.0)));
    offsets
        .iter()
        .map(|&late| last.saturating_add(Duration::from_secs_f64(late)))
        .collect()
}

fn assert_curve_is_the_level(
    name: &str,
    detector: &mut dyn AccrualFailureDetector,
    now: Timestamp,
    reference: f64,
) -> LevelCurve {
    let curve = detector
        .level_curve()
        .unwrap_or_else(|| panic!("{name}: no curve"));
    let at = curve.at(now);
    assert_eq!(at.to_bits(), reference.to_bits(), "{name} at {now}: curve");
    let level = detector.suspicion_level(now).value();
    assert_eq!(level.to_bits(), at.to_bits(), "{name} at {now}: level");
    assert_eq!(
        detector.level_curve(),
        Some(curve),
        "{name}: a query moved it"
    );
    curve
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `level_curve()` is `Some` exactly where the level is zero, linear or
    /// a normal tail, and there `at(now)` is the level the detector always
    /// gave, bit for bit — before the first heartbeat, at the arrival
    /// instant, across the live range, in the tail regime and past φ = 300
    /// — and `at_block` is `at`, lane for lane, for mixed kinds and
    /// zero-curve padding, as is the block kernel fed each lane's elapsed
    /// seconds, the way a monitor's curve column feeds it.
    #[test]
    fn level_curve_is_the_level_bit_for_bit(
        gaps in prop::collection::vec(0.01..3.0f64, 0..40),
        at in 0.0..20.0f64,
    ) {
        let start = Timestamp::from_secs(3);
        let mut simple = SimpleAccrual::new(start);
        let mut chen = ChenAccrual::new(ChenConfig { window_size: 16, ..ChenConfig::default() }).unwrap();
        let mut bertier = BertierAccrual::with_defaults();
        let mut normal = phi(PhiModel::Normal);
        let mut exponential = phi(PhiModel::Exponential);
        let mut empirical = phi(EMPIRICAL);
        // Every catalogued detector behind `AnyDetector`, beside itself.
        let zoo = spec::zoo().map(|zoo| zoo.detector);
        let mut twins: Vec<_> = zoo
            .into_iter()
            .chain(spec::series())
            .map(|spec| (spec, spec.build(), unwrapped(spec.build())))
            .collect();
        let mut t = start;
        for (k, gap) in gaps.iter().enumerate() {
            // The first arrival opens the history; each later one adds a gap.
            if k > 0 {
                t = t.saturating_add(Duration::from_secs_f64(*gap));
            }
            simple.record_heartbeat(t);
            chen.record_heartbeat(t);
            bertier.record_heartbeat(t);
            normal.record_heartbeat(t);
            exponential.record_heartbeat(t);
            empirical.record_heartbeat(t);
            for (_, any, inner) in &mut twins {
                any.record_heartbeat(t);
                inner.record_heartbeat(t);
            }
        }
        for (spec, any, inner) in &twins {
            let seed = inner.save_seed();
            prop_assert_eq!(any.save_seed(), seed, "{}: seed", spec.name());
            // A restore reaches the detector inside, too.
            if let Some(seed) = seed {
                let (mut any, mut inner) = (spec.build(), unwrapped(spec.build()));
                any.restore_seed(&seed);
                inner.restore_seed(&seed);
                prop_assert_eq!(any.save_seed(), inner.save_seed(), "{}: restore", spec.name());
            }
        }
        // Five samples is the default bootstrap count: below it the
        // empirical model answers from its normal prior, from there on
        // from a histogram, which is no curve.
        let bootstrapping = empirical.samples() < 5;
        prop_assert_eq!(empirical.level_curve().is_some(), bootstrapping);
        if gaps.is_empty() {
            prop_assert_eq!(chen.level_curve(), Some(LevelCurve::Zero));
            prop_assert_eq!(bertier.level_curve(), Some(LevelCurve::Zero));
            prop_assert_eq!(normal.level_curve(), Some(LevelCurve::Zero));
            prop_assert_eq!(exponential.level_curve(), Some(LevelCurve::Zero));
            prop_assert_eq!(empirical.level_curve(), Some(LevelCurve::Zero));
        }

        for now in probes(t, normal.mean_interval(), normal.std_dev(), at) {
            let mut block = [LevelCurve::Zero; LevelCurve::BLOCK];
            let want = clamped(elapsed(now, simple.last_heartbeat()));
            block[0] = assert_curve_is_the_level("simple", &mut simple, now, want);
            let lateness = chen.expected_arrival().map_or(0.0, |ea| elapsed(now, ea));
            block[2] = assert_curve_is_the_level("chen", &mut chen, now, clamped(lateness));
            // Bertier's level as its detector wrote it before it had a curve.
            let deadline = bertier.expected_arrival().map(|ea| ea + Duration::from_secs_f64(bertier.margin()));
            let lateness = deadline.map_or(0.0, |deadline| elapsed(now, deadline));
            block[1] = assert_curve_is_the_level("bertier", &mut bertier, now, clamped(lateness));
            let want = phi_normal_reference(&normal, now);
            block[3] = assert_curve_is_the_level("phi-normal", &mut normal, now, want);
            let want = phi_exponential_reference(&exponential, now);
            block[5] = assert_curve_is_the_level("phi-exponential", &mut exponential, now, want);
            if bootstrapping {
                let want = phi_normal_reference(&empirical, now);
                block[6] = assert_curve_is_the_level("phi-empirical", &mut empirical, now, want);
            }
            for (spec, any, inner) in &mut twins {
                let name = spec.name();
                let curve = any.level_curve();
                prop_assert_eq!(curve, inner.level_curve(), "{} at {}: curve", name, now);
                let level = any.suspicion_level(now).value();
                let want = inner.suspicion_level(now).value();
                prop_assert_eq!(level.to_bits(), want.to_bits(), "{} at {}: level", name, now);
                if let Some(curve) = curve {
                    prop_assert_eq!(curve.at(now).to_bits(), level.to_bits(), "{} at {}", name, now);
                }
            }
            // Lanes 4 and 7 stay the padding a short block gets.
            let levels = LevelCurve::at_block(&block, now);
            for (lane, (curve, level)) in block.iter().zip(levels).enumerate() {
                prop_assert_eq!(level.to_bits(), curve.at(now).to_bits(), "lane {} at {}", lane, now);
            }
            let (mut fields, mut aged) = (CurveBlock::default(), [0.0; LevelCurve::BLOCK]);
            for (lane, curve) in block.iter().enumerate() {
                if let Some(origin) = fields.set(lane, curve) {
                    aged[lane] = LevelCurve::elapsed(now, origin);
                }
            }
            for (lane, (curve, level)) in block.iter().zip(fields.levels(&aged)).enumerate() {
                prop_assert_eq!(level.to_bits(), curve.at(now).to_bits(), "kernel lane {} at {}", lane, now);
            }
            // Past φ = 300 the normal tail is long past `erfc`'s underflow.
            if elapsed(now, t) >= normal.mean_interval() + 45.0 * normal.std_dev() && !gaps.is_empty() {
                prop_assert!(block[3].at(now) > 300.0, "φ = {}", block[3].at(now));
            }
        }
    }
}

/// A detector whose state the tests can digest.
trait Inspectable: AccrualFailureDetector + CanonicalState {}

impl<D: AccrualFailureDetector + CanonicalState> Inspectable for D {}

/// The detector inside `any`, boxed, so that its calls skip
/// `AnyDetector`'s forwarding.
fn unwrapped(any: AnyDetector) -> Box<dyn Inspectable> {
    match any {
        AnyDetector::Simple(d) => Box::new(d),
        AnyDetector::Chen(d) => Box::new(d),
        AnyDetector::Bertier(d) => Box::new(d),
        AnyDetector::Phi(d) => Box::new(d),
        AnyDetector::Akka(d) => Box::new(d),
        AnyDetector::Adaptive(d) => Box::new(d),
        AnyDetector::KappaPhi(d) => Box::new(d),
        AnyDetector::KappaStep(d) => Box::new(d),
    }
}

/// `level_curve` as a monitor generic over its detector type calls it: on
/// `T` itself, so that a `&mut D` or a `Box<dyn _>` goes through the
/// blanket impl for that type rather than auto-dereferencing past it.
fn curve_through<T: AccrualFailureDetector>(detector: T) -> Option<LevelCurve> {
    detector.level_curve()
}

#[test]
fn detectors_without_a_closed_form_have_no_curve() {
    // κ sums contributions of missed heartbeats, the adaptive detector's
    // level is a histogram fraction, Akka's φ is a logistic approximation:
    // none is zero, linear or a normal tail — fed or not, held directly,
    // borrowed or boxed.
    fn assert_none<D: AccrualFailureDetector + 'static>(name: &str, mut detector: D) {
        assert_eq!(detector.level_curve(), None, "{name}: fresh");
        for s in 1..=12 {
            detector.record_heartbeat(Timestamp::from_secs(s));
        }
        assert_eq!(detector.level_curve(), None, "{name}");
        assert_eq!(curve_through(&mut detector), None, "{name} through &mut");
        let boxed: Box<dyn AccrualFailureDetector> = Box::new(detector);
        assert_eq!(curve_through(boxed), None, "{name} through Box<dyn>");
    }
    assert_none(
        "kappa-phi",
        KappaAccrual::new(KappaConfig::default(), PhiContribution).unwrap(),
    );
    assert_none(
        "kappa-step",
        KappaAccrual::new(KappaConfig::default(), StepContribution::new(0.5)).unwrap(),
    );
    assert_none("adaptive", AdaptiveAccrual::with_defaults());
    assert_none("akka", AkkaPhi::with_defaults());
}

#[test]
fn a_curve_survives_indirection() {
    // The blanket impls forward `level_curve`: a boxed or borrowed φ that
    // answered with the `None` default would send a monitor back to
    // walking it.
    let mut fd = PhiAccrual::with_defaults();
    for s in 1..=12 {
        fd.record_heartbeat(Timestamp::from_secs(s));
    }
    let curve = fd.level_curve();
    assert!(matches!(curve, Some(LevelCurve::NormalTail { .. })));
    let borrowed: &mut dyn AccrualFailureDetector = &mut fd;
    assert_eq!(curve_through(borrowed), curve);
    let boxed: Box<dyn AccrualFailureDetector> = Box::new(fd);
    assert_eq!(curve_through(boxed), curve);
}
