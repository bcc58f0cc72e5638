//! Property-based tests for the core formalism.
//!
//! These check the algebraic invariants the paper's constructions rely on:
//! quantization onto the ε-grid, statistical accumulators, distribution
//! tails, and — most importantly — the containment property of Theorem 1
//! and the stabilization behaviour of Algorithm 1 on arbitrary inputs.

#![allow(
    clippy::float_cmp,
    reason = "exact float equality is intentional in test assertions"
)]

use afd_core::binary::{Status, TransitionDetector};
use afd_core::dist::{ArrivalDistribution, Erlang, Exponential, Normal};
use afd_core::history::SuspicionTrace;
use afd_core::stats::{quantile, RunningMoments, SlidingWindow};
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;
use afd_core::transform::{
    AccrualToBinary, HysteresisInterpreter, Interpreter, ThresholdInterpreter,
};
use proptest::prelude::*;

fn sl(v: f64) -> SuspicionLevel {
    SuspicionLevel::new(v).unwrap()
}

prop_compose! {
    /// Arbitrary non-negative, finite suspicion values.
    fn level()(v in 0.0..1e6f64) -> f64 { v }
}

proptest! {
    #[test]
    fn quantize_lands_on_grid_and_is_idempotent(
        v in 0.0..1e9f64,
        eps in prop::sample::select(vec![0.001, 0.01, 0.5, 1.0, 7.25]),
    ) {
        let q = sl(v).quantize(eps);
        // On the grid: distance to nearest multiple is ~0 relative to value.
        let steps = (q.value() / eps).round();
        prop_assert!((q.value() - steps * eps).abs() <= 1e-9 * (1.0 + q.value()));
        // Within half a step of the input.
        prop_assert!((q.value() - v).abs() <= eps / 2.0 + 1e-9 * (1.0 + v));
        // Idempotent.
        prop_assert_eq!(q.quantize(eps), q);
    }

    #[test]
    fn suspicion_order_is_total_and_consistent(a in level(), b in level()) {
        let (x, y) = (sl(a), sl(b));
        prop_assert_eq!(x < y, a < b);
        prop_assert_eq!(x.max(y).value(), a.max(b));
        prop_assert_eq!(x.min(y).value(), a.min(b));
    }

    #[test]
    fn running_moments_match_direct_computation(values in prop::collection::vec(-1e6..1e6f64, 1..200)) {
        let m: RunningMoments = values.iter().copied().collect();
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let scale = 1.0 + mean.abs();
        prop_assert!((m.mean() - mean).abs() < 1e-6 * scale);
        prop_assert!((m.population_variance() - var).abs() < 1e-4 * (1.0 + var));
    }

    #[test]
    fn moments_removal_round_trips(
        keep in prop::collection::vec(-1e3..1e3f64, 1..50),
        removed in prop::collection::vec(-1e3..1e3f64, 1..50),
    ) {
        let mut m: RunningMoments = keep.iter().chain(removed.iter()).copied().collect();
        for v in &removed {
            m.remove(*v);
        }
        let expect: RunningMoments = keep.iter().copied().collect();
        prop_assert!((m.mean() - expect.mean()).abs() < 1e-6);
        prop_assert!((m.population_variance() - expect.population_variance()).abs() < 1e-5);
        prop_assert_eq!(m.count(), expect.count());
    }

    #[test]
    fn sliding_window_moments_track_content(
        values in prop::collection::vec(-1e3..1e3f64, 1..300),
        cap in 1usize..64,
    ) {
        let mut w = SlidingWindow::new(cap);
        for &v in &values {
            w.push(v);
        }
        let direct: RunningMoments = w.iter().collect();
        prop_assert_eq!(w.len(), values.len().min(cap));
        prop_assert!((w.mean() - direct.mean()).abs() < 1e-6);
        prop_assert!((w.population_variance() - direct.population_variance()).abs() < 1e-5);
        // Content is the suffix of the pushed values.
        let expect: Vec<f64> = values[values.len().saturating_sub(cap)..].to_vec();
        prop_assert_eq!(w.to_vec(), expect);
    }

    #[test]
    fn quantile_is_bounded_by_extremes(
        values in prop::collection::vec(-1e6..1e6f64, 1..100),
        q in 0.0..=1.0f64,
    ) {
        let qv = quantile(&values, q).unwrap();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(qv >= min - 1e-9 && qv <= max + 1e-9);
    }

    #[test]
    fn normal_tail_is_a_survival_function(
        mean in -10.0..10.0f64,
        std in 0.01..10.0f64,
        x1 in -50.0..50.0f64,
        dx in 0.0..50.0f64,
    ) {
        let n = Normal::new(mean, std).unwrap();
        let s1 = n.sf(x1);
        let s2 = n.sf(x1 + dx);
        prop_assert!((0.0..=1.0).contains(&s1));
        prop_assert!(s2 <= s1 + 1e-12, "sf must be non-increasing");
        prop_assert!((n.sf(x1) + n.cdf(x1) - 1.0).abs() < 1e-10);
        // log tail consistent where representable.
        if s1 > 1e-290 {
            prop_assert!((n.log10_sf(x1) - s1.log10()).abs() < 1e-6);
        }
    }

    #[test]
    fn exponential_and_erlang_tails_behave(
        rate in 0.01..100.0f64,
        shape in 1u32..8,
        x in 0.0..1e3f64,
    ) {
        let e = Exponential::new(rate).unwrap();
        prop_assert!((e.sf(x) - (-rate * x).exp()).abs() < 1e-12);
        let g = Erlang::new(shape, rate).unwrap();
        let s = g.sf(x);
        prop_assert!((0.0..=1.0).contains(&s));
        // Erlang with larger shape has heavier tail at the same rate.
        if shape > 1 {
            prop_assert!(g.sf(x) >= e.sf(x) - 1e-12);
        }
    }

    /// Theorem 1: with T1 ≤ T2 over the same level stream, D_{T2} suspects
    /// only if D_{T1} suspects — for the plain interpreters, and for the
    /// hysteresis interpreters sharing the low threshold T0.
    #[test]
    fn theorem_1_containment(
        levels in prop::collection::vec(0.0..10.0f64, 1..200),
        t1 in 0.5..5.0f64,
        dt in 0.0..5.0f64,
        t0 in 0.0..0.4f64,
    ) {
        let t2 = t1 + dt;
        let mut d1 = ThresholdInterpreter::new(sl(t1));
        let mut d2 = ThresholdInterpreter::new(sl(t2));
        let mut h1 = HysteresisInterpreter::new(sl(t1), sl(t0));
        let mut h2 = HysteresisInterpreter::new(sl(t2), sl(t0));
        for (k, &v) in levels.iter().enumerate() {
            let at = Timestamp::from_millis(k as u64);
            let s1 = d1.observe(at, sl(v));
            let s2 = d2.observe(at, sl(v));
            prop_assert!(!s2.is_suspected() || s1.is_suspected(),
                "plain containment violated at query {k}");
            let hs1 = h1.observe(at, sl(v));
            let hs2 = h2.observe(at, sl(v));
            prop_assert!(!hs2.is_suspected() || hs1.is_suspected(),
                "hysteresis containment violated at query {k}");
        }
    }

    /// Theorem 4: with a shared T0, whenever D'_{T2} has a T-transition,
    /// D'_{T1} has one at the same query (both end up trusted).
    #[test]
    fn theorem_4_shared_trust_transitions(
        levels in prop::collection::vec(0.0..10.0f64, 1..200),
        t1 in 0.5..5.0f64,
        dt in 0.0..5.0f64,
    ) {
        let t0 = 0.25;
        let t2 = t1 + dt;
        let mut h1 = HysteresisInterpreter::new(sl(t1), sl(t0));
        let mut h2 = HysteresisInterpreter::new(sl(t2), sl(t0));
        let mut td1 = TransitionDetector::new();
        let mut td2 = TransitionDetector::new();
        for (k, &v) in levels.iter().enumerate() {
            let at = Timestamp::from_millis(k as u64);
            let e1 = td1.observe(h1.observe(at, sl(v)));
            let e2 = td2.observe(h2.observe(at, sl(v)));
            if e2 == Some(afd_core::Transition::Trust) {
                // D'_{T1} must also be trusted now (its T-transition happened
                // at this query or earlier).
                prop_assert!(td1.current().is_trusted(),
                    "T1 still suspects after T2's T-transition at query {k} ({e1:?})");
            }
        }
    }

    /// Algorithm 1 on an eventually-monotone input with bounded plateaus:
    /// the output eventually suspects permanently.
    #[test]
    fn algorithm_1_completes_on_accruing_input(
        noise in prop::collection::vec(0.0..5.0f64, 0..30),
        plateau in 1usize..5,
        eps_steps in 1u32..4,
    ) {
        let eps = 1.0;
        let mut alg = AccrualToBinary::new(eps);
        let t = Timestamp::ZERO;
        // Noisy prefix.
        for &v in &noise {
            let _ = alg.observe(t, sl(v));
        }
        // Accruing phase: rise by eps_steps·ε every `plateau` queries. Run
        // long enough for L_trust to out-grow the plateau length.
        let mut last = Status::Trusted;
        let mut value = 10.0;
        let rounds = 200 * (plateau + noise.len());
        let mut suspected_since: Option<usize> = None;
        for k in 0..rounds {
            if k % plateau == 0 {
                value += eps * eps_steps as f64;
            }
            last = alg.observe(t, sl(value));
            if last.is_suspected() {
                suspected_since.get_or_insert(k);
            } else {
                suspected_since = None;
            }
        }
        prop_assert!(last.is_suspected(), "Algorithm 1 failed to converge to suspicion");
        // Permanence: suspected for a long tail of the run.
        prop_assert!(suspected_since.unwrap() < rounds - plateau * 10);
    }

    /// Algorithm 1 on a bounded oscillating input: S-transitions eventually
    /// cease (eventual strong accuracy side).
    #[test]
    fn algorithm_1_stops_suspecting_bounded_input(
        period in 2usize..12,
        amplitude in 1u32..8,
    ) {
        let mut alg = AccrualToBinary::new(1.0);
        let t = Timestamp::ZERO;
        let rounds = 400 * period * amplitude as usize;
        let mut last_s_query = 0usize;
        let mut prev = Status::Trusted;
        for k in 0..rounds {
            let v = (k % period).min(amplitude as usize) as f64;
            let s = alg.observe(t, sl(v));
            if s.is_suspected() && prev.is_trusted() {
                last_s_query = k;
            }
            prev = s;
        }
        // The final S-transition happens in the first half of the run.
        prop_assert!(last_s_query < rounds / 2,
            "S-transitions kept occurring: last at {last_s_query} of {rounds}");
    }

    /// A SuspicionTrace interpreted through a fixed threshold agrees with
    /// running the interpreter sample by sample.
    #[test]
    fn trace_threshold_agrees_with_interpreter(
        levels in prop::collection::vec(0.0..4.0f64, 1..100),
        thr in 0.5..3.5f64,
    ) {
        let mut trace = SuspicionTrace::new();
        for (k, &v) in levels.iter().enumerate() {
            trace.push(Timestamp::from_millis(k as u64), sl(v));
        }
        let bin = trace.threshold(sl(thr));
        let mut interp = ThresholdInterpreter::new(sl(thr));
        for (s, &v) in bin.iter().zip(levels.iter()) {
            prop_assert_eq!(s.status, interp.observe(s.at, sl(v)));
        }
    }
}
