//! Property-based tests for the simulator: determinism, model fidelity,
//! and structural invariants of generated traces.

use afd_core::time::{Duration, Timestamp};
use afd_sim::clock::DriftingClock;
use afd_sim::delay::{ConstantDelay, NormalDelay};
use afd_sim::loss::BernoulliLoss;
use afd_sim::scenario::{DelayKind, LossKind, Scenario};
use afd_sim::simulate;
use proptest::prelude::*;

fn scenario(
    interval_ms: u64,
    delay_ms: u64,
    jitter_ms: u64,
    loss: f64,
    horizon_s: u64,
) -> Scenario {
    let delay = if jitter_ms == 0 {
        DelayKind::Constant(ConstantDelay::new(Duration::from_millis(delay_ms)))
    } else {
        DelayKind::Normal(NormalDelay::new(
            Duration::from_millis(delay_ms.max(jitter_ms)),
            Duration::from_millis(jitter_ms),
            Duration::from_millis(1),
        ))
    };
    Scenario {
        heartbeat_interval: Duration::from_millis(interval_ms),
        send_jitter_std: Duration::ZERO,
        delay,
        loss: LossKind::Bernoulli(BernoulliLoss::new(loss)),
        ..Scenario::lan()
    }
    .with_horizon(Timestamp::from_secs(horizon_s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identical (scenario, seed) pairs always produce identical traces;
    /// different seeds produce different ones (for non-trivial runs).
    #[test]
    fn determinism(
        interval in 50u64..2_000,
        jitter in 0u64..50,
        loss in 0.0..0.4f64,
        seed in 0u64..1_000,
    ) {
        let s = scenario(interval, 50, jitter, loss, 60);
        let a = simulate(&s, seed);
        let b = simulate(&s, seed);
        prop_assert_eq!(&a, &b);
    }

    /// Structural invariants: dense ascending sequence numbers, sends
    /// within the horizon, deliveries after sends, monotone send times.
    #[test]
    fn trace_structure(
        interval in 50u64..2_000,
        jitter in 0u64..80,
        loss in 0.0..0.5f64,
        seed in 0u64..500,
        crash in proptest::option::of(5u64..55),
    ) {
        let mut s = scenario(interval, 60, jitter, loss, 60);
        if let Some(c) = crash {
            s = s.with_crash_at(Timestamp::from_secs(c));
        }
        let t = simulate(&s, seed);
        let mut prev_sent = Timestamp::ZERO;
        for (i, r) in t.records().iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64 + 1, "dense sequence numbers");
            prop_assert!(r.sent_at <= t.horizon());
            prop_assert!(r.sent_at >= prev_sent, "monotone sends");
            prev_sent = r.sent_at;
            if let Some(c) = s.crash_at {
                prop_assert!(r.sent_at < c, "no sends after the crash");
            }
            if let Some(d) = r.delivered_at {
                prop_assert!(d >= r.sent_at, "delivery after send");
            }
            prop_assert_eq!(r.delivered_at.is_some(), r.delivered_local.is_some());
        }
    }

    /// The observed loss rate tracks the Bernoulli model within sampling
    /// error on long runs.
    #[test]
    fn loss_rate_fidelity(loss in 0.0..0.5f64, seed in 0u64..100) {
        let s = scenario(100, 10, 0, loss, 600); // ~6000 heartbeats
        let t = simulate(&s, seed);
        let n = t.sent_count() as f64;
        prop_assume!(n > 1_000.0);
        // Binomial-proportion band. Proptest samples hundreds of
        // (loss, seed) points per run, so the bound must survive the
        // multiple-comparison effect: 6σ makes a false failure vanishingly
        // rare while still catching any real model bias.
        let sigma = (loss * (1.0 - loss) / n).sqrt();
        prop_assert!(
            (t.loss_rate() - loss).abs() <= 6.0 * sigma + 1e-9,
            "loss {} vs model {} (σ = {})",
            t.loss_rate(),
            loss,
            sigma
        );
    }

    /// Mean inter-arrival time tracks the heartbeat interval on lossless
    /// constant-delay runs.
    #[test]
    fn cadence_fidelity(interval in 100u64..1_000, seed in 0u64..100) {
        let s = scenario(interval, 20, 0, 0.0, 120);
        let t = simulate(&s, seed);
        let gaps = t.inter_arrival_seconds();
        prop_assume!(gaps.len() > 10);
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        prop_assert!(
            (mean - interval as f64 / 1_000.0).abs() < 1e-6,
            "mean gap {mean} vs interval {interval} ms"
        );
    }

    /// CSV round-trips are lossless for arbitrary simulated traces.
    #[test]
    fn csv_roundtrip(
        loss in 0.0..0.5f64,
        jitter in 0u64..80,
        seed in 0u64..200,
        crash in proptest::option::of(5u64..55),
    ) {
        let mut s = scenario(250, 40, jitter, loss, 60);
        if let Some(c) = crash {
            s = s.with_crash_at(Timestamp::from_secs(c));
        }
        let t = simulate(&s, seed);
        let mut buf = Vec::new();
        afd_sim::write_csv(&t, &mut buf).unwrap();
        let restored = afd_sim::read_csv(buf.as_slice()).unwrap();
        prop_assert_eq!(restored, t);
    }
}

/// One digest of every record of `scenario`'s traces at seeds 0–3:
/// sequence number, send time and both delivery times.
fn digest(scenario: &Scenario) -> u128 {
    let mut d = afd_core::canonical::StateDigest::new();
    for seed in 0..4 {
        let trace = simulate(scenario, seed);
        d.push_usize(trace.sent_count());
        for r in trace.records() {
            d.push_u64(r.seq);
            d.push_u64(r.sent_at.as_nanos());
            d.push_opt_u64(r.delivered_at.map(Timestamp::as_nanos));
            d.push_opt_u64(r.delivered_local.map(Timestamp::as_nanos));
        }
    }
    d.finish()
}

#[test]
fn simulate_traces_are_pinned() {
    // Every link event at once: two overlapping outages (a send moved to
    // the first one's end lands in the second), a partition, a crash and a
    // drifting monitor clock, over a jittery, lossy WAN.
    let events = Scenario {
        monitor_clock: DriftingClock::new(Duration::from_millis(250), 1.0002),
        ..Scenario::wan_jitter()
    }
    .with_horizon(Timestamp::from_secs(120))
    .with_outage(Timestamp::from_secs(30), Timestamp::from_secs_f64(37.5))
    .with_outage(
        Timestamp::from_secs_f64(37.2),
        Timestamp::from_secs_f64(41.3),
    )
    .with_partition(Timestamp::from_secs(50), Timestamp::from_secs(60))
    .with_crash_at(Timestamp::from_secs(100));
    let pins: [(&str, Scenario, u128); 6] = [
        (
            "ideal",
            Scenario::ideal(),
            0x6fd5_10ce_121f_af09_e76e_a19b_5969_5a38,
        ),
        (
            "lan",
            Scenario::lan(),
            0xeaf4_45af_f875_a801_dc40_2f91_f8ef_1464,
        ),
        (
            "wan_jitter",
            Scenario::wan_jitter(),
            0x811e_369e_4894_b0ce_d7c1_416f_0d5e_a8c7,
        ),
        (
            "bursty_loss",
            Scenario::bursty_loss(),
            0xd815_5b0a_53ba_fd3c_2e30_6ec8_3260_1f2b,
        ),
        (
            "partially_synchronous",
            Scenario::partially_synchronous(),
            0x4aec_b59e_963c_f4e1_f29f_495b_86ab_cafa,
        ),
        (
            "link events",
            events,
            0x0573_01f3_ac04_106f_bd9a_3d2d_7773_0e36,
        ),
    ];
    for (name, scenario, pin) in pins {
        assert_eq!(digest(&scenario), pin, "{name}");
    }
}
