//! The simulation engine.
//!
//! [`simulate`] runs one monitored pair through a [`Scenario`]: the sender
//! broadcasts sequenced heartbeats on its local schedule, pausing through
//! its outages, until it crashes (Algorithm 4's sender side); the channel
//! delays or drops each message on its own, and loses every one sent
//! during a partition. The sender emits one heartbeat at a time and each
//! one's fate is drawn when it is sent, so the run is one loop over the
//! sends; every delivery is recorded with both global and monitor-local
//! timestamps. The output [`ArrivalTrace`] is the complete arrival
//! process; feeding it to detectors is the job of `afd_runtime::replay`,
//! which runs it through the shipping monitor.
//!
//! Separating *arrival generation* from *detector evaluation* mirrors how
//! the φ paper evaluates detectors on recorded traces, and guarantees every
//! detector/threshold in a comparison sees exactly the same network sample.

use afd_core::time::{Duration, Timestamp};

use crate::channel::Channel;
use crate::rng::SimRng;
use crate::scenario::Scenario;
use crate::trace::{ArrivalTrace, HeartbeatRecord};

/// Runs `scenario` with the given `seed`, producing the heartbeat arrival
/// trace observed by the monitor.
///
/// Deterministic: the same `(scenario, seed)` always yields the same trace.
///
/// # Panics
///
/// Panics if the scenario's heartbeat interval is zero.
pub fn simulate(scenario: &Scenario, seed: u64) -> ArrivalTrace {
    assert!(
        !scenario.heartbeat_interval.is_zero(),
        "heartbeat interval must be positive"
    );

    // Independent random streams so that e.g. adding send jitter does not
    // perturb the channel's loss pattern.
    let mut send_rng = SimRng::derive(seed, 1);
    let mut net_rng = SimRng::derive(seed, 2);

    let mut channel = Channel::new(scenario.delay, scenario.loss);
    if let Some(ps) = scenario.partial_synchrony {
        channel = channel.with_partial_synchrony(ps);
    }

    // The nominal interval is defined on the sender's clock; convert to the
    // global spacing the rest of the system observes.
    let global_interval = scenario
        .sender_clock
        .to_global_duration(scenario.heartbeat_interval);

    let mut records: Vec<HeartbeatRecord> = Vec::new();
    // First heartbeat goes out after one interval (plus jitter). Sends stop
    // at the horizon or at the crash; a heartbeat in flight then still
    // arrives, so it counts as delivered, not lost.
    let mut now = jittered(Timestamp::ZERO + global_interval, scenario, &mut send_rng);
    while now <= scenario.horizon && scenario.crash_at.is_none_or(|c| now < c) {
        if let Some(up) = scenario.outage_end(now) {
            // The sender is down: this heartbeat goes out when it
            // recovers, and the cadence restarts from there.
            now = up;
            continue;
        }
        // A partitioned link loses the heartbeat without consulting the
        // loss model.
        let arrival = if scenario.partitioned_at(now) {
            None
        } else {
            channel.transmit(now, &mut net_rng)
        };
        records.push(HeartbeatRecord {
            seq: records.len() as u64 + 1,
            sent_at: now,
            delivered_at: arrival,
            delivered_local: arrival.map(|at| scenario.monitor_clock.local_time(at)),
        });
        let next = jittered(now + global_interval, scenario, &mut send_rng);
        now = next.max(now + Duration::from_nanos(1));
    }

    ArrivalTrace::new(
        records,
        scenario.crash_at,
        scenario.horizon,
        scenario.heartbeat_interval,
    )
}

/// Applies send jitter around the nominal broadcast time.
fn jittered(nominal: Timestamp, scenario: &Scenario, rng: &mut SimRng) -> Timestamp {
    let std = scenario.send_jitter_std.as_secs_f64();
    #[allow(clippy::float_cmp)]
    // lint:allow(no-float-eq, exact zero disables jitter; any nonzero std must sample)
    if std == 0.0 {
        return nominal;
    }
    let offset = rng.normal(0.0, std);
    if offset >= 0.0 {
        nominal + Duration::from_secs_f64(offset)
    } else {
        nominal
            .checked_sub(Duration::from_secs_f64(-offset))
            .unwrap_or(nominal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::DriftingClock;
    use crate::delay::ConstantDelay;
    use crate::loss::{BernoulliLoss, NoLoss};
    use crate::scenario::{DelayKind, LossKind};

    fn quiet_scenario() -> Scenario {
        Scenario {
            send_jitter_std: Duration::ZERO,
            delay: DelayKind::Constant(ConstantDelay::new(Duration::from_millis(10))),
            loss: LossKind::None(NoLoss),
            ..Scenario::lan()
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let s = Scenario::wan_jitter().with_horizon(Timestamp::from_secs(60));
        let a = simulate(&s, 42);
        let b = simulate(&s, 42);
        assert_eq!(a, b);
        let c = simulate(&s, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn quiet_run_delivers_everything_on_schedule() {
        let s = quiet_scenario().with_horizon(Timestamp::from_secs(10));
        let t = simulate(&s, 1);
        // 100 ms interval over 10 s → ~99 heartbeats (first at t=0.1).
        assert!(
            t.sent_count() >= 98 && t.sent_count() <= 100,
            "{}",
            t.sent_count()
        );
        assert_eq!(t.loss_rate(), 0.0);
        for r in t.records() {
            assert_eq!(r.delivered_at, Some(r.sent_at + Duration::from_millis(10)));
        }
        // Inter-arrival times equal the interval exactly.
        for gap in t.inter_arrival_seconds() {
            assert!((gap - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn crash_stops_heartbeats() {
        let s = quiet_scenario()
            .with_horizon(Timestamp::from_secs(10))
            .with_crash_at(Timestamp::from_secs(5));
        let t = simulate(&s, 1);
        assert!(t
            .records()
            .iter()
            .all(|r| r.sent_at < Timestamp::from_secs(5)));
        assert!(
            t.sent_count() >= 48 && t.sent_count() <= 50,
            "{}",
            t.sent_count()
        );
        assert_eq!(t.crash_time(), Some(Timestamp::from_secs(5)));
    }

    #[test]
    fn loss_rate_matches_model() {
        let s = Scenario {
            loss: LossKind::Bernoulli(BernoulliLoss::new(0.2)),
            ..quiet_scenario()
        }
        .with_horizon(Timestamp::from_secs(600));
        let t = simulate(&s, 7);
        assert!(
            (t.loss_rate() - 0.2).abs() < 0.02,
            "loss = {}",
            t.loss_rate()
        );
    }

    #[test]
    fn sender_drift_stretches_global_spacing() {
        // A sender whose clock runs 10% fast sends (globally) every
        // interval/1.1 ≈ 90.9 ms.
        let s = Scenario {
            sender_clock: DriftingClock::new(Duration::ZERO, 1.1),
            ..quiet_scenario()
        }
        .with_horizon(Timestamp::from_secs(10));
        let t = simulate(&s, 1);
        let gaps = t.inter_arrival_seconds();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.0909).abs() < 0.001, "mean gap = {mean}");
    }

    #[test]
    fn monitor_drift_shows_in_local_times() {
        let s = Scenario {
            monitor_clock: DriftingClock::new(Duration::from_secs(100), 1.0),
            ..quiet_scenario()
        }
        .with_horizon(Timestamp::from_secs(5));
        let t = simulate(&s, 1);
        let r = &t.records()[0];
        assert_eq!(
            r.delivered_local.unwrap(),
            r.delivered_at.unwrap() + Duration::from_secs(100)
        );
    }

    #[test]
    fn no_event_after_horizon() {
        let s = quiet_scenario().with_horizon(Timestamp::from_secs(3));
        let t = simulate(&s, 1);
        for r in t.records() {
            assert!(r.sent_at <= t.horizon());
            if let Some(d) = r.delivered_at {
                assert!(d <= t.horizon() + Duration::from_secs(1));
            }
        }
    }

    #[test]
    fn a_partition_loses_exactly_the_heartbeats_sent_inside_it() {
        let (from, to) = (Timestamp::from_secs(2), Timestamp::from_secs(3));
        let s = quiet_scenario()
            .with_horizon(Timestamp::from_secs(5))
            .with_partition(from, to);
        let t = simulate(&s, 1);
        for r in t.records() {
            let inside = from <= r.sent_at && r.sent_at < to;
            assert_eq!(r.delivered_at.is_none(), inside, "{r:?}");
        }
        assert_eq!(t.sent_count() - t.delivered_count(), 10);
    }

    #[test]
    fn a_partition_draws_no_random_number() {
        // Under independent loss, the heartbeats sent outside the window
        // meet the loss draws the unpartitioned run's first heartbeats
        // met, in order: the window consumed none.
        let lossy = Scenario {
            loss: LossKind::Bernoulli(BernoulliLoss::new(0.3)),
            ..quiet_scenario()
        }
        .with_horizon(Timestamp::from_secs(20));
        let (from, to) = (Timestamp::from_secs(5), Timestamp::from_secs(8));
        let fates = |t: &ArrivalTrace| -> Vec<bool> {
            t.records()
                .iter()
                .filter(|r| !(from <= r.sent_at && r.sent_at < to))
                .map(|r| r.delivered_at.is_some())
                .collect()
        };
        let open = simulate(&lossy, 4);
        let cut = fates(&simulate(&lossy.clone().with_partition(from, to), 4));
        let open = open.records().iter().map(|r| r.delivered_at.is_some());
        assert!(cut.contains(&false) && cut.contains(&true));
        assert_eq!(cut, open.take(cut.len()).collect::<Vec<_>>());
    }

    #[test]
    fn an_outage_pauses_the_sender_and_resumes_the_sequence_at_its_end() {
        let (from, to) = (Timestamp::from_secs_f64(3.5), Timestamp::from_secs_f64(6.2));
        let s = quiet_scenario()
            .with_heartbeat_interval(Duration::from_secs(1))
            .with_horizon(Timestamp::from_secs(10))
            .with_outage(from, to);
        let t = simulate(&s, 1);
        let sent: Vec<f64> = t
            .records()
            .iter()
            .map(|r| r.sent_at.as_secs_f64())
            .collect();
        assert_eq!(sent, [1.0, 2.0, 3.0, 6.2, 7.2, 8.2, 9.2]);
        for (i, r) in t.records().iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert!(r.delivered_at.is_some());
        }
        // An outage reaching past the horizon silences the rest of the run.
        let s = s.with_outage(Timestamp::from_secs(8), Timestamp::from_secs(30));
        assert_eq!(simulate(&s, 1).sent_count(), 5);
    }

    /// A digest of every field of every record of `trace`.
    fn digest(trace: &ArrivalTrace) -> u128 {
        let mut d = afd_core::canonical::StateDigest::new();
        for r in trace.records() {
            d.push_u64(r.seq);
            d.push_u64(r.sent_at.as_nanos());
            d.push_opt_u64(r.delivered_at.map(Timestamp::as_nanos));
            d.push_opt_u64(r.delivered_local.map(Timestamp::as_nanos));
        }
        d.finish()
    }

    #[test]
    fn empty_link_event_lists_simulate_the_pinned_traces() {
        // Pinned before partitions and outages existed: with both lists
        // empty, every preset simulates the trace it always did.
        let pins: [(Scenario, u128); 4] = [
            (Scenario::lan(), 0x5a58_bff3_3805_addb_deea_c029_6334_98ca),
            (
                Scenario::wan_jitter(),
                0x4af0_3363_7a1a_ac56_d9fe_5f93_b511_b492,
            ),
            (
                Scenario::bursty_loss(),
                0x3354_e89c_af3f_c27a_28cc_1af1_6067_1b76,
            ),
            (
                Scenario::partially_synchronous(),
                0x2ce4_5651_c998_d7c9_cd9a_9e89_db14_8d59,
            ),
        ];
        for (scenario, pin) in pins {
            let scenario = scenario.with_crash_at(Timestamp::from_secs(500));
            assert_eq!(digest(&simulate(&scenario, 1)), pin);
        }
    }

    #[test]
    fn seq_numbers_are_dense_and_ascending() {
        let s = Scenario::wan_jitter().with_horizon(Timestamp::from_secs(30));
        let t = simulate(&s, 99);
        for (i, r) in t.records().iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
        }
    }
}
