//! End-to-end test of the Fig. 2 architecture on the monitor that ships:
//! three workers over simulated links put wire-v2 heartbeats in front of
//! one inline `ShardedMonitor`, and two applications — each holding only
//! a `SnapshotReader` clone and its own `InterpreterBank` — interpret the
//! same published epochs independently, including a worker crash seen
//! differently by each.

use accrual_fd::core::transform::{HysteresisInterpreter, ThresholdInterpreter};
use accrual_fd::prelude::*;
use accrual_fd::runtime::{ChannelTransport, DeltaEncoder, Heartbeat, VirtualClock, MAX_V2_FRAME};
use accrual_fd::sim::scenario::Scenario;
use accrual_fd::sim::simulate;
use accrual_fd::sim::trace::ArrivalTrace;

/// Every delivered heartbeat of `traces` (position = sender id) as the v2
/// frame its sender put on the wire, in arrival order. Senders encode in
/// send order, lost heartbeats included, as they do in production.
fn wire_schedule(traces: &[ArrivalTrace]) -> Vec<(Timestamp, Vec<u8>)> {
    let mut schedule = Vec::new();
    for (id, trace) in (0u32..).zip(traces) {
        let sender = ProcessId::new(id);
        let interval = std::time::Duration::from_nanos(trace.interval().as_nanos());
        let mut encoder = DeltaEncoder::new(sender, id, interval, 8);
        for record in trace.records() {
            let hb = Heartbeat {
                sender,
                seq: record.seq,
                sent_at: record.sent_at,
            };
            let mut buf = [0u8; MAX_V2_FRAME];
            let len = encoder.encode(&hb, &mut buf);
            if let Some(arrival) = record.delivered_local {
                schedule.push((arrival, buf[..len].to_vec()));
            }
        }
    }
    schedule.sort_by_key(|&(arrival, _)| arrival);
    schedule
}

/// An application: a reader clone and a private bank. `'static` is the
/// point — it borrows nothing, so it cannot reach the monitor, `&mut` or not.
fn application<B: Send + 'static>(reader: SnapshotReader, bank: B) -> (SnapshotReader, B) {
    (reader, bank)
}

#[test]
fn one_service_many_applications_over_simulated_links() {
    // Three workers; worker 1 crashes at t = 60.
    let horizon = Timestamp::from_secs(120);
    let crash = Timestamp::from_secs(60);
    let scenarios = [
        Scenario::wan_jitter().with_horizon(horizon),
        Scenario::wan_jitter()
            .with_horizon(horizon)
            .with_crash_at(crash),
        Scenario::wan_jitter().with_horizon(horizon),
    ];
    let traces: Vec<_> = scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| simulate(s, 100 + i as u64))
        .collect();
    let schedule = wire_schedule(&traces);

    let clock = VirtualClock::new();
    let (mut wire, intake) = ChannelTransport::pair();
    let config = ShardConfig {
        shards: 2,
        slots_per_shard: 4,
    };
    let mut monitor = ShardedMonitor::new(intake, clock.clone(), config, |_| {
        PhiAccrual::with_defaults()
    });
    for i in 0..3 {
        monitor.watch(ProcessId::new(i)).unwrap();
    }

    // Two applications: an aggressive one (Φ=1) and a conservative one
    // with hysteresis (suspect at 5, un-suspect at 0.5).
    let (agg_reader, mut aggressive) = application(
        monitor.reader(),
        InterpreterBank::new(|_| ThresholdInterpreter::new(SuspicionLevel::new(1.0).unwrap())),
    );
    let (cons_reader, mut conservative) = application(
        monitor.reader(),
        InterpreterBank::new(|_| {
            HysteresisInterpreter::new(
                SuspicionLevel::new(5.0).unwrap(),
                SuspicionLevel::new(0.5).unwrap(),
            )
        }),
    );

    // One loop drives everything: each delivery is stamped at its arrival
    // time, and a tick on every full second publishes the epoch.
    let mut due = schedule.iter().peekable();
    let mut agg_detected = None;
    let mut cons_detected = None;
    for tick in 1..=120u64 {
        let now = Timestamp::from_secs(tick);
        while let Some((arrival, frame)) = due.next_if(|(arrival, _)| *arrival <= now) {
            clock.set(*arrival);
            wire.send(frame).unwrap();
            monitor.tick().unwrap();
        }
        clock.set(now);
        monitor.tick().unwrap();

        // One monitoring run, one epoch: both applications read the
        // snapshot published at `now`.
        assert_eq!(agg_reader.published_at(), now);
        assert_eq!(cons_reader.published_at(), now);
        let (agg_view, cons_view) = (agg_reader.snapshot(), cons_reader.snapshot());
        assert_eq!((agg_view.len(), cons_view.len()), (3, 3));
        let agg = aggressive.observe_snapshot(now, &agg_view);
        let cons = conservative.observe_snapshot(now, &cons_view);
        // Theorem 1 containment, application-wide: everything the
        // conservative app suspects, the aggressive one suspects.
        for p in &cons {
            assert!(agg.contains(p), "containment violated at t={tick}s for {p}");
        }
        if now >= crash {
            if agg_detected.is_none() && agg.contains(&ProcessId::new(1)) {
                agg_detected = Some(tick);
            }
            if cons_detected.is_none() && cons.contains(&ProcessId::new(1)) {
                cons_detected = Some(tick);
            }
        }
    }

    // Both applications eventually notice the crash; the aggressive one
    // is never slower.
    let agg_at = agg_detected.expect("aggressive app detects the crash");
    let cons_at = cons_detected.expect("conservative app detects the crash");
    assert!(
        agg_at <= cons_at,
        "aggressive {agg_at}s vs conservative {cons_at}s"
    );

    // Ranked by level at the horizon, the crashed worker comes last.
    let mut ranked = agg_reader.snapshot();
    ranked.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
    assert_eq!(ranked.last().unwrap().0, ProcessId::new(1));
    // And the healthy workers are not suspected by the conservative app.
    assert!(conservative.status(ProcessId::new(0)).is_trusted());
    assert!(conservative.status(ProcessId::new(2)).is_trusted());
}

#[test]
fn binary_facade_for_legacy_applications() {
    // §1.5: a library can still expose a classical binary interface — one
    // InterpretedBinary per application, sharing nothing but the heartbeat
    // stream semantics.
    use accrual_fd::core::transform::InterpretedBinary;

    let crash = Timestamp::from_secs(40);
    let scenario = Scenario::lan()
        .with_horizon(Timestamp::from_secs(80))
        .with_crash_at(crash);
    let trace = simulate(&scenario, 55);

    let mut legacy = InterpretedBinary::new(
        PhiAccrual::with_defaults(),
        ThresholdInterpreter::new(SuspicionLevel::new(3.0).unwrap()),
    );

    let deliveries = trace.deliveries_in_arrival_order();
    let mut next = 0;
    let mut verdicts = Vec::new();
    for tick in 1..=80u64 {
        let now = Timestamp::from_secs(tick);
        while next < deliveries.len() && deliveries[next].0 <= now {
            legacy.record_heartbeat(deliveries[next].0);
            next += 1;
        }
        verdicts.push(legacy.query(now));
    }
    // Trusted while alive, suspected after the crash.
    assert!(verdicts[..39].iter().all(|s| s.is_trusted()));
    assert!(verdicts[45..].iter().all(|s| s.is_suspected()));
}
