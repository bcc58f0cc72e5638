//! The acceptance chaos scenario from the robustness issue: a 10 s
//! partition that heals, 20 % burst loss throughout, one crash/recover
//! cycle, and a final crash — run deterministically in virtual time, twice,
//! with the paper's property checkers applied to every detector's timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use afd_core::accrual::{AccrualFailureDetector, LevelCurve};
use afd_core::canonical::StateDigest;
use afd_core::history::SuspicionTrace;
use afd_core::process::ProcessId;
use afd_core::properties::{check_upper_bound, AccruementCheck};
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::spec::{zoo, AnyDetector, DetectorSpec};
use afd_runtime::{
    run_chaos, ChannelTransport, ChaosScenario, Clock, Heartbeat, ShardConfig, ShardedMonitor,
    Transport,
};

/// Gilbert–Elliott bursts with mean length 4 and burst-start probability
/// 1/16 have stationary loss 0.0625 / (0.0625 + 0.25) = 20 %.
const BURST_START: f64 = 0.0625;
const MEAN_BURST_LEN: f64 = 4.0;

fn acceptance_scenario() -> ChaosScenario {
    let mut s = ChaosScenario::new(Duration::from_secs(120));
    s.burst_loss = Some((BURST_START, MEAN_BURST_LEN));
    // Partition for 10 s, then heal.
    s.partitions
        .push((Timestamp::from_secs(20), Timestamp::from_secs(30)));
    // One crash/recover cycle…
    s.crashes
        .push((Timestamp::from_secs(50), Some(Timestamp::from_secs(60))));
    // …and a final crash so the run ends with a faulty process, giving
    // Accruement a suffix to quantify over.
    s.crashes.push((Timestamp::from_secs(90), None));
    s
}

#[test]
fn acceptance_scenario_is_deterministic() {
    let scenario = acceptance_scenario();
    let a = run_chaos(&scenario, 7);
    let b = run_chaos(&scenario, 7);
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "same scenario + seed must replay the exact suspicion timeline"
    );
    assert_eq!(a.heartbeats_sent, b.heartbeats_sent);
    assert_eq!(a.monitor_stats, b.monitor_stats);
    assert_eq!(a.fault_stats, b.fault_stats);
    assert_eq!(a.degrade_events, b.degrade_events);

    // And the same timeline as every earlier build: a digest of seed 1's.
    let mut digest = StateDigest::new();
    for (at, level) in run_chaos(&scenario, 1).fingerprint() {
        digest.push_u64(at);
        digest.push_u64(level);
    }
    assert_eq!(digest.finish(), 0x9211_f76d_c98e_c5fd_a8a5_97fd_332c_3157);
}

#[test]
fn acceptance_scenario_satisfies_accruement_and_upper_bound() {
    let report = run_chaos(&acceptance_scenario(), 7);

    // The faults actually happened.
    assert!(report.fault_stats.dropped_partition > 0, "partition inert");
    assert!(report.fault_stats.dropped_loss > 0, "burst loss inert");
    assert!(report.monitor_stats.accepted > 0, "no heartbeat survived");
    assert!(
        report.degrade_events > 0,
        "starvation fallback never engaged"
    );
    assert_eq!(report.transport_errors, 0, "in-process transport failed");

    let check = AccruementCheck {
        epsilon: 1e-6,
        min_increases: 10,
        min_suffix_fraction: 0.2,
    };
    for d in &report.detectors {
        let (name, trace) = (d.name, &d.trace);
        // Property 1 on the post-crash suffix: the level stabilizes into a
        // monotone climb with regular strict increases.
        let witness = check
            .run(trace)
            .unwrap_or_else(|e| panic!("{name}: Accruement violated: {e}"));
        assert!(
            witness.strict_increases >= 10,
            "{name}: suffix too flat ({} increases)",
            witness.strict_increases
        );
        // Property 2's finite-trace form: every emitted level is finite —
        // partitions, loss bursts, and the degradation fallback never push
        // any detector to an infinite level.
        let bound = check_upper_bound(trace, None)
            .unwrap_or_else(|e| panic!("{name}: Upper Bound violated: {e}"));
        assert!(bound.observed_bound.value() > 0.0);
    }
}

#[test]
fn healed_faults_leave_a_correct_process_trusted() {
    // Same faults, but the process recovers and stays up: by the end of the
    // run every detector should have calmed down again.
    let mut scenario = acceptance_scenario();
    scenario.crashes.pop();
    let report = run_chaos(&scenario, 7);
    for d in &report.detectors {
        let (name, trace) = (d.name, &d.trace);
        check_upper_bound(trace, None)
            .unwrap_or_else(|e| panic!("{name}: Upper Bound violated: {e}"));
        let last = trace.samples().last().unwrap();
        let max = trace.max_level().unwrap();
        assert!(
            last.level.value() < max.value() / 2.0,
            "{name}: level never recovered after faults healed \
             (last {}, peak {})",
            last.level,
            max
        );
    }
}

/// A real clock's time keeps moving while a backlog is drained; this stub
/// exaggerates that by advancing a whole `step` on every read.
#[derive(Clone)]
struct SteppingClock {
    now: Arc<AtomicU64>,
    step: Duration,
}

impl Clock for SteppingClock {
    fn now(&self) -> Timestamp {
        Timestamp::from_nanos(self.now.fetch_add(self.step.as_nanos(), Ordering::SeqCst))
    }
}

/// A zoo detector that also keeps every arrival the monitor recorded.
struct Recorded {
    inner: AnyDetector,
    arrivals: Vec<Timestamp>,
}

impl AccrualFailureDetector for Recorded {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        self.arrivals.push(arrival);
        self.inner.record_heartbeat(arrival);
    }

    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        self.inner.suspicion_level(now)
    }

    fn level_curve(&self) -> Option<LevelCurve> {
        self.inner.level_curve()
    }
}

/// One tick over a backlog of `frames` heartbeats from one sender, queued
/// before the tick (say, by a partition healing); returns the monitor
/// with the sender watched.
fn drain_backlog(
    spec: &DetectorSpec,
    frames: u64,
) -> ShardedMonitor<ChannelTransport, SteppingClock, Recorded> {
    let (mut tx, rx) = ChannelTransport::pair();
    let clock = SteppingClock {
        now: Arc::new(AtomicU64::new(Timestamp::from_secs(10).as_nanos())),
        step: Duration::from_millis(200),
    };
    let single = ShardConfig {
        shards: 1,
        slots_per_shard: 1,
    };
    let spec = *spec;
    let mut monitor = ShardedMonitor::new(rx, clock, single, move |_| Recorded {
        inner: spec.build(),
        arrivals: Vec::new(),
    });
    monitor.watch(ProcessId::new(1)).unwrap();
    for seq in 1..=frames {
        let hb = Heartbeat {
            sender: ProcessId::new(1),
            seq,
            sent_at: Timestamp::from_secs(seq),
        };
        tx.send(&hb.encode()).unwrap();
    }
    let report = monitor.tick().unwrap();
    assert_eq!(report.accepted as u64, frames, "{}", spec.name());
    monitor
}

/// A backlog drained in one refill is one receive step: every detector of
/// the zoo accepts it whole at one arrival time, publishes a finite level
/// after it, and accrues over the silence that follows. A backlog longer
/// than the intake arena's 512 slots takes several refills, each its own
/// receive step with its own stamp.
#[test]
fn backlog_drained_in_one_refill_is_one_receive_step_for_every_detector() {
    let process = ProcessId::new(1);
    for zoo in zoo() {
        let name = zoo.detector.name();
        let mut monitor = drain_backlog(&zoo.detector, 10);
        let published = monitor.reader().level(process).unwrap().value();
        assert!(published.is_finite(), "{name}: published level {published}");

        let detector = monitor.detector_mut(process).unwrap();
        let stamp = detector.arrivals[0];
        assert_eq!(detector.arrivals, [stamp; 10], "{name}");
        let mut trace = SuspicionTrace::new();
        for k in 0..=60u64 {
            let at = stamp + Duration::from_millis(250 * k);
            let level = detector.suspicion_level(at);
            assert!(level.value().is_finite(), "{name}: level {level} at {at}");
            trace.push(at, level);
        }
        AccruementCheck::default()
            .run(&trace)
            .unwrap_or_else(|e| panic!("{name}: Accruement violated after the backlog: {e}"));

        let mut monitor = drain_backlog(&zoo.detector, 1_100);
        let arrivals = &monitor.detector_mut(process).unwrap().arrivals;
        let mut stamps = arrivals.clone();
        stamps.dedup();
        assert_eq!(
            stamps.len(),
            3,
            "{name}: 1 100 frames fill 512 + 512 + 76 slots"
        );
        assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{name}: {stamps:?}");
        for (i, at) in arrivals.iter().enumerate() {
            assert_eq!(*at, stamps[i / 512], "{name}: frame {i}");
        }
    }
}

#[test]
fn chaos_report_carries_observability_evidence() {
    let report = run_chaos(&acceptance_scenario(), 7);

    // The online QoS estimators ran for all six detectors and saw the
    // whole run.
    assert_eq!(report.detectors.len(), 6);
    for d in &report.detectors {
        let (name, qos) = (d.name, &d.qos);
        assert!(
            qos.observed_alive > 0.0,
            "{name}: empty alive window in online QoS"
        );
        assert!(
            qos.detection_time.is_some(),
            "{name}: final crash never detected online"
        );
    }

    // The event ring captured transitions and degradation switches without
    // overflowing, in non-decreasing time order.
    assert_eq!(report.events_dropped, 0);
    assert!(
        report.events.iter().any(|e| e.source == "phi"),
        "no phi events recorded"
    );
    for pair in report.events.windows(2) {
        assert!(pair[0].at <= pair[1].at, "events out of order");
    }

    // The metrics snapshot mirrors the struct-level counters and renders.
    let snap = &report.metrics;
    assert_eq!(
        snap.counter("sharded.accepted"),
        Some(report.monitor_stats.accepted)
    );
    assert_eq!(
        snap.counter("fault.dropped_partition"),
        Some(report.fault_stats.dropped_partition)
    );
    assert_eq!(
        snap.counter("sender.heartbeats_sent"),
        Some(report.heartbeats_sent)
    );
    assert!(snap.to_text().contains("degrade.phi.events"));
    assert!(snap.to_json().starts_with('{'));
}

#[test]
fn different_seeds_explore_different_schedules() {
    let scenario = acceptance_scenario();
    let a = run_chaos(&scenario, 1);
    let b = run_chaos(&scenario, 2);
    assert_ne!(a.fingerprint(), b.fingerprint());
    // But the structural outcome is seed-independent: faults fire and the
    // protocol survives them.
    for r in [&a, &b] {
        assert!(r.fault_stats.dropped_loss > 0);
        assert!(r.monitor_stats.accepted > 0);
        assert_eq!(r.transport_errors, 0);
    }
}
