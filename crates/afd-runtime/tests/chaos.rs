//! The acceptance chaos scenario: a 10 s partition that heals, 20 % burst
//! loss throughout, one crash/recover cycle, and a final crash — simulated
//! once and replayed through the shipping monitor for every detector,
//! deterministically in virtual time, with the paper's property checkers
//! applied to every detector's timeline.

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
    run_chaos, ChannelTransport, Clock, Heartbeat, ShardConfig, ShardedMonitor, Transport,
};
use afd_sim::delay::UniformDelay;
use afd_sim::loss::GilbertElliottLoss;
use afd_sim::scenario::{DelayKind, LossKind};
use afd_sim::Scenario;

/// Gilbert–Elliott bursts with mean length 4 and burst-start probability
/// 1/16 have stationary loss 0.0625 / (0.0625 + 0.25) = 20 %.
const BURST_START: f64 = 0.0625;
const MEAN_BURST_LEN: f64 = 4.0;

fn acceptance_scenario() -> Scenario {
    let at = Timestamp::from_secs;
    Scenario {
        loss: LossKind::GilbertElliott(GilbertElliottLoss::bursts(BURST_START, MEAN_BURST_LEN)),
        ..Scenario::ideal()
    }
    .with_horizon(at(120))
    // Partition for 10 s, then heal.
    .with_partition(at(20), at(30))
    // One crash/recover cycle…
    .with_outage(at(50), at(60))
    // …and a final crash so the run ends with a faulty process, giving
    // Accruement a suffix to quantify over.
    .with_crash_at(at(90))
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
    assert_eq!(a.link, b.link);
    assert_eq!(a.monitor_stats, b.monitor_stats);
    assert_eq!(a.degrade_events, b.degrade_events);

    // And the same timeline on every build: a digest of seed 1's, pinned
    // since chaos runs are simulated traces replayed on the v2 wire.
    let mut digest = StateDigest::new();
    for (at, level) in run_chaos(&scenario, 1).fingerprint() {
        digest.push_u64(at);
        digest.push_u64(level);
    }
    assert_eq!(digest.finish(), 0xf5bd_be70_f7a7_a835_876f_1d24_d3cb_6639);
}

#[test]
fn acceptance_scenario_satisfies_accruement_and_upper_bound() {
    let report = run_chaos(&acceptance_scenario(), 7);

    // The faults actually happened.
    assert!(report.link.partitioned > 0, "partition inert");
    assert!(report.link.lost > 0, "burst loss inert");
    assert!(report.monitor_stats.accepted > 0, "no heartbeat survived");
    assert!(
        report.degrade_events > 0,
        "starvation fallback never engaged"
    );

    let check = AccruementCheck::STRICT;
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
    scenario.crash_at = None;
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
        snap.counter("link.partitioned"),
        Some(report.link.partitioned)
    );
    assert_eq!(snap.counter("link.sent"), Some(report.link.sent));
    assert!(snap.to_text().contains("degrade.phi.events"));
    assert!(snap.to_json().starts_with('{'));
}

#[test]
fn chaos_report_exports_each_members_qos() {
    let report = run_chaos(&acceptance_scenario(), 7);
    let snap = &report.metrics;
    for d in &report.detectors {
        let (name, qos) = (d.name, &d.qos);
        let gauge = |metric: &str| snap.gauge(&format!("qos.{name}.{metric}"));
        assert_eq!(gauge("mistakes"), Some(qos.mistakes as f64), "{name}");
        assert_eq!(gauge("mistake_rate"), Some(qos.mistake_rate), "{name}");
        assert_eq!(gauge("query_accuracy"), Some(qos.query_accuracy), "{name}");
        // A metric that is `None` has no gauge.
        assert_eq!(
            gauge("mistake_recurrence"),
            qos.mistake_recurrence,
            "{name}"
        );
        assert_eq!(gauge("mistake_duration"), qos.mistake_duration, "{name}");
        assert_eq!(gauge("good_period"), qos.good_period, "{name}");
        assert_eq!(gauge("detection_time"), qos.detection_time, "{name}");
    }
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
        assert!(r.link.lost > 0);
        assert!(r.monitor_stats.accepted > 0);
    }
}

/// Every simulated heartbeat ends in exactly one outcome: lost to the
/// loss model, lost to a partition, still in flight at the last query,
/// accepted, or judged stale. Every member's monitor counts the same
/// intake, because all six replayed the same frames.
#[test]
fn every_heartbeat_ends_in_exactly_one_outcome() {
    // The acceptance run, and the same faults over a link slow enough to
    // reorder heartbeats and leave some in flight at the horizon.
    let mut reordering = acceptance_scenario();
    reordering.crash_at = None;
    reordering.delay = DelayKind::Uniform(UniformDelay::new(
        Duration::ZERO,
        Duration::from_millis(2_500),
    ));
    for scenario in [acceptance_scenario(), reordering] {
        let report = run_chaos(&scenario, 7);
        let (link, intake) = (report.link, report.monitor_stats);
        assert_eq!(
            link.sent,
            link.lost + link.partitioned + link.in_flight + intake.accepted + intake.stale,
            "{link:?} {intake:?}"
        );
        assert_eq!(
            (intake.corrupt, intake.duplicate, intake.unwatched),
            (0, 0, 0)
        );
        for d in &report.detectors {
            assert_eq!(d.monitor_stats, intake, "{}", d.name);
        }
        if scenario.crash_at.is_none() {
            assert!(
                intake.stale > 0 && link.in_flight > 0,
                "{link:?} {intake:?}"
            );
        }
    }
}
