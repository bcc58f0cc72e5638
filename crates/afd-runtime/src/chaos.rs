//! Chaos in virtual time: afd-sim generates, the shipping monitor
//! replays, and `afd-model` explores.
//!
//! [`run_chaos`] simulates an afd-sim [`Scenario`] once — loss, delay,
//! partitions, sender outages, clock drift, a final crash — and replays
//! the trace through [`replay`] once per member of [`spec::zoo`], each
//! behind a [`GracefulDegradation`], fed on the v2 wire, read at each
//! query instant and thresholded on its own scale. A `(scenario, seed)` pair yields a
//! bit-identical suspicion timeline: chaos tests assert on exact replays,
//! not on sleeps and hope. The model checker's explicit schedules run
//! through the same sender and monitor in `afd-model`
//! (`afd_model::runtime_trace`).

use afd_core::binary::Transition;
use afd_core::history::SuspicionTrace;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::spec;
use afd_obs::{EventKind, EventRing, ObsEvent, OnlineQos, QosReport, Registry, Snapshot};
use afd_sim::trace::ArrivalTrace;
use afd_sim::{simulate, ReplayConfig, Scenario};

use crate::degrade::{DegradeConfig, GracefulDegradation};
use crate::replay::{replay, PEER};
use crate::shard::MonitorStats;

/// How often a chaos run reads every member's level, from time zero on.
const QUERY_EVERY: Duration = Duration::from_millis(250);

/// Where a chaos run's heartbeats went on the link, counted from the
/// simulated trace. With the intake's accepted and stale counts they
/// account for every heartbeat sent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Heartbeats the sender sent.
    pub sent: u64,
    /// Lost to the loss model (or to a chaos phase).
    pub lost: u64,
    /// Lost to a partition (a phase that cuts the link).
    pub partitioned: u64,
    /// Delivered after the last query, so never seen by the monitor.
    pub in_flight: u64,
}

impl LinkStats {
    /// Counts `trace`'s outcomes under `scenario`'s phases, for a
    /// monitor whose last read was at local time `last_read`.
    fn count(trace: &ArrivalTrace, scenario: &Scenario, last_read: Timestamp) -> Self {
        let mut link = LinkStats::default();
        for r in trace.records() {
            link.sent += 1;
            match r.delivered_local {
                None if scenario.link_at(r.sent_at).cut => link.partitioned += 1,
                None => link.lost += 1,
                Some(at) if at > last_read => link.in_flight += 1,
                Some(_) => {}
            }
        }
        link
    }
}

/// One detector's outcome from a chaos run.
#[derive(Debug)]
pub struct ZooDetectorReport {
    /// The detector's name.
    pub name: &'static str,
    /// The interpretation threshold applied to its levels.
    pub threshold: SuspicionLevel,
    /// The suspicion timeline its monitor read at the queries.
    pub trace: SuspicionTrace,
    /// Streaming QoS estimates from the thresholded output (the paper's
    /// T_D, T_MR, T_M, λ_M, P_A, T_G).
    pub qos: QosReport,
    /// What its monitor's intake saw.
    pub monitor_stats: MonitorStats,
}

/// Everything a chaos run produced.
#[derive(Debug)]
pub struct ChaosReport {
    /// Per-detector traces and QoS, in zoo order.
    pub detectors: Vec<ZooDetectorReport>,
    /// Where the heartbeats went on the link.
    pub link: LinkStats,
    /// What every member's monitor intake saw (all replayed one trace).
    pub monitor_stats: MonitorStats,
    /// Starvation episodes across all members by the last query.
    pub degrade_events: u64,
    /// Every member's S- and T-transitions, in time order.
    pub events: Vec<ObsEvent>,
    /// Events evicted from the bounded ring before the run ended.
    pub events_dropped: u64,
    /// Final metrics: the `link.*`, `sharded.*` and `degrade.*` counters
    /// and each member's `qos.<name>.*` gauges.
    pub metrics: Snapshot,
}

impl ChaosReport {
    /// A compact fingerprint of every member's suspicion timeline: exact
    /// (timestamp, level-bits) pairs, suitable for determinism assertions.
    pub fn fingerprint(&self) -> Vec<(u64, u64)> {
        let samples = self.detectors.iter().flat_map(|d| d.trace.iter());
        samples
            .map(|s| (s.at.as_nanos(), s.level.value().to_bits()))
            .collect()
    }
}

/// Runs `scenario` under `seed` to completion in virtual time: one
/// simulated trace, replayed through the shipping monitor once per zoo
/// member, each member thresholded on its own scale.
///
/// Each member is interpreted at its spec's own threshold, because the
/// detectors speak different languages: the simple detector's level is
/// raw elapsed seconds, Chen's and Bertier's are seconds past the expected
/// arrival, the φ family's is `−log₁₀` of a tail probability, and the
/// adaptive detector's is a plain probability in `[0, 1)`. A single
/// scenario-wide threshold would compare apples to logarithms.
pub fn run_chaos(scenario: &Scenario, seed: u64) -> ChaosReport {
    let trace = simulate(scenario, seed);
    let degrade = DegradeConfig::for_interval(scenario.heartbeat_interval, 3);
    let queries = ReplayConfig::every(QUERY_EVERY)
        .starting_at(Timestamp::ZERO)
        .with_clock(scenario.monitor_clock);
    // The last query, on the monitor's clock: later arrivals stay in
    // flight, and the members' degradation is read there.
    let horizon = scenario.horizon.as_nanos();
    let last_query = Timestamp::from_nanos(horizon - horizon % QUERY_EVERY.as_nanos());
    let end = scenario.monitor_clock.local_time(last_query);

    let registry = Registry::new();
    let mut events = Vec::new();
    let mut degrade_events = 0;
    let mut detectors = Vec::new();
    for member in spec::zoo() {
        let (name, detector) = (member.detector.name(), member.detector);
        let factory = move |_| GracefulDegradation::new(detector.build(), degrade);
        let replayed = replay(&trace, factory, queries);
        replayed.detector.export_metrics(&registry, name, end);
        degrade_events += replayed.detector.degrade_events(end);
        // The online QoS reads the statuses an offline analysis reads.
        let threshold = SuspicionLevel::clamped(member.threshold);
        let mut qos = OnlineQos::new(scenario.crash_at);
        for s in replayed.levels.threshold(threshold).samples() {
            let kind = match qos.observe(s.at, s.status) {
                Some(Transition::Suspect) => EventKind::Suspect,
                Some(Transition::Trust) => EventKind::Trust,
                None => continue,
            };
            events.push(ObsEvent {
                at: s.at,
                source: name,
                process: PEER,
                kind,
            });
        }
        qos.export_metrics(&registry, &format!("qos.{name}"));
        detectors.push(ZooDetectorReport {
            name,
            threshold,
            qos: qos.report(),
            trace: replayed.levels,
            monitor_stats: replayed.stats,
        });
    }
    let monitor_stats = detectors.first().map(|d| d.monitor_stats);
    let monitor_stats = monitor_stats.unwrap_or_default();
    monitor_stats.export_metrics(&registry);
    let link = LinkStats::count(&trace, scenario, end);
    registry.counter("link.sent").set(link.sent);
    registry.counter("link.lost").set(link.lost);
    registry.counter("link.partitioned").set(link.partitioned);
    registry.counter("link.in_flight").set(link.in_flight);
    // A stable sort: simultaneous transitions keep zoo order.
    events.sort_by_key(|e| e.at);
    let mut ring = EventRing::new(8192);
    events.into_iter().for_each(|e| ring.push(e));
    ChaosReport {
        detectors,
        link,
        monitor_stats,
        degrade_events,
        events_dropped: ring.dropped(),
        events: ring.drain(),
        metrics: registry.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_sim::clock::DriftingClock;
    use afd_sim::delay::UniformDelay;
    use afd_sim::loss::GilbertElliottLoss;
    use afd_sim::scenario::{DelayKind, LossKind};

    fn quiet(horizon_s: u64) -> Scenario {
        Scenario::ideal().with_horizon(Timestamp::from_secs(horizon_s))
    }

    #[test]
    fn quiet_run_keeps_levels_low() {
        let report = run_chaos(&quiet(30), 1);
        assert!(report.link.sent >= 29);
        assert_eq!(report.monitor_stats.corrupt, 0);
        for d in &report.detectors {
            let (name, max) = (d.name, d.trace.max_level().unwrap());
            assert!(max.value() < 5.0, "{name}: quiet run peaked at {max}");
        }
    }

    #[test]
    fn all_six_detectors_run_and_accrue_after_a_crash() {
        let crash = Timestamp::from_secs(30);
        let report = run_chaos(&quiet(60).with_crash_at(crash), 7);
        let names: Vec<_> = report.detectors.iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            ["simple", "chen", "bertier", "phi", "akka", "adaptive"]
        );
        for d in &report.detectors {
            let last = d.trace.samples().last().unwrap().level;
            let at_crash = d.trace.iter().find(|s| s.at >= crash).unwrap().level;
            assert!(last > at_crash, "{}: no accrual after crash", d.name);
            // Every member crossed its own threshold and the online QoS
            // recorded a finite detection time.
            let td = d.qos.detection_time;
            let name = d.name;
            assert!(
                td.is_some_and(|td| td < 15.0),
                "{name}: detection time {td:?}"
            );
        }
        let fell_back = report.degrade_events > 0;
        assert!(fell_back, "long silence must trigger fallback");
    }

    #[test]
    fn slow_sender_clock_stretches_heartbeat_pacing() {
        let slow = Scenario {
            // The sender's seconds are 1.25 true seconds.
            sender_clock: DriftingClock::new(Duration::ZERO, 0.8),
            ..quiet(60)
        };
        let drifted = run_chaos(&slow, 3).link.sent;
        let baseline = run_chaos(&quiet(60), 3).link.sent;
        assert!(
            drifted < baseline,
            "slow clock sent {drifted} vs {baseline}"
        );
        // ~60 true seconds × 0.8 sender-seconds each ≈ 48 heartbeats.
        assert!((44..=52).contains(&drifted), "got {drifted}");
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let ms = Duration::from_millis;
        let scenario = Scenario {
            loss: LossKind::GilbertElliott(GilbertElliottLoss::bursts(0.05, 4.0)),
            delay: DelayKind::Uniform(UniformDelay::new(ms(5), ms(80))),
            ..quiet(40)
        }
        .with_partition(Timestamp::from_secs(10), Timestamp::from_secs(15));
        let a = run_chaos(&scenario, 42);
        let b = run_chaos(&scenario, 42);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = run_chaos(&scenario, 43);
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed must matter");
    }
}
