//! Chaos in virtual time: afd-sim generates, the shipping monitor
//! replays, and `afd-model` explores.
//!
//! [`run_chaos`] simulates an afd-sim [`Scenario`] once — loss, delay,
//! partitions, sender outages, clock drift, a final crash — and replays
//! the trace through [`replay`] once per member of [`spec::zoo`], each
//! behind a [`GracefulDegradation`], fed on the v2 wire, read at each
//! query instant and thresholded on its own scale. A `(scenario, seed)` pair yields a
//! bit-identical suspicion timeline: chaos tests assert on exact replays,
//! not on sleeps and hope. [`run_chaos_script`] replays the model
//! checker's explicit schedules ([`ChaosScript`]) against the real sender
//! and monitor.

use afd_core::accrual::AccrualFailureDetector;
use afd_core::binary::Transition;
use afd_core::history::SuspicionTrace;
use afd_core::process::ProcessId;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::spec;
use afd_obs::{EventKind, EventRing, ObsEvent, OnlineQos, QosReport, Registry, Snapshot};
use afd_sim::trace::ArrivalTrace;
use afd_sim::{simulate, ReplayConfig, Scenario};

use crate::clock::VirtualClock;
use crate::degrade::{DegradeConfig, GracefulDegradation};
use crate::error::TransportError;
use crate::replay::{replay, PEER};
use crate::sender::{SenderConfig, SenderCore};
use crate::shard::{MonitorStats, ShardConfig, ShardedMonitor};
use crate::transport::{ChannelTransport, FrameBatch, Transport};

/// How often a chaos run reads every member's level, from time zero on.
const QUERY_EVERY: Duration = Duration::from_millis(250);

/// Where a chaos run's heartbeats went on the link, counted from the
/// simulated trace. With the intake's accepted and stale counts they
/// account for every heartbeat sent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Heartbeats the sender sent.
    pub sent: u64,
    /// Lost to the loss model (or to pre-GST chaos).
    pub lost: u64,
    /// Lost to a partition.
    pub partitioned: u64,
    /// Delivered after the last query, so never seen by the monitor.
    pub in_flight: u64,
}

impl LinkStats {
    /// Counts `trace`'s outcomes under `scenario`'s partitions, for a
    /// monitor whose last read was at local time `last_read`.
    fn count(trace: &ArrivalTrace, scenario: &Scenario, last_read: Timestamp) -> Self {
        let mut link = LinkStats::default();
        for r in trace.records() {
            link.sent += 1;
            match r.delivered_local {
                None if scenario.partitioned_at(r.sent_at) => link.partitioned += 1,
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

/// The monitor the script harness mounts: the inline executor with one
/// shard — the single-stream reading of Algorithm 4 — sized for and
/// watching exactly `processes`.
fn single_shard_monitor<T: Transport, D: AccrualFailureDetector>(
    transport: T,
    clock: &VirtualClock,
    processes: impl Iterator<Item = ProcessId>,
    factory: impl FnMut(ProcessId) -> D + Send + Clone + 'static,
) -> ShardedMonitor<T, VirtualClock, D> {
    let processes: Vec<ProcessId> = processes.collect();
    let config = ShardConfig {
        shards: 1,
        slots_per_shard: processes.len(),
    };
    let mut monitor = ShardedMonitor::new(transport, clock.clone(), config, factory);
    for process in processes {
        let watched = monitor.watch(process);
        debug_assert!(watched.is_ok(), "the shard is sized for its watch set");
    }
    monitor
}

/// One primitive step of a scripted chaos run: the event alphabet of the
/// bounded model checker, replayed against the real runtime.
///
/// In-flight frames form an ordered pool; `Deliver`, `Drop`, and
/// `Duplicate` address it by index with stable `Vec::remove` semantics,
/// so a schedule enumerated by the model maps to exactly one runtime
/// execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptEvent {
    /// Advance virtual time by one tick; every non-crashed sender whose
    /// heartbeat is due emits a frame into the in-flight pool (senders are
    /// polled in process-id order).
    Tick,
    /// Deliver in-flight frame `i` to the monitor and process it.
    Deliver(usize),
    /// Lose in-flight frame `i`.
    Drop(usize),
    /// Duplicate in-flight frame `i`; the copy joins the end of the pool.
    Duplicate(usize),
    /// Crash a sender: it emits no further heartbeats.
    Crash(ProcessId),
}

/// A fully explicit chaos schedule: no randomness, no fault injectors —
/// every loss, duplication, delay, and crash is an event in the script.
///
/// This is the exchange format between the bounded model checker and the
/// runtime: the checker's counterexample minimizer emits a `ChaosScript`,
/// and [`run_chaos_script`] replays it against the real
/// [`SenderCore`]/[`ShardedMonitor`] pipeline so a model-level violation
/// can be confirmed (or refuted) on the production code path.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScript {
    /// Virtual-time step per [`ScriptEvent::Tick`].
    pub tick: Duration,
    /// Heartbeat cadence of every sender (Algorithm 4's Δ_i).
    pub heartbeat_interval: Duration,
    /// Number of monitored senders; they get process ids `1..=senders`.
    pub senders: u32,
    /// The schedule, applied in order from virtual time zero.
    pub events: Vec<ScriptEvent>,
}

impl ChaosScript {
    /// An empty script over `senders` processes with 1 s heartbeats and
    /// 250 ms ticks.
    pub fn new(senders: u32) -> Self {
        ChaosScript {
            tick: Duration::from_millis(250),
            heartbeat_interval: Duration::from_secs(1),
            senders,
            events: Vec::new(),
        }
    }

    /// The process ids this script drives, in polling order.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (1..=self.senders).map(ProcessId::new)
    }
}

/// A transport that captures outgoing frames instead of delivering them,
/// so the script harness can hold them in the in-flight pool until the
/// schedule says what happens to each.
#[derive(Debug, Default)]
struct CaptureTransport {
    frames: Vec<Vec<u8>>,
}

impl Transport for CaptureTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.frames.push(frame.to_vec());
        Ok(())
    }

    fn recv_batch(&mut self, _batch: &mut FrameBatch) -> Result<usize, TransportError> {
        Ok(0)
    }
}

/// The suspicion levels of every monitored process after one script event.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptSample {
    /// Index of the event in [`ChaosScript::events`] this sample follows.
    pub event_index: usize,
    /// Virtual time of the sample.
    pub at: Timestamp,
    /// Per-process suspicion levels, in process-id order.
    pub levels: Vec<(ProcessId, SuspicionLevel)>,
}

/// Everything a script replay produced.
#[derive(Debug)]
pub struct ScriptReport {
    /// One sample per script event, in schedule order.
    pub trace: Vec<ScriptSample>,
    /// What the monitor's intake saw (duplicates and stale frames are
    /// counted here — Algorithm 4's freshness filter at work).
    pub monitor_stats: MonitorStats,
    /// Heartbeats emitted across all senders.
    pub heartbeats_sent: u64,
    /// Frames still in flight when the script ended.
    pub undelivered: usize,
}

/// Replays `script` against the real sender/monitor pipeline in virtual
/// time, mounting one detector from `factory` per sender.
///
/// Heartbeats due at time zero are emitted into the in-flight pool before
/// the first event, matching [`SenderCore`]'s "first heartbeat at start"
/// semantics; each [`ScriptEvent::Tick`] then advances time and emits
/// whatever came due. After every event the harness samples each
/// process's suspicion level into the report trace, so a model-level
/// execution and its runtime replay can be compared point by point.
///
/// # Panics
///
/// Panics if an event addresses an in-flight index or process id that
/// does not exist: the model checker only emits schedules that are valid
/// in the model, so an invalid event means the model and the runtime have
/// drifted apart — exactly what the replay is meant to catch.
pub fn run_chaos_script<D, F>(script: &ChaosScript, factory: F) -> ScriptReport
where
    D: AccrualFailureDetector,
    F: FnMut(ProcessId) -> D + Send + Clone + 'static,
{
    let clock = VirtualClock::new();
    let (mut feed, monitor_side) = ChannelTransport::pair();
    let mut monitor = single_shard_monitor(monitor_side, &clock, script.processes(), factory);
    let mut senders: Vec<(ProcessId, SenderCore, CaptureTransport)> = script
        .processes()
        .map(|p| {
            (
                p,
                SenderCore::new(
                    SenderConfig::new(p, script.heartbeat_interval),
                    Timestamp::ZERO,
                    0,
                ),
                CaptureTransport::default(),
            )
        })
        .collect();

    let mut in_flight: Vec<Vec<u8>> = Vec::new();
    let mut t = Timestamp::ZERO;
    clock.set(t);

    let emit_due = |t: Timestamp,
                    senders: &mut Vec<(ProcessId, SenderCore, CaptureTransport)>,
                    in_flight: &mut Vec<Vec<u8>>| {
        for (_, core, capture) in senders.iter_mut() {
            // The in-process capture cannot fail; the expect documents it.
            core.poll(t, capture, |_| {})
                // lint:allow(no-panic-paths, CaptureTransport::send is infallible by construction)
                .expect("capture transport is infallible");
            in_flight.append(&mut capture.frames);
        }
    };
    // Heartbeats due at the start (SenderCore emits its first frame at
    // `start` itself) enter the pool before the first event.
    emit_due(t, &mut senders, &mut in_flight);

    let mut trace = Vec::with_capacity(script.events.len());
    for (event_index, &event) in script.events.iter().enumerate() {
        match event {
            ScriptEvent::Tick => {
                t += script.tick;
                clock.set(t);
                emit_due(t, &mut senders, &mut in_flight);
            }
            ScriptEvent::Deliver(i) => {
                let frame = in_flight.remove(i);
                // lint:allow(no-panic-paths, the in-process feed pair cannot error)
                feed.send(&frame).expect("in-process feed is infallible");
                // lint:allow(no-panic-paths, the in-process feed pair cannot error)
                monitor.tick().expect("in-process tick is infallible");
            }
            ScriptEvent::Drop(i) => {
                in_flight.remove(i);
            }
            ScriptEvent::Duplicate(i) => {
                let copy = in_flight[i].clone();
                in_flight.push(copy);
            }
            ScriptEvent::Crash(p) => sender(&mut senders, p).crash(),
        }
        let levels = senders
            .iter()
            .map(|&(p, _, _)| {
                let detector = monitor
                    .detector_mut(p)
                    // lint:allow(no-panic-paths, run_chaos_script watches every sender upfront)
                    .expect("every script process is watched");
                (p, detector.suspicion_level(t))
            })
            .collect();
        trace.push(ScriptSample {
            event_index,
            at: t,
            levels,
        });
    }

    ScriptReport {
        trace,
        monitor_stats: monitor.stats().totals,
        heartbeats_sent: senders.iter().map(|(_, core, _)| core.sent()).sum(),
        undelivered: in_flight.len(),
    }
}

/// The core of script sender `p`.
fn sender(
    senders: &mut [(ProcessId, SenderCore, CaptureTransport)],
    p: ProcessId,
) -> &mut SenderCore {
    let (_, core, _) = senders
        .iter_mut()
        .find(|(id, _, _)| *id == p)
        // lint:allow(no-panic-paths, a malformed script is a harness bug and must abort the run)
        .expect("script addresses an unknown process");
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_detectors::simple::SimpleAccrual;
    use afd_sim::clock::DriftingClock;
    use afd_sim::delay::UniformDelay;
    use afd_sim::loss::GilbertElliottLoss;
    use afd_sim::scenario::{DelayKind, LossKind};
    use ScriptEvent::*;

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
    fn script_delivers_heartbeats_and_levels_reset() {
        let mut script = ChaosScript::new(1);
        script.tick = Duration::from_secs(1);
        // One heartbeat is in flight at t=0. Deliver it, advance a tick
        // (emitting the next), deliver that too, then let two ticks pass
        // whose frames stay undelivered so suspicion accrues.
        script.events = vec![Deliver(0), Tick, Deliver(0), Tick, Tick];
        let report = run_chaos_script(&script, |_| SimpleAccrual::new(Timestamp::ZERO));
        assert_eq!(report.heartbeats_sent, 4);
        assert_eq!(report.undelivered, 2);
        assert_eq!(report.monitor_stats.accepted, 2);
        let levels: Vec<f64> = report.trace.iter().map(|s| s.levels[0].1.value()).collect();
        // After each event: deliver@0 → 0, tick → 1 (emits), deliver → 0,
        // two undelivered ticks → 1, 2.
        assert_eq!(levels, vec![0.0, 1.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn script_duplicate_is_rejected_by_freshness_filter() {
        let mut script = ChaosScript::new(1);
        script.events = vec![Duplicate(0), Deliver(0), Deliver(0)];
        let report = run_chaos_script(&script, |_| SimpleAccrual::new(Timestamp::ZERO));
        assert_eq!(report.monitor_stats.accepted, 1);
        assert_eq!(report.monitor_stats.duplicate, 1, "Algorithm 4 dedup");
    }

    #[test]
    fn script_crash_silences() {
        let p = ProcessId::new(1);
        let mut script = ChaosScript::new(1);
        script.tick = Duration::from_secs(1);
        script.events = vec![Deliver(0), Crash(p), Tick, Tick];
        let report = run_chaos_script(&script, |_| SimpleAccrual::new(Timestamp::ZERO));
        // Crashed ticks emit nothing, so suspicion grows from the one
        // delivered heartbeat.
        assert_eq!(report.heartbeats_sent, 1);
        assert_eq!(report.undelivered, 0);
        let last = report.trace.last().unwrap();
        assert_eq!(last.levels[0].1.value(), 2.0);
    }

    #[test]
    fn script_drop_loses_the_frame() {
        let mut script = ChaosScript::new(1);
        script.tick = Duration::from_secs(1);
        script.events = vec![Drop(0), Tick, Deliver(0)];
        let report = run_chaos_script(&script, |_| SimpleAccrual::new(Timestamp::ZERO));
        assert_eq!(report.monitor_stats.accepted, 1);
        assert_eq!(report.undelivered, 0);
    }

    #[test]
    fn script_out_of_order_delivery_is_stale_filtered() {
        let mut script = ChaosScript::new(1);
        script.tick = Duration::from_secs(1);
        // Two frames in flight (t=0 and t=1); deliver the newer first.
        script.events = vec![Tick, Deliver(1), Deliver(0)];
        let report = run_chaos_script(&script, |_| SimpleAccrual::new(Timestamp::ZERO));
        assert_eq!(report.monitor_stats.accepted, 1);
        assert_eq!(report.monitor_stats.stale, 1, "Algorithm 4 freshness");
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
