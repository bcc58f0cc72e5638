//! A deterministic chaos harness: the whole runtime in virtual time.
//!
//! One lock-step loop drives a [`SenderCore`], a [`FaultInjector`]-wrapped
//! channel transport, and a single-shard [`ShardedMonitor`] (the inline
//! executor of the monitor pipeline) holding the [`DetectorZoo`] — every
//! detector this repository implements, each degradation-wrapped and
//! thresholded on its own scale — over a scripted scenario of partitions,
//! burst loss, and crash/recover cycles ([`run_chaos`]). All randomness
//! flows from the scenario seed through [`SimRng`](afd_sim::rng::SimRng)
//! streams and all time from a [`VirtualClock`], so a `(scenario, seed)`
//! pair yields a bit-identical suspicion timeline on every run — chaos
//! tests assert on exact replays, not on sleeps and hope.
//!
//! This module is the runtime's virtual-time world. `afd-sim` generates
//! the paper experiments' arrival traces, which [`replay`](crate::replay)
//! feeds through the same inline monitor, and lends this harness its
//! loss, delay, and random-stream models; `afd-model` is the
//! reference transition system whose schedules are replayed against the
//! real pipeline through [`run_chaos_script`].

use afd_core::accrual::AccrualFailureDetector;
use afd_core::binary::{Status, Transition, TransitionDetector};
use afd_core::history::SuspicionTrace;
use afd_core::process::ProcessId;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::spec::{self, AnyDetector, ZooSpec};
use afd_obs::{EventKind, EventRing, ObsEvent, OnlineQos, QosReport, Registry, Snapshot};
use afd_sim::delay::UniformDelay;
use afd_sim::loss::{BernoulliLoss, GilbertElliottLoss};

use crate::clock::{Clock, VirtualClock};
use crate::degrade::{DegradeConfig, GracefulDegradation};
use crate::error::TransportError;
use crate::fault::{FaultInjector, FaultPlan, FaultStats};
use crate::sender::{SenderConfig, SenderCore};
use crate::shard::{MonitorStats, ShardConfig, ShardedMonitor};
use crate::transport::{ChannelTransport, FrameBatch, Transport};

/// A scripted chaos run: what the network and the monitored process do,
/// and when.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// Total virtual run length.
    pub horizon: Duration,
    /// Heartbeat cadence (Algorithm 4's Δ_i).
    pub heartbeat_interval: Duration,
    /// How often suspicion levels are sampled into the report traces.
    pub query_every: Duration,
    /// Simulation step; smaller ticks resolve fault edges more finely.
    pub tick: Duration,
    /// Network partitions `[from, to)` during which every frame is lost.
    pub partitions: Vec<(Timestamp, Timestamp)>,
    /// Gilbert–Elliott burst loss as `(burst_start_probability,
    /// mean_burst_len)`; bursts drop everything while active.
    pub burst_loss: Option<(f64, f64)>,
    /// Independent per-frame loss probability.
    pub bernoulli_loss: Option<f64>,
    /// Per-frame duplication probability.
    pub duplicate: f64,
    /// Per-frame byte-corruption probability (corrupt frames are caught by
    /// the wire checksum and dropped by the monitor).
    pub corrupt: f64,
    /// Uniform per-frame delivery jitter `(min, max)`.
    pub jitter: Option<(Duration, Duration)>,
    /// Crash episodes `(crash_at, recover_at)`; `None` recovery means the
    /// process stays down for the rest of the run.
    pub crashes: Vec<(Timestamp, Option<Timestamp>)>,
    /// Rate of the *sender's* local clock relative to true time (default
    /// 1.0). Under the paper's partially synchronous model local clocks
    /// drift within a bound; a rate below 1 makes the sender pace its
    /// heartbeats slower than the monitor expects, above 1 faster. The
    /// monitor side always observes true time.
    pub clock_drift: f64,
}

impl ChaosScenario {
    /// A quiet scenario over `horizon`: 1 s heartbeats, 250 ms queries,
    /// 50 ms ticks, no faults.
    pub fn new(horizon: Duration) -> Self {
        ChaosScenario {
            horizon,
            heartbeat_interval: Duration::from_secs(1),
            query_every: Duration::from_millis(250),
            tick: Duration::from_millis(50),
            partitions: Vec::new(),
            burst_loss: None,
            bernoulli_loss: None,
            duplicate: 0.0,
            corrupt: 0.0,
            jitter: None,
            crashes: Vec::new(),
            clock_drift: 1.0,
        }
    }

    /// The QoS crash instant: the first crash the process never recovers
    /// from, if any.
    pub fn permanent_crash(&self) -> Option<Timestamp> {
        self.crashes
            .iter()
            .filter(|&&(_, recover)| recover.is_none())
            .map(|&(at, _)| at)
            .min()
    }

    fn build_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        if let Some((start, len)) = self.burst_loss {
            plan = plan.with_loss(GilbertElliottLoss::bursts(start, len));
        } else if let Some(p) = self.bernoulli_loss {
            plan = plan.with_loss(BernoulliLoss::new(p));
        }
        if let Some((lo, hi)) = self.jitter {
            plan = plan.with_delay(UniformDelay::new(lo, hi));
        }
        if self.duplicate > 0.0 {
            plan = plan.with_duplicate(self.duplicate);
        }
        if self.corrupt > 0.0 {
            plan = plan.with_corrupt(self.corrupt);
        }
        for &(from, to) in &self.partitions {
            plan = plan.with_partition(from, to);
        }
        plan
    }

    fn crashed_at(&self, t: Timestamp) -> bool {
        self.crashes
            .iter()
            .any(|&(c, r)| t >= c && r.is_none_or(|r| t < r))
    }

    /// The sender's local-clock reading at true time `t`: identity unless
    /// `clock_drift` departs from 1, in which case the sender paces its
    /// heartbeats by this warped clock while the monitor keeps true time.
    #[allow(clippy::float_cmp)]
    fn sender_time(&self, t: Timestamp) -> Timestamp {
        // Exact identity is intentional: the drift-free path must not go
        // through a float round-trip at all, so the default behaves
        // bit-identically to the pre-drift harness.
        // lint:allow(no-float-eq, sentinel check for the exact default value, not a computed comparison)
        if self.clock_drift == 1.0 {
            t
        } else {
            Timestamp::from_secs_f64(t.as_secs_f64() * self.clock_drift)
        }
    }
}

/// Per-detector observability state: the suspicion trace, the live QoS
/// estimator, and the transition/degradation trackers feeding the event
/// ring.
struct DetectorTracker {
    name: &'static str,
    threshold: SuspicionLevel,
    trace: SuspicionTrace,
    qos: OnlineQos,
    transitions: TransitionDetector,
    degraded: bool,
}

impl DetectorTracker {
    fn new(zoo: &ZooSpec, crash: Option<Timestamp>) -> Self {
        DetectorTracker {
            name: zoo.detector.name(),
            threshold: SuspicionLevel::clamped(zoo.threshold),
            trace: SuspicionTrace::new(),
            qos: OnlineQos::new(crash),
            transitions: TransitionDetector::new(),
            degraded: false,
        }
    }

    fn observe(
        &mut self,
        at: Timestamp,
        level: SuspicionLevel,
        degraded_now: bool,
        process: ProcessId,
        events: &mut EventRing,
    ) {
        self.trace.push(at, level);
        // Same interpretation as SuspicionTrace::threshold (Equation 2),
        // applied sample-by-sample so the online QoS numbers match an
        // offline analysis of the recorded trace exactly.
        let status = if level > self.threshold {
            Status::Suspected
        } else {
            Status::Trusted
        };
        self.qos.observe(at, status);
        if let Some(tr) = self.transitions.observe(status) {
            events.push(ObsEvent {
                at,
                source: self.name,
                process,
                kind: match tr {
                    Transition::Suspect => EventKind::Suspect,
                    Transition::Trust => EventKind::Trust,
                },
            });
        }
        if degraded_now != self.degraded {
            self.degraded = degraded_now;
            events.push(ObsEvent {
                at,
                source: self.name,
                process,
                kind: if degraded_now {
                    EventKind::DegradeEnter
                } else {
                    EventKind::DegradeExit
                },
            });
        }
    }
}

/// The monitor every chaos engine mounts: the inline executor with one
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

/// Drives [`run_chaos`]'s lock-step schedule: for every tick of
/// `scenario.tick` up to the horizon it sets the virtual clock, applies
/// the scenario's crash/recover schedule to the sender, polls the sender
/// by its (possibly drifting) local clock, drains every delivery due at
/// the tick, and invokes `on_query` at each `query_every` boundary.
/// Returns the number of transport errors absorbed (expected 0 for
/// in-process transports).
///
/// The bounded model checker replays its counterexamples through the same
/// primitive operations (sender poll, monitor tick) via
/// [`run_chaos_script`], so a schedule found in the model exercises
/// bit-identical runtime code here.
fn drive_lock_step<T, D>(
    scenario: &ChaosScenario,
    clock: &VirtualClock,
    core: &mut SenderCore,
    sender_side: &mut ChannelTransport,
    monitor: &mut ShardedMonitor<T, VirtualClock, D>,
    mut on_query: impl FnMut(Timestamp, &mut ShardedMonitor<T, VirtualClock, D>),
) -> u64
where
    T: Transport,
    D: AccrualFailureDetector,
{
    let mut transport_errors = 0u64;
    let mut next_query = Timestamp::ZERO;
    let mut t = Timestamp::ZERO;
    let end = Timestamp::ZERO + scenario.horizon;
    while t <= end {
        clock.set(t);

        if scenario.crashed_at(t) {
            if !core.is_crashed() {
                core.crash();
            }
        } else if core.is_crashed() {
            core.recover(scenario.sender_time(t));
        }
        // Backoff pauses are skipped in virtual time; the in-process
        // channel cannot transiently fail anyway. The sender paces itself
        // by its own (possibly drifting) clock.
        if core
            .poll(scenario.sender_time(t), sender_side, |_| {})
            .is_err()
        {
            transport_errors += 1;
        }
        // One tick drains every delivery due at this instant.
        if monitor.tick().is_err() {
            transport_errors += 1;
        }

        if t >= next_query {
            on_query(t, monitor);
            next_query += scenario.query_every;
        }
        t += scenario.tick;
    }
    transport_errors
}

/// Every detector of the catalogue's zoo ([`spec::zoo`]), observing one
/// heartbeat stream side by side: simple (§5.1), Chen (§5.2), Bertier,
/// φ (§5.3), the Akka/Cassandra production φ, and the Satzger adaptive
/// accrual, each degradation-wrapped.
///
/// Each member is interpreted at its spec's own threshold, because the
/// detectors speak different languages: the simple detector's level is
/// raw elapsed seconds, Chen's and Bertier's are seconds past the expected
/// arrival, the φ family's is `−log₁₀` of a tail probability, and the
/// adaptive detector's is a plain probability in `[0, 1)`. A single
/// scenario-wide threshold would compare apples to logarithms.
///
/// The zoo is itself an [`AccrualFailureDetector`] (heartbeats broadcast
/// to every member; the headline level is φ's), so it drops into
/// [`ShardedMonitor`] unchanged.
#[derive(Debug)]
pub struct DetectorZoo {
    /// In [`spec::zoo`]'s order.
    members: Vec<GracefulDegradation<AnyDetector>>,
    /// Index of the [`spec::phi`] member, whose level is the zoo's.
    headline: usize,
}

impl DetectorZoo {
    /// The catalogue's zoo with a shared degradation policy.
    pub fn standard(degrade: DegradeConfig) -> Self {
        let zoo = spec::zoo();
        DetectorZoo {
            members: zoo
                .iter()
                .map(|member| GracefulDegradation::new(member.detector.build(), degrade))
                .collect(),
            headline: zoo
                .iter()
                .position(|member| *member == spec::phi())
                .unwrap_or_default(),
        }
    }

    /// Total starvation episodes across the zoo by `now`.
    pub fn degrade_events(&self, now: Timestamp) -> u64 {
        self.members.iter().map(|m| m.degrade_events(now)).sum()
    }
}

impl AccrualFailureDetector for DetectorZoo {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        for member in &mut self.members {
            member.record_heartbeat(arrival);
        }
    }

    /// The zoo's headline level is φ's (every member is sampled
    /// individually by the harness).
    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        self.members[self.headline].suspicion_level(now)
    }

    fn prefetch(&self) {
        for member in &self.members {
            member.prefetch();
        }
    }
}

/// One detector's outcome from a chaos run.
#[derive(Debug)]
pub struct ZooDetectorReport {
    /// The detector's name.
    pub name: &'static str,
    /// The interpretation threshold applied to its levels.
    pub threshold: SuspicionLevel,
    /// The sampled suspicion timeline.
    pub trace: SuspicionTrace,
    /// Streaming QoS estimates from the thresholded output (the paper's
    /// T_D, T_MR, T_M, λ_M, P_A, T_G).
    pub qos: QosReport,
}

/// Everything a chaos run produced.
#[derive(Debug)]
pub struct ChaosReport {
    /// Per-detector traces and QoS, in zoo observation order.
    pub detectors: Vec<ZooDetectorReport>,
    /// What the fault injector did.
    pub fault_stats: FaultStats,
    /// What the monitor's intake saw.
    pub monitor_stats: MonitorStats,
    /// Starvation episodes across all members, counted from the arrivals.
    pub degrade_events: u64,
    /// Heartbeats the sender emitted.
    pub heartbeats_sent: u64,
    /// Transport errors the steady-state loop absorbed (expected 0 for the
    /// in-process transport).
    pub transport_errors: u64,
    /// The structured event trace across all members.
    pub events: Vec<ObsEvent>,
    /// Events evicted from the bounded ring before the run ended.
    pub events_dropped: u64,
    /// Final metrics snapshot: monitor intake, fault injector, sender
    /// retries, degradation counters.
    pub metrics: Snapshot,
}

impl ChaosReport {
    /// A compact fingerprint of every member's suspicion timeline: exact
    /// (timestamp, level-bits) pairs, suitable for determinism assertions.
    pub fn fingerprint(&self) -> Vec<(u64, u64)> {
        self.detectors
            .iter()
            .flat_map(|d| {
                d.trace
                    .iter()
                    .map(|s| (s.at.as_nanos(), s.level.value().to_bits()))
            })
            .collect()
    }
}

/// Runs `scenario` under `seed` to completion in virtual time, with the
/// full six-detector zoo observing the same heartbeat stream and each
/// member thresholded on its own scale.
pub fn run_chaos(scenario: &ChaosScenario, seed: u64) -> ChaosReport {
    let clock = VirtualClock::new();
    let (mut sender_side, monitor_side) = ChannelTransport::pair();
    let injector = FaultInjector::new(
        monitor_side,
        clock.clone(),
        scenario.build_plan(),
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1),
    );
    let degrade = DegradeConfig::for_interval(scenario.heartbeat_interval, 3);
    let process = ProcessId::new(1);
    let mut monitor = single_shard_monitor(injector, &clock, std::iter::once(process), move |_| {
        DetectorZoo::standard(degrade)
    });

    let mut core = SenderCore::new(
        SenderConfig::new(process, scenario.heartbeat_interval),
        Timestamp::ZERO,
        seed,
    );

    let crash = scenario.permanent_crash();
    let mut trackers: Vec<DetectorTracker> = spec::zoo()
        .iter()
        .map(|zoo| DetectorTracker::new(zoo, crash))
        .collect();
    let mut events = EventRing::new(8192);
    let transport_errors = drive_lock_step(
        scenario,
        &clock,
        &mut core,
        &mut sender_side,
        &mut monitor,
        |t, monitor| {
            // `process` is watched at harness setup and never unwatched; a
            // missing detector would mean the harness itself is broken, so
            // skip the query rather than abort the run.
            debug_assert!(monitor.detector_mut(process).is_some(), "process watched");
            if let Some(zoo) = monitor.detector_mut(process) {
                for (member, tracker) in zoo.members.iter_mut().zip(trackers.iter_mut()) {
                    let level = member.suspicion_level(t);
                    let degraded = member.is_degraded(t);
                    tracker.observe(t, level, degraded, process, &mut events);
                }
            }
        },
    );

    let registry = Registry::new();
    monitor.export_metrics(&registry);
    monitor.transport().export_metrics(&registry);
    core.export_metrics(&registry);
    let end = clock.now();
    let degrade_events = monitor.detector_mut(process).map_or(0, |zoo| {
        for (member, tracker) in zoo.members.iter().zip(&trackers) {
            member.export_metrics(&registry, tracker.name, end);
        }
        zoo.degrade_events(end)
    });
    let monitor_stats = monitor.stats().totals;
    let fault_stats = monitor.transport().stats();
    let detectors = trackers
        .into_iter()
        .map(|tracker| ZooDetectorReport {
            name: tracker.name,
            threshold: tracker.threshold,
            qos: tracker.qos.report(),
            trace: tracker.trace,
        })
        .collect();
    ChaosReport {
        detectors,
        fault_stats,
        monitor_stats,
        degrade_events,
        heartbeats_sent: core.sent(),
        transport_errors,
        events_dropped: events.dropped(),
        events: events.drain(),
        metrics: registry.snapshot(),
    }
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
    /// Crash a sender: it stops emitting heartbeats until recovered.
    Crash(ProcessId),
    /// Recover a crashed sender; its next heartbeat is due immediately.
    Recover(ProcessId),
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
            ScriptEvent::Crash(p) => {
                let (_, core, _) = senders
                    .iter_mut()
                    .find(|(id, _, _)| *id == p)
                    // lint:allow(no-panic-paths, a malformed script is a harness bug and must abort the run)
                    .expect("script crashes an unknown process");
                core.crash();
            }
            ScriptEvent::Recover(p) => {
                let (_, core, _) = senders
                    .iter_mut()
                    .find(|(id, _, _)| *id == p)
                    // lint:allow(no-panic-paths, a malformed script is a harness bug and must abort the run)
                    .expect("script recovers an unknown process");
                core.recover(t);
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use afd_detectors::simple::SimpleAccrual;

    #[test]
    fn the_zoo_has_no_curve() {
        // Its headline member (φ) has one, but every member sits behind a
        // `GracefulDegradation`, whose level is piecewise.
        let mut zoo = DetectorZoo::standard(DegradeConfig::default());
        assert_eq!(zoo.level_curve(), None);
        for s in 1..=10 {
            zoo.record_heartbeat(Timestamp::from_secs(s));
        }
        assert_eq!(zoo.level_curve(), None);
        // As a shard generic over `&mut DetectorZoo` would ask.
        fn through<D: AccrualFailureDetector>(d: D) -> Option<afd_core::accrual::LevelCurve> {
            d.level_curve()
        }
        assert_eq!(through(&mut zoo), None);
    }

    #[test]
    fn quiet_run_keeps_levels_low() {
        let scenario = ChaosScenario::new(Duration::from_secs(30));
        let report = run_chaos(&scenario, 1);
        assert!(report.heartbeats_sent >= 29);
        assert_eq!(report.transport_errors, 0);
        assert_eq!(report.monitor_stats.corrupt, 0);
        for d in &report.detectors {
            let max = d.trace.max_level().unwrap();
            assert!(
                max.value() < 5.0,
                "{}: quiet run should stay calm, peaked at {max}",
                d.name
            );
        }
    }

    #[test]
    fn all_six_detectors_run_and_accrue_after_a_crash() {
        let mut scenario = ChaosScenario::new(Duration::from_secs(60));
        scenario.crashes.push((Timestamp::from_secs(30), None));
        let report = run_chaos(&scenario, 7);
        assert_eq!(report.transport_errors, 0);
        let names: Vec<_> = report.detectors.iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            ["simple", "chen", "bertier", "phi", "akka", "adaptive"]
        );
        for d in &report.detectors {
            let last = d.trace.samples().last().unwrap();
            let at_crash = d
                .trace
                .iter()
                .find(|s| s.at >= Timestamp::from_secs(30))
                .unwrap();
            assert!(
                last.level.value() > at_crash.level.value(),
                "{}: no accrual after crash",
                d.name
            );
            // Every member crossed its own threshold and the online QoS
            // recorded a finite detection time.
            let td = d.qos.detection_time;
            assert!(
                td.is_some_and(|td| td < 15.0),
                "{}: detection time {td:?}",
                d.name
            );
        }
        assert!(
            report.degrade_events > 0,
            "long silence must trigger fallback"
        );
    }

    #[test]
    fn slow_sender_clock_stretches_heartbeat_pacing() {
        let mut slow = ChaosScenario::new(Duration::from_secs(60));
        slow.clock_drift = 0.8; // sender's seconds are 1.25 true seconds
        let drifted = run_chaos(&slow, 3);
        let baseline = run_chaos(&ChaosScenario::new(Duration::from_secs(60)), 3);
        assert!(
            drifted.heartbeats_sent < baseline.heartbeats_sent,
            "slow clock must emit fewer heartbeats: {} vs {}",
            drifted.heartbeats_sent,
            baseline.heartbeats_sent
        );
        // ~60 true seconds × 0.8 sender-seconds each ≈ 48 heartbeats.
        assert!(
            (44..=52).contains(&(drifted.heartbeats_sent as i64)),
            "got {}",
            drifted.heartbeats_sent
        );
    }

    #[test]
    fn script_delivers_heartbeats_and_levels_reset() {
        let mut script = ChaosScript::new(1);
        script.tick = Duration::from_secs(1);
        // One heartbeat is in flight at t=0. Deliver it, advance a tick
        // (emitting the next), deliver that too, then let two ticks pass
        // whose frames stay undelivered so suspicion accrues.
        script.events = vec![
            ScriptEvent::Deliver(0),
            ScriptEvent::Tick,
            ScriptEvent::Deliver(0),
            ScriptEvent::Tick,
            ScriptEvent::Tick,
        ];
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
        script.events = vec![
            ScriptEvent::Duplicate(0),
            ScriptEvent::Deliver(0),
            ScriptEvent::Deliver(0),
        ];
        let report = run_chaos_script(&script, |_| SimpleAccrual::new(Timestamp::ZERO));
        assert_eq!(report.monitor_stats.accepted, 1);
        assert_eq!(report.monitor_stats.duplicate, 1, "Algorithm 4 dedup");
    }

    #[test]
    fn script_crash_silences_and_recover_resumes() {
        let p = ProcessId::new(1);
        let mut script = ChaosScript::new(1);
        script.tick = Duration::from_secs(1);
        script.events = vec![
            ScriptEvent::Deliver(0),
            ScriptEvent::Crash(p),
            ScriptEvent::Tick,
            ScriptEvent::Tick,
            ScriptEvent::Recover(p),
            ScriptEvent::Tick,
            ScriptEvent::Deliver(0),
        ];
        let report = run_chaos_script(&script, |_| SimpleAccrual::new(Timestamp::ZERO));
        // Crashed ticks emit nothing; recovery emits on the next tick.
        assert_eq!(report.heartbeats_sent, 2);
        let last = report.trace.last().unwrap();
        assert_eq!(last.levels[0].1.value(), 0.0);
    }

    #[test]
    fn script_drop_loses_the_frame() {
        let mut script = ChaosScript::new(1);
        script.tick = Duration::from_secs(1);
        script.events = vec![
            ScriptEvent::Drop(0),
            ScriptEvent::Tick,
            ScriptEvent::Deliver(0),
        ];
        let report = run_chaos_script(&script, |_| SimpleAccrual::new(Timestamp::ZERO));
        assert_eq!(report.monitor_stats.accepted, 1);
        assert_eq!(report.undelivered, 0);
    }

    #[test]
    fn script_out_of_order_delivery_is_stale_filtered() {
        let mut script = ChaosScript::new(1);
        script.tick = Duration::from_secs(1);
        // Two frames in flight (t=0 and t=1); deliver the newer first.
        script.events = vec![
            ScriptEvent::Tick,
            ScriptEvent::Deliver(1),
            ScriptEvent::Deliver(0),
        ];
        let report = run_chaos_script(&script, |_| SimpleAccrual::new(Timestamp::ZERO));
        assert_eq!(report.monitor_stats.accepted, 1);
        assert_eq!(report.monitor_stats.stale, 1, "Algorithm 4 freshness");
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let mut scenario = ChaosScenario::new(Duration::from_secs(40));
        scenario.burst_loss = Some((0.05, 4.0));
        scenario.jitter = Some((Duration::from_millis(5), Duration::from_millis(80)));
        scenario.duplicate = 0.1;
        scenario.corrupt = 0.05;
        scenario
            .partitions
            .push((Timestamp::from_secs(10), Timestamp::from_secs(15)));
        let a = run_chaos(&scenario, 42);
        let b = run_chaos(&scenario, 42);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = run_chaos(&scenario, 43);
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed must matter");
    }
}
