//! Counterexample replay and minimization.
//!
//! A raw counterexample from the explorer is an event path. This module
//! (a) replays paths against a fresh model to validate them, (b) shrinks
//! them by greedy event removal to a locally-minimal violating schedule,
//! and (c) drives them through the shipping sender and monitor
//! ([`runtime_trace`]), so a model finding is a *runnable artifact*: the
//! same schedule runs on the production code path, level by level.

use afd_core::accrual::AccrualFailureDetector;
use afd_core::process::ProcessId;
use afd_core::time::Timestamp;
use afd_detectors::spec::ZooSpec;
use afd_runtime::{
    ChannelTransport, FrameBatch, MonitorStats, SenderConfig, SenderCore, ShardConfig,
    ShardedMonitor, Transport, TransportError, VirtualClock,
};

use crate::bounds::ModelBounds;
use crate::explore::Counterexample;
use crate::mutants::Mutant;
use crate::state::{ModelEvent, ModelState, Violation};

/// Replays `path` from the initial state of `(spec, mutant, bounds)`.
/// Returns the violation and the index of the event that fired it, or
/// `None` if the path runs clean (or an event is disabled mid-way, which
/// means the candidate schedule is invalid and cannot witness anything).
pub fn replay(
    spec: ZooSpec,
    mutant: Mutant,
    bounds: ModelBounds,
    path: &[ModelEvent],
) -> Option<(usize, Violation)> {
    let mut state = ModelState::initial(spec, mutant, bounds);
    for (i, &event) in path.iter().enumerate() {
        if !state.is_enabled(event) {
            return None;
        }
        if let Err(violation) = state.apply(event) {
            return Some((i, violation));
        }
    }
    None
}

/// Greedily minimizes a counterexample: repeatedly try dropping each
/// single event; keep any shorter schedule that still violates (the same
/// property is not required — any violation is a finding), truncated at
/// its violation. Loops to a fixed point, so the result is 1-minimal: no
/// single event can be removed without losing the violation.
pub fn minimize(
    spec: ZooSpec,
    mutant: Mutant,
    bounds: ModelBounds,
    cex: &Counterexample,
) -> Counterexample {
    let mut best_path = cex.path.clone();
    let mut best_violation = cex.violation.clone();
    // The explorer's path ends at the violating event; still, normalize by
    // replaying so minimization starts from a validated baseline.
    if let Some((i, v)) = replay(spec, mutant, bounds, &best_path) {
        best_path.truncate(i + 1);
        best_violation = v;
    }
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < best_path.len() {
            let mut candidate = best_path.clone();
            candidate.remove(i);
            if let Some((j, v)) = replay(spec, mutant, bounds, &candidate) {
                candidate.truncate(j + 1);
                best_path = candidate;
                best_violation = v;
                shrunk = true;
                // Restart scanning: indices shifted.
                i = 0;
            } else {
                i += 1;
            }
        }
        if !shrunk {
            break;
        }
    }
    Counterexample {
        violation: best_violation,
        path: best_path,
    }
}

/// Replays `path` on a fresh model, sampling every process's suspicion
/// level after each event — the model-side mirror of [`runtime_trace`],
/// used by the model-vs-runtime equivalence tests.
///
/// # Panics
///
/// Panics if the path is invalid or violates — trace extraction is for
/// clean schedules.
pub fn model_trace(spec: ZooSpec, bounds: ModelBounds, path: &[ModelEvent]) -> Vec<Vec<f64>> {
    let mut state = ModelState::initial(spec, Mutant::None, bounds);
    let mut trace = Vec::with_capacity(path.len());
    for &event in path {
        assert!(state.is_enabled(event), "trace path disabled at {event:?}");
        state.apply(event).expect("trace path must run clean");
        trace.push(state.levels());
    }
    trace
}

/// What the shipping sender and monitor did with one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeTrace {
    /// Every process's suspicion level after each event, in process-id
    /// order: the shape [`model_trace`] returns.
    pub levels: Vec<Vec<f64>>,
    /// What the monitor's intake saw (duplicates and stale frames are
    /// counted here — Algorithm 4's freshness filter at work).
    pub monitor_stats: MonitorStats,
    /// Heartbeats emitted across all senders.
    pub heartbeats_sent: u64,
    /// Frames still in flight when the schedule ended.
    pub undelivered: usize,
}

/// The in-flight pool, and the transport every sender sends into: frames
/// stay here until the schedule delivers, drops or duplicates them.
#[derive(Debug, Default)]
struct InFlight(Vec<Vec<u8>>);

impl Transport for InFlight {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.0.push(frame.to_vec());
        Ok(())
    }

    fn recv_batch(&mut self, _batch: &mut FrameBatch) -> Result<usize, TransportError> {
        Ok(0)
    }
}

/// Replays `path` through the shipping pipeline in virtual time: one
/// v1-wire [`SenderCore`] per process of `bounds`, and the inline
/// [`ShardedMonitor`] with one shard — the single-stream reading of
/// Algorithm 4 — watching each of them with `spec`'s model-sized
/// detector.
///
/// Heartbeats due at time zero enter the in-flight pool before the first
/// event (a sender's first frame is due at its start), and each
/// [`ModelEvent::Tick`] advances the clock one tick and emits whatever came
/// due, senders polled in process-id order. After every event each
/// process's level is read, so the trace compares point by point with
/// [`model_trace`]'s.
///
/// # Panics
///
/// Panics if an event addresses an in-flight index or process id that
/// does not exist: the model only enables valid events, so an invalid
/// one means the model and the runtime have drifted apart — exactly what
/// the replay is meant to catch.
pub fn runtime_trace(spec: ZooSpec, bounds: ModelBounds, path: &[ModelEvent]) -> RuntimeTrace {
    let interval = bounds.heartbeat_interval();
    let detector = spec
        .detector
        .model_sized(interval)
        .expect("model bounds space heartbeats a positive interval apart");
    let clock = VirtualClock::new();
    let (mut feed, monitor_side) = ChannelTransport::pair();
    let config = ShardConfig {
        shards: 1,
        slots_per_shard: bounds.processes as usize,
    };
    let mut monitor = ShardedMonitor::new(monitor_side, clock.clone(), config, move |_| {
        detector.build()
    });
    let mut senders: Vec<(ProcessId, SenderCore)> = (1..=bounds.processes)
        .map(ProcessId::new)
        .map(|p| {
            monitor
                .watch(p)
                .expect("the shard is sized for every sender");
            let core = SenderCore::new(SenderConfig::new(p, interval), Timestamp::ZERO, 0);
            (p, core)
        })
        .collect();

    let mut in_flight = InFlight::default();
    let mut t = Timestamp::ZERO;
    clock.set(t);
    emit_due(t, &mut senders, &mut in_flight);

    let mut levels = Vec::with_capacity(path.len());
    for &event in path {
        match event {
            ModelEvent::Tick => {
                t += bounds.tick;
                clock.set(t);
                emit_due(t, &mut senders, &mut in_flight);
            }
            ModelEvent::Deliver(i) => {
                let frame = in_flight.0.remove(i);
                feed.send(&frame).expect("in-process feed is infallible");
                monitor.tick().expect("in-process tick is infallible");
            }
            ModelEvent::Drop(i) => {
                in_flight.0.remove(i);
            }
            ModelEvent::Duplicate(i) => {
                let copy = in_flight.0[i].clone();
                in_flight.0.push(copy);
            }
            ModelEvent::Crash(p) => {
                let (_, core) = senders
                    .iter_mut()
                    .find(|(id, _)| *id == p)
                    .expect("schedule addresses an unknown process");
                core.crash();
            }
        }
        let sample = senders.iter().map(|&(p, _)| {
            let detector = monitor.detector_mut(p).expect("every sender is watched");
            detector.suspicion_level(t).value()
        });
        levels.push(sample.collect());
    }

    RuntimeTrace {
        levels,
        monitor_stats: monitor.stats().totals,
        heartbeats_sent: senders.iter().map(|(_, core)| core.sent()).sum(),
        undelivered: in_flight.0.len(),
    }
}

/// Every heartbeat due at `t`, sent into the in-flight pool.
fn emit_due(t: Timestamp, senders: &mut [(ProcessId, SenderCore)], in_flight: &mut InFlight) {
    for (_, core) in senders {
        core.poll(t, in_flight, |_| {})
            .expect("the in-flight pool accepts every frame");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::find_counterexample;
    use crate::state::Property;
    use afd_core::time::Duration;
    use afd_detectors::spec;
    use ModelEvent::*;

    /// One sender, a 250 ms tick, a heartbeat due every 1 s.
    fn quarter_ticks() -> ModelBounds {
        ModelBounds {
            tick: Duration::from_millis(250),
            heartbeat_every: 4,
            ..ModelBounds::mutant_hunt()
        }
    }

    /// One sender, a 1 s tick, a heartbeat due at every one.
    fn second_ticks() -> ModelBounds {
        ModelBounds {
            heartbeat_every: 1,
            ..ModelBounds::mutant_hunt()
        }
    }

    #[test]
    fn replay_reproduces_an_explorer_finding() {
        let bounds = ModelBounds::mutant_hunt();
        let cex = find_counterexample(spec::simple(), Mutant::HysteresisOffByOne, bounds)
            .expect("mutant must be caught");
        let (i, v) = replay(
            spec::simple(),
            Mutant::HysteresisOffByOne,
            bounds,
            &cex.path,
        )
        .expect("explorer path must replay to a violation");
        assert_eq!(i, cex.path.len() - 1, "violation fires on the last event");
        assert_eq!(v.property, cex.violation.property);
    }

    #[test]
    fn minimize_only_shrinks_and_still_violates() {
        let bounds = ModelBounds::mutant_hunt();
        let cex = find_counterexample(spec::simple(), Mutant::HysteresisOffByOne, bounds)
            .expect("mutant must be caught");
        let min = minimize(spec::simple(), Mutant::HysteresisOffByOne, bounds, &cex);
        assert!(min.path.len() <= cex.path.len());
        let (_, v) = replay(
            spec::simple(),
            Mutant::HysteresisOffByOne,
            bounds,
            &min.path,
        )
        .expect("minimized path must still violate");
        assert_eq!(v.property, min.violation.property);
        // 1-minimality: removing any single event loses the violation.
        for i in 0..min.path.len() {
            let mut candidate = min.path.clone();
            candidate.remove(i);
            assert!(
                replay(
                    spec::simple(),
                    Mutant::HysteresisOffByOne,
                    bounds,
                    &candidate
                )
                .is_none(),
                "dropping event {i} still violates; not 1-minimal"
            );
        }
    }

    #[test]
    fn model_trace_samples_after_every_event() {
        let bounds = ModelBounds::mutant_hunt();
        let path = [ModelEvent::Deliver(0), ModelEvent::Tick, ModelEvent::Tick];
        let trace = model_trace(spec::simple(), bounds, &path);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].len(), 1, "one process per sample");
        // Simple detector: elapsed/interval == 0 right after delivery at
        // t=0, then grows tick by tick.
        assert!(trace[2][0] > trace[1][0]);
    }

    #[test]
    fn accruement_sawtooth_is_caught_and_minimizes() {
        let bounds = ModelBounds::mutant_hunt();
        let cex = find_counterexample(spec::simple(), Mutant::NonMonotoneAccrual, bounds)
            .expect("sawtooth mutant must be caught");
        assert_eq!(cex.violation.property, Property::Accruement);
        let min = minimize(spec::simple(), Mutant::NonMonotoneAccrual, bounds, &cex);
        assert!(replay(
            spec::simple(),
            Mutant::NonMonotoneAccrual,
            bounds,
            &min.path
        )
        .is_some());
    }

    #[test]
    fn script_delivers_heartbeats_and_levels_reset() {
        // One heartbeat is in flight at t=0. Deliver it, advance a tick
        // (emitting the next), deliver that too, then let two ticks pass
        // whose frames stay undelivered so suspicion accrues.
        let path = [Deliver(0), Tick, Deliver(0), Tick, Tick];
        let report = runtime_trace(spec::simple(), second_ticks(), &path);
        assert_eq!(report.heartbeats_sent, 4);
        assert_eq!(report.undelivered, 2);
        assert_eq!(report.monitor_stats.accepted, 2);
        let levels: Vec<f64> = report.levels.iter().map(|l| l[0]).collect();
        // After each event: deliver@0 → 0, tick → 1 (emits), deliver → 0,
        // two undelivered ticks → 1, 2.
        assert_eq!(levels, vec![0.0, 1.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn script_duplicate_is_rejected_by_freshness_filter() {
        let path = [Duplicate(0), Deliver(0), Deliver(0)];
        let report = runtime_trace(spec::simple(), quarter_ticks(), &path);
        assert_eq!(report.monitor_stats.accepted, 1);
        assert_eq!(report.monitor_stats.duplicate, 1, "Algorithm 4 dedup");
    }

    #[test]
    fn script_crash_silences() {
        let p = ProcessId::new(1);
        let path = [Deliver(0), Crash(p), Tick, Tick];
        let report = runtime_trace(spec::simple(), second_ticks(), &path);
        // Crashed ticks emit nothing, so suspicion grows from the one
        // delivered heartbeat.
        assert_eq!(report.heartbeats_sent, 1);
        assert_eq!(report.undelivered, 0);
        let last = report.levels.last().unwrap();
        assert_eq!(last[0], 2.0);
    }

    #[test]
    fn script_drop_loses_the_frame() {
        let path = [Drop(0), Tick, Deliver(0)];
        let report = runtime_trace(spec::simple(), second_ticks(), &path);
        assert_eq!(report.monitor_stats.accepted, 1);
        assert_eq!(report.undelivered, 0);
    }

    #[test]
    fn script_out_of_order_delivery_is_stale_filtered() {
        // Two frames in flight (t=0 and t=1); deliver the newer first.
        let path = [Tick, Deliver(1), Deliver(0)];
        let report = runtime_trace(spec::simple(), second_ticks(), &path);
        assert_eq!(report.monitor_stats.accepted, 1);
        assert_eq!(report.monitor_stats.stale, 1, "Algorithm 4 freshness");
    }
}
