//! Counterexample replay and minimization.
//!
//! A raw counterexample from the explorer is an event path. This module
//! (a) replays paths against a fresh model to validate them, (b) shrinks
//! them by greedy event removal to a locally-minimal violating schedule,
//! and (c) converts them into [`afd_runtime::ChaosScript`]s, so a model
//! finding is a *runnable artifact*: the same schedule can be driven
//! through the real sender/monitor stack via
//! [`afd_runtime::run_chaos_script`].

use afd_detectors::spec::ZooSpec;
use afd_runtime::{ChaosScript, ScriptEvent};

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

/// Converts a model event path into a replayable chaos script. The
/// mapping is one-to-one: model frame indices are in-flight pool indices
/// in the harness too, and both remove frames with stable ordering, so
/// index `i` refers to the same frame on both sides.
pub fn to_script(bounds: &ModelBounds, path: &[ModelEvent]) -> ChaosScript {
    let mut script = ChaosScript::new(bounds.processes);
    script.tick = bounds.tick;
    script.heartbeat_interval = bounds.tick.mul_f64(f64::from(bounds.heartbeat_every));
    script.events = path
        .iter()
        .map(|&e| match e {
            ModelEvent::Tick => ScriptEvent::Tick,
            ModelEvent::Deliver(i) => ScriptEvent::Deliver(i),
            ModelEvent::Drop(i) => ScriptEvent::Drop(i),
            ModelEvent::Duplicate(i) => ScriptEvent::Duplicate(i),
            ModelEvent::Crash(p) => ScriptEvent::Crash(p),
        })
        .collect();
    script
}

/// Replays `path` on a fresh model, sampling every process's suspicion
/// level after each event — the model-side mirror of the trace
/// [`afd_runtime::run_chaos_script`] collects, used by the
/// model-vs-runtime equivalence tests.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::find_counterexample;
    use crate::state::Property;
    use afd_detectors::spec;

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
    fn script_conversion_is_one_to_one() {
        let bounds = ModelBounds::mutant_hunt();
        let path = [
            ModelEvent::Deliver(0),
            ModelEvent::Tick,
            ModelEvent::Drop(0),
            ModelEvent::Tick,
        ];
        let script = to_script(&bounds, &path);
        assert_eq!(script.senders, bounds.processes);
        assert_eq!(script.events.len(), path.len());
        assert_eq!(script.events[0], ScriptEvent::Deliver(0));
        assert_eq!(script.events[2], ScriptEvent::Drop(0));
        assert_eq!(
            script.heartbeat_interval.as_nanos(),
            bounds.tick.as_nanos() * u64::from(bounds.heartbeat_every)
        );
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
}
