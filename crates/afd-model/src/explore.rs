//! The bounded-exhaustive explorer: iterative depth-first search over the
//! transition system with canonical-state merging.
//!
//! The search keeps an explicit stack (a model state easily survives a
//! 60-tick horizon, but the recursion depth would not), clones the state
//! per transition, and prunes any successor whose canonical digest is
//! already in the seen set. The seen set is a `BTreeSet<u128>` — ordered,
//! deterministic iteration, and no hashing randomness; `std` hash maps are
//! banned from the workspace by the root `clippy.toml`.

use std::collections::BTreeSet;

use afd_detectors::spec::ZooSpec;

use crate::bounds::ModelBounds;
use crate::mutants::Mutant;
use crate::state::{ModelEvent, ModelState, Violation};

/// A violation plus the event path that reaches it from the initial state.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The property that failed and its evidence.
    pub violation: Violation,
    /// The events from the initial state up to and including the one whose
    /// application fired the violation.
    pub path: Vec<ModelEvent>,
}

/// What one exhaustive run saw.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct canonical states expanded (the seen-set size).
    pub states: u64,
    /// Transitions applied, including ones into already-seen states.
    pub transitions: u64,
    /// Deepest event path reached.
    pub max_depth: usize,
    /// The first violation found, with its path — `None` on a clean run.
    pub counterexample: Option<Counterexample>,
}

/// Exhaustively explores every schedule within `bounds` for `spec` under
/// `mutant`, stopping at the first violation.
pub fn explore(spec: ZooSpec, mutant: Mutant, bounds: ModelBounds) -> ExploreReport {
    let initial = ModelState::initial(spec, mutant, bounds);
    let mut seen: BTreeSet<u128> = BTreeSet::new();
    seen.insert(initial.digest());

    // Each stack entry: the state, its enabled events, and the index of
    // the next event to try.
    let mut stack: Vec<(ModelState, Vec<ModelEvent>, usize)> = Vec::new();
    let enabled = initial.enabled_events();
    stack.push((initial, enabled, 0));
    let mut path: Vec<ModelEvent> = Vec::new();

    let mut transitions = 0u64;
    let mut max_depth = 0usize;

    while let Some((state, events, next)) = stack.last_mut() {
        if *next >= events.len() {
            stack.pop();
            path.pop();
            continue;
        }
        let event = events[*next];
        *next += 1;

        let mut successor = state.clone();
        transitions += 1;
        if let Err(violation) = successor.apply(event) {
            path.push(event);
            return ExploreReport {
                states: seen.len() as u64,
                transitions,
                max_depth: max_depth.max(path.len()),
                counterexample: Some(Counterexample {
                    violation,
                    path: path.clone(),
                }),
            };
        }
        if seen.insert(successor.digest()) {
            path.push(event);
            max_depth = max_depth.max(path.len());
            let enabled = successor.enabled_events();
            stack.push((successor, enabled, 0));
        }
    }

    ExploreReport {
        states: seen.len() as u64,
        transitions,
        max_depth,
        counterexample: None,
    }
}

/// Searches for a counterexample with iterative deepening over the tick
/// horizon: explore with `max_ticks = 0, 1, …, bounds.max_ticks` and
/// return the first hit. Because a shorter horizon is a subset of a longer
/// one, the first hit is minimal in horizon length, which keeps the raw
/// counterexample short before [`crate::replay::minimize`] shrinks it
/// further.
pub fn find_counterexample(
    spec: ZooSpec,
    mutant: Mutant,
    bounds: ModelBounds,
) -> Option<Counterexample> {
    for horizon in 0..=bounds.max_ticks {
        let staged = ModelBounds {
            max_ticks: horizon,
            ..bounds
        };
        let report = explore(spec, mutant, staged);
        if report.counterexample.is_some() {
            return report.counterexample;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Property;
    use afd_detectors::spec;

    #[test]
    fn clean_system_has_no_counterexample_at_tiny_bounds() {
        let bounds = ModelBounds {
            max_ticks: 6,
            ..ModelBounds::mutant_hunt()
        };
        let report = explore(spec::simple(), Mutant::None, bounds);
        assert!(
            report.counterexample.is_none(),
            "violation on the real system: {:?}",
            report.counterexample
        );
        assert!(report.states > 10, "search degenerated: {report:?}");
        assert!(report.transitions >= report.states);
    }

    #[test]
    fn merging_actually_merges() {
        // With two processes the diamond (deliver A then B vs B then A)
        // must collapse, so transitions strictly exceed states.
        let bounds = ModelBounds {
            processes: 2,
            max_ticks: 6,
            ..ModelBounds::mutant_hunt()
        };
        let report = explore(spec::simple(), Mutant::None, bounds);
        assert!(report.counterexample.is_none());
        assert!(
            report.transitions > report.states,
            "no state merging happened: {report:?}"
        );
    }

    #[test]
    fn hysteresis_off_by_one_is_caught() {
        let cex = find_counterexample(
            spec::simple(),
            Mutant::HysteresisOffByOne,
            ModelBounds::mutant_hunt(),
        )
        .expect("mutant must be caught");
        assert_eq!(cex.violation.property, Property::HysteresisSpec);
        assert!(!cex.path.is_empty());
    }

    #[test]
    fn deepening_starts_at_horizon_zero() {
        // A duplicated first heartbeat needs no tick at all: both copies
        // are in flight before the clock moves.
        let bounds = ModelBounds {
            max_ticks: 0,
            ..ModelBounds::mutant_hunt()
        };
        let cex = find_counterexample(spec::simple(), Mutant::DroppedSeqCheck, bounds)
            .expect("a tick-free schedule exists");
        assert_eq!(cex.violation.property, Property::Alg4Freshness);
    }
}
