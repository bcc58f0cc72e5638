//! Bounded exhaustive model checking for the paper's algorithms.
//!
//! The simulator (`afd-sim`), whose traces chaos runs replay through the
//! shipping monitor, samples the schedule space; this crate *enumerates*
//! it. The heartbeat system —
//! senders pacing Algorithm 4's sequence-numbered frames, a lossy
//! duplicating network, the monitor's freshness filter, a zoo detector,
//! and the full Algorithm 1/2/3 interpreter stack — is modeled as a
//! finite transition system whose alphabet is
//!
//! > tick · deliver(i) · drop(i) · duplicate(i) · crash(p)
//!
//! and every interleaving within [`ModelBounds`] is explored by
//! depth-first search with canonical-state merging
//! ([`afd_core::canonical`]). At **every** transition the checker
//! verifies, as state-local invariants:
//!
//! - **Accruement** (Property 1, §3): after a crash, once nothing is left
//!   in flight, the suspicion level never decreases.
//! - **Upper bound** (Property 2's mechanism, §3): an accepted fresh
//!   heartbeat never *raises* the level.
//! - **Algorithm 1** (§4.1): S-transitions raise `SL_susp` to the
//!   triggering level and are bounded by `SL_susp/ε + 1`.
//! - **Algorithm 2** (§4.2): ε accrual per suspected verdict, reset on
//!   trusted.
//! - **Algorithm 3** (§4.4): the hysteresis implementation matches the
//!   paper's transition spec exactly (strict `>` high, `≤` low).
//! - **QoS orderings** (§4.4): conservative interpreters' suspect sets
//!   are contained in aggressive ones', threshold in hysteresis.
//! - **Algorithm 4** (§5.1): non-fresh frames leave the detector
//!   untouched.
//!
//! A violation comes back as a [`Counterexample`]: the event path from
//! the initial state, shrinkable to a 1-minimal schedule
//! ([`replay::minimize`]) and convertible to a replayable
//! [`afd_runtime::ChaosScript`] ([`replay::to_script`]) so the finding
//! can be confirmed against the real sender/monitor stack.
//!
//! Soundness is demonstrated, not assumed: [`Mutant`] plants one defect
//! at a time (a saw-toothing level, a dropped sequence check, an
//! off-by-one hysteresis, a missing threshold raise, a missing reset),
//! and the test suite asserts every mutant is caught.
//!
//! Everything here is deterministic by construction — `BTreeSet` instead
//! of hash sets (enforced by the root `clippy.toml`),
//! no clocks, no randomness — so a state count from one run is
//! reproducible anywhere.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests compare exact values"))]

pub mod bounds;
pub mod explore;
pub mod mutants;
pub mod replay;
pub mod state;

pub use bounds::ModelBounds;
pub use explore::{explore, find_counterexample, Counterexample, ExploreReport};
pub use mutants::Mutant;
pub use replay::{minimize, model_trace, replay, to_script};
pub use state::{Frame, ModelEvent, ModelState, Property, Violation};
