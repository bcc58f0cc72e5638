//! Exploration bounds: the knobs that keep the bounded-exhaustive search
//! finite and fast.
//!
//! Every source of branching carries a budget. Ticks are bounded by
//! `max_ticks`; losses, duplicates, and crashes by their own counters; and
//! *delivery delay* by the pair (`max_deferrals`, `max_frame_age`): a tick
//! may only happen while frames are still in flight by spending a deferral
//! token, and never while a frame has already aged `max_frame_age` ticks —
//! an over-age frame forces resolution (delivery or a budgeted loss)
//! first. Without the delay budget the state space is exponential in the
//! horizon; with it, the search is dominated by *where* the few faults
//! land, which is exactly the space the paper's properties quantify over.

use afd_core::time::Duration;

/// Bounds for one exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelBounds {
    /// Number of monitored sender processes (ids `1..=processes`).
    pub processes: u32,
    /// Virtual-time horizon, in ticks.
    pub max_ticks: u32,
    /// Cap on simultaneously in-flight frames; a tick that would emit past
    /// the cap is disabled until the pool drains.
    pub max_in_flight: usize,
    /// Heartbeat cadence, in ticks (Algorithm 4's Δ_i).
    pub heartbeat_every: u32,
    /// Wall-time meaning of one tick (only matters for the runtime replay
    /// and the absolute level values; the search itself is tick-indexed).
    pub tick: Duration,
    /// How many frames may be lost across the whole run.
    pub max_losses: u32,
    /// How many frames may be duplicated across the whole run.
    pub max_duplicates: u32,
    /// How many processes may crash (crashes are permanent, in the model
    /// and in its runtime replay alike).
    pub max_crashes: u32,
    /// How many ticks may pass while frames are still undelivered — the
    /// total delivery-delay budget of the schedule.
    pub max_deferrals: u32,
    /// Oldest a frame may grow, in ticks, before the schedule must resolve
    /// it; ticking past this age is disabled.
    pub max_frame_age: u32,
}

impl ModelBounds {
    /// Algorithm 4's Δ_i in time: `heartbeat_every` ticks.
    pub fn heartbeat_interval(&self) -> Duration {
        self.tick.mul_f64(f64::from(self.heartbeat_every))
    }

    /// The e17 exhaustive bounds: 2 processes, 30 ticks, 4 in-flight.
    /// One loss, one duplicate, one crash, one deferral — every fault
    /// class present at every schedule position, ~4.9 million canonical
    /// states per detector-kind sextet in ~20 s of release-mode search.
    pub fn exhaustive() -> Self {
        ModelBounds {
            processes: 2,
            max_ticks: 30,
            max_in_flight: 4,
            heartbeat_every: 2,
            tick: Duration::from_secs(1),
            max_losses: 1,
            max_duplicates: 1,
            max_crashes: 1,
            max_deferrals: 1,
            max_frame_age: 1,
        }
    }

    /// Reduced bounds for CI smoke runs: same shape, shorter horizon
    /// (~400 k canonical states across the six kinds, seconds even in
    /// debug builds).
    pub fn smoke() -> Self {
        ModelBounds {
            max_ticks: 12,
            ..ModelBounds::exhaustive()
        }
    }

    /// Tiny single-process bounds for mutation hunting: counterexamples to
    /// the seeded bugs live within a handful of ticks, and the iterative
    /// deepening loop wants cheap rounds.
    pub fn mutant_hunt() -> Self {
        ModelBounds {
            processes: 1,
            max_ticks: 10,
            max_in_flight: 3,
            heartbeat_every: 2,
            tick: Duration::from_secs(1),
            max_losses: 1,
            max_duplicates: 1,
            max_crashes: 1,
            max_deferrals: 2,
            max_frame_age: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_internally_consistent() {
        for b in [
            ModelBounds::exhaustive(),
            ModelBounds::smoke(),
            ModelBounds::mutant_hunt(),
        ] {
            assert!(b.processes >= 1);
            assert!(b.max_in_flight >= b.processes as usize);
            assert!(b.heartbeat_every >= 1);
            assert!(b.max_frame_age >= 1);
            assert!(!b.tick.is_zero());
        }
    }
}
