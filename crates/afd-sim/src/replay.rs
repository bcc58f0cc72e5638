//! The query schedule of a trace replay.
//!
//! A replay merges a trace's heartbeat deliveries with a periodic query
//! schedule and reads the detector's level at every query, producing the
//! suspicion-level history of §2. [`ReplayConfig`] is that schedule and
//! the monitor's clock mapping; the replay itself runs on the shipping
//! monitor, as `afd_runtime::replay`, where Algorithm 4's freshness rule
//! lives once for every receive path.

use afd_core::time::{Duration, Timestamp};

use crate::clock::DriftingClock;

/// The query schedule for a replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Time between consecutive queries (the monitor's step cadence), in
    /// global time.
    pub query_interval: Duration,
    /// Time of the first query, in global time.
    pub first_query: Timestamp,
    /// The monitor's local clock. The detector lives entirely in local
    /// time — heartbeat arrivals are recorded in it, and each query
    /// instant is translated onto it — while the returned history stays
    /// indexed by *global* time (the `t` of `H(p, t)` in §2), which is
    /// what QoS analysis compares against global crash times.
    pub monitor_clock: DriftingClock,
}

impl ReplayConfig {
    /// Queries every `query_interval`, starting one interval in.
    ///
    /// # Panics
    ///
    /// Panics if `query_interval` is zero.
    pub fn every(query_interval: Duration) -> Self {
        assert!(!query_interval.is_zero(), "query interval must be positive");
        ReplayConfig {
            query_interval,
            first_query: Timestamp::ZERO + query_interval,
            monitor_clock: DriftingClock::perfect(),
        }
    }

    /// Returns a copy with a different first-query time.
    pub fn starting_at(mut self, first_query: Timestamp) -> Self {
        self.first_query = first_query;
        self
    }

    /// Returns a copy using the given monitor clock (use the scenario's
    /// `monitor_clock` when replaying drifting-clock runs).
    pub fn with_clock(mut self, monitor_clock: DriftingClock) -> Self {
        self.monitor_clock = monitor_clock;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_query_interval_rejected() {
        let _ = ReplayConfig::every(Duration::ZERO);
    }
}
