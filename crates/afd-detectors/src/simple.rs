//! The simple elapsed-time accrual detector (§5.1 / Algorithm 4).
//!
//! The monitored process sends heartbeats at regular intervals; upon a
//! query, the detector "simply returns the time that elapsed since the
//! reception of the last heartbeat". In a partially synchronous system this
//! implements class ◊P_ac (Theorem 15): after a crash the level grows
//! forever (Accruement), and for a correct process the level is bounded by
//! the maximal gap between heartbeats (Upper Bound).
//!
//! Comparing the level to a constant threshold `T` recovers the classical
//! binary heartbeat detector with timeout `T` — the paper's observation
//! that accrual detectors *decompose* binary ones.

use afd_core::accrual::{AccrualFailureDetector, DetectorSeed, LevelCurve};
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;

/// The elapsed-time detector: `sl(t) = t − T_last`, in seconds.
///
/// Before the first heartbeat, the elapsed time is measured from the
/// detector's start time (Algorithm 4 initializes `T_last(p) := start`), so
/// a peer that never sends a single heartbeat is still eventually suspected.
///
/// # Examples
///
/// ```
/// use afd_core::accrual::AccrualFailureDetector;
/// use afd_core::time::Timestamp;
/// use afd_detectors::simple::SimpleAccrual;
///
/// let mut fd = SimpleAccrual::new(Timestamp::ZERO);
/// fd.record_heartbeat(Timestamp::from_secs(10));
/// assert_eq!(fd.suspicion_level(Timestamp::from_secs(13)).value(), 3.0);
/// fd.record_heartbeat(Timestamp::from_secs(14));
/// assert_eq!(fd.suspicion_level(Timestamp::from_secs(14)).value(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimpleAccrual {
    last_heartbeat: Timestamp,
    heartbeats_seen: u64,
}

impl SimpleAccrual {
    /// Creates the detector; `start` plays the role of a virtual heartbeat
    /// so the level is well-defined before the first real one.
    pub fn new(start: Timestamp) -> Self {
        SimpleAccrual {
            last_heartbeat: start,
            heartbeats_seen: 0,
        }
    }

    /// The arrival time of the most recent heartbeat (or the start time if
    /// none arrived yet).
    pub fn last_heartbeat(&self) -> Timestamp {
        self.last_heartbeat
    }

    /// Number of heartbeats recorded.
    pub fn heartbeats_seen(&self) -> u64 {
        self.heartbeats_seen
    }

    /// `sl(t) = t − T_last`: one second of level per second of silence.
    fn curve(&self) -> LevelCurve {
        LevelCurve::seconds_since(self.last_heartbeat)
    }
}

impl Default for SimpleAccrual {
    fn default() -> Self {
        SimpleAccrual::new(Timestamp::ZERO)
    }
}

impl AccrualFailureDetector for SimpleAccrual {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        // Freshness is enforced upstream (Algorithm 4's sequence check in
        // the monitor's accept stage); a non-monotone arrival here is a
        // caller bug.
        debug_assert!(
            arrival >= self.last_heartbeat,
            "heartbeat arrivals must be non-decreasing"
        );
        self.last_heartbeat = self.last_heartbeat.max(arrival);
        self.heartbeats_seen += 1;
    }

    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        SuspicionLevel::clamped(self.curve().at(now))
    }

    fn level_curve(&self) -> Option<LevelCurve> {
        Some(self.curve())
    }

    fn save_seed(&self) -> Option<DetectorSeed> {
        Some(DetectorSeed {
            last_heartbeat: Some(self.last_heartbeat),
            heartbeats_seen: self.heartbeats_seen,
            ..DetectorSeed::default()
        })
    }

    fn restore_seed(&mut self, seed: &DetectorSeed) {
        if let Some(last) = seed.last_heartbeat {
            self.last_heartbeat = last;
        }
        self.heartbeats_seen = seed.heartbeats_seen;
    }
}

impl afd_core::canonical::CanonicalState for SimpleAccrual {
    fn canonical_state(&self, digest: &mut afd_core::canonical::StateDigest) {
        digest.push_u64(self.last_heartbeat.as_nanos());
        digest.push_u64(self.heartbeats_seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn level_is_elapsed_seconds() {
        let mut fd = SimpleAccrual::new(ts(0));
        fd.record_heartbeat(ts(5));
        assert_eq!(fd.suspicion_level(ts(5)).value(), 0.0);
        assert_eq!(fd.suspicion_level(ts(8)).value(), 3.0);
        assert_eq!(fd.suspicion_level(ts(105)).value(), 100.0);
    }

    #[test]
    fn before_first_heartbeat_measures_from_start() {
        let mut fd = SimpleAccrual::new(ts(2));
        assert_eq!(fd.suspicion_level(ts(7)).value(), 5.0);
        assert_eq!(fd.heartbeats_seen(), 0);
    }

    #[test]
    fn heartbeat_resets_level() {
        let mut fd = SimpleAccrual::new(ts(0));
        fd.record_heartbeat(ts(1));
        fd.record_heartbeat(ts(2));
        assert_eq!(fd.last_heartbeat(), ts(2));
        assert_eq!(fd.heartbeats_seen(), 2);
        assert_eq!(fd.suspicion_level(ts(2)).value(), 0.0);
    }

    #[test]
    fn query_racing_heartbeat_saturates_to_zero() {
        let mut fd = SimpleAccrual::new(ts(0));
        fd.record_heartbeat(ts(10));
        // A query timestamped just before the recorded arrival (same step).
        assert_eq!(fd.suspicion_level(ts(9)).value(), 0.0);
    }

    #[test]
    fn monotone_between_heartbeats() {
        let mut fd = SimpleAccrual::new(ts(0));
        fd.record_heartbeat(ts(1));
        let mut prev = -1.0;
        for s in 1..100 {
            let v = fd.suspicion_level(ts(s)).value();
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn default_starts_at_zero() {
        let mut fd = SimpleAccrual::default();
        assert_eq!(fd.suspicion_level(ts(3)).value(), 3.0);
    }
}
