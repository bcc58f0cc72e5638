//! Binary failure detectors (§2 of the paper).
//!
//! Classical (Chandra–Toueg) failure detectors output a *binary* verdict per
//! monitored process: trusted or suspected. The paper calls the change from
//! trusted to suspected an *S-transition* and the reverse a *T-transition*;
//! the Chen et al. QoS metrics (`afd_obs::qos`) are defined over these
//! transitions.
//!
//! [`BinaryFailureDetector`] is the query-model interface: each call to
//! [`query`](BinaryFailureDetector::query) is one query at an explicit time,
//! per the oracle model of §2 (queries are answered at times
//! `t_q^query(1), t_q^query(2), …`).

use core::fmt;

use crate::time::Timestamp;

/// The verdict of a binary failure detector about one monitored process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// The process is trusted (believed alive).
    Trusted,
    /// The process is suspected (believed crashed).
    Suspected,
}

impl Status {
    /// `true` if the status is [`Status::Suspected`].
    #[inline]
    pub fn is_suspected(self) -> bool {
        matches!(self, Status::Suspected)
    }

    /// `true` if the status is [`Status::Trusted`].
    #[inline]
    pub fn is_trusted(self) -> bool {
        matches!(self, Status::Trusted)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Trusted => f.write_str("trusted"),
            Status::Suspected => f.write_str("suspected"),
        }
    }
}

/// A change of [`Status`] between consecutive queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transition {
    /// Trusted → suspected (the paper's *S-transition*).
    Suspect,
    /// Suspected → trusted (the paper's *T-transition*).
    Trust,
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transition::Suspect => f.write_str("S-transition"),
            Transition::Trust => f.write_str("T-transition"),
        }
    }
}

/// A binary (trust/suspect) failure detector module for a single monitored
/// process, in the explicit-time query model of §2.
///
/// Implementations are *deterministic in their inputs*: they never read wall
/// clocks or global state, so the same sequence of `query` calls (and, for
/// heartbeat-fed detectors, heartbeat deliveries) yields the same outputs.
///
/// The trait is object-safe so that heterogeneous detectors can be stored
/// behind `Box<dyn BinaryFailureDetector>`.
pub trait BinaryFailureDetector {
    /// Answers one query at time `now`: is the monitored process trusted or
    /// suspected?
    ///
    /// `now` values across successive calls must be non-decreasing;
    /// implementations may panic or saturate otherwise.
    fn query(&mut self, now: Timestamp) -> Status;
}

impl<D: BinaryFailureDetector + ?Sized> BinaryFailureDetector for &mut D {
    fn query(&mut self, now: Timestamp) -> Status {
        (**self).query(now)
    }
}

impl<D: BinaryFailureDetector + ?Sized> BinaryFailureDetector for Box<D> {
    fn query(&mut self, now: Timestamp) -> Status {
        (**self).query(now)
    }
}

/// Detects S- and T-transitions in a stream of statuses.
///
/// The initial status is *trusted* (matching Algorithm 1's initialization),
/// so a first `Suspected` observation is an S-transition.
///
/// # Examples
///
/// ```
/// use afd_core::binary::{Status, Transition, TransitionDetector};
///
/// let mut td = TransitionDetector::new();
/// assert_eq!(td.observe(Status::Trusted), None);
/// assert_eq!(td.observe(Status::Suspected), Some(Transition::Suspect));
/// assert_eq!(td.observe(Status::Suspected), None);
/// assert_eq!(td.observe(Status::Trusted), Some(Transition::Trust));
/// ```
#[derive(Debug, Clone)]
pub struct TransitionDetector {
    current: Status,
}

impl TransitionDetector {
    /// Creates a detector whose initial status is trusted.
    pub fn new() -> Self {
        TransitionDetector {
            current: Status::Trusted,
        }
    }

    /// The most recently observed status.
    pub fn current(&self) -> Status {
        self.current
    }

    /// Feeds the next status; returns the transition it caused, if any.
    pub fn observe(&mut self, status: Status) -> Option<Transition> {
        let transition = match (self.current, status) {
            (Status::Trusted, Status::Suspected) => Some(Transition::Suspect),
            (Status::Suspected, Status::Trusted) => Some(Transition::Trust),
            _ => None,
        };
        self.current = status;
        transition
    }
}

impl Default for TransitionDetector {
    fn default() -> Self {
        TransitionDetector::new()
    }
}

/// A scripted binary detector for tests and the Algorithm 2 experiments:
/// replays a fixed prefix of statuses, then holds a final status forever.
///
/// This makes it easy to model a ◊P oracle "after stabilization": mistakes
/// during the prefix, then permanently correct output.
#[derive(Debug, Clone)]
pub struct ScriptedBinaryDetector {
    prefix: Vec<Status>,
    forever: Status,
    next: usize,
}

impl ScriptedBinaryDetector {
    /// Creates a detector that outputs `prefix` (one element per query) and
    /// then `forever` on every subsequent query.
    pub fn new(prefix: Vec<Status>, forever: Status) -> Self {
        ScriptedBinaryDetector {
            prefix,
            forever,
            next: 0,
        }
    }

    /// A detector that always trusts.
    pub fn always_trusting() -> Self {
        ScriptedBinaryDetector::new(Vec::new(), Status::Trusted)
    }

    /// A detector that always suspects.
    pub fn always_suspecting() -> Self {
        ScriptedBinaryDetector::new(Vec::new(), Status::Suspected)
    }

    /// Number of queries answered so far.
    pub fn queries_answered(&self) -> usize {
        self.next
    }
}

impl BinaryFailureDetector for ScriptedBinaryDetector {
    fn query(&mut self, _now: Timestamp) -> Status {
        let status = self.prefix.get(self.next).copied().unwrap_or(self.forever);
        self.next += 1;
        status
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_predicates() {
        assert!(Status::Suspected.is_suspected());
        assert!(!Status::Suspected.is_trusted());
        assert!(Status::Trusted.is_trusted());
    }

    #[test]
    fn transition_detector_tracks_edges() {
        let mut td = TransitionDetector::new();
        assert_eq!(td.current(), Status::Trusted);
        assert_eq!(td.observe(Status::Suspected), Some(Transition::Suspect));
        assert_eq!(td.observe(Status::Suspected), None);
        assert_eq!(td.observe(Status::Trusted), Some(Transition::Trust));
        assert_eq!(td.observe(Status::Trusted), None);
    }

    #[test]
    fn scripted_detector_replays_then_holds() {
        let mut d =
            ScriptedBinaryDetector::new(vec![Status::Trusted, Status::Suspected], Status::Trusted);
        let t = Timestamp::ZERO;
        assert_eq!(d.query(t), Status::Trusted);
        assert_eq!(d.query(t), Status::Suspected);
        assert_eq!(d.query(t), Status::Trusted);
        assert_eq!(d.query(t), Status::Trusted);
        assert_eq!(d.queries_answered(), 4);
    }

    #[test]
    fn trait_object_and_reference_forwarding() {
        let mut boxed: Box<dyn BinaryFailureDetector> =
            Box::new(ScriptedBinaryDetector::always_suspecting());
        assert_eq!(boxed.query(Timestamp::ZERO), Status::Suspected);
        let mut d = ScriptedBinaryDetector::always_trusting();
        let r: &mut dyn BinaryFailureDetector = &mut d;
        let rr = &mut { r };
        assert_eq!(rr.query(Timestamp::ZERO), Status::Trusted);
    }

    #[test]
    fn display_names() {
        assert_eq!(Status::Trusted.to_string(), "trusted");
        assert_eq!(Transition::Suspect.to_string(), "S-transition");
        assert_eq!(Transition::Trust.to_string(), "T-transition");
    }
}
