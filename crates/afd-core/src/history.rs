//! Failure-detector histories (§2 of the paper).
//!
//! A failure-detector history `H : Π × T → R` records the value output by a
//! module at each query. We keep per-pair traces: a [`SuspicionTrace`] is
//! the accrual history `H(q,t)(p) = sl_qp(t)` sampled at the query times
//! `t_q^query(1), t_q^query(2), …`, and a [`BinaryTrace`] the corresponding
//! trusted/suspected history. These are the inputs to the property checkers
//! ([`crate::properties`]) and the QoS metrics (`afd_obs::analyze`).

use crate::binary::{Status, Transition, TransitionDetector};
use crate::suspicion::SuspicionLevel;
use crate::time::Timestamp;
use crate::transform::{HysteresisInterpreter, Interpreter, ThresholdInterpreter};

/// One answered query of an accrual failure detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuspicionSample {
    /// The query time `t_q^query(k)`.
    pub at: Timestamp,
    /// The output `sl_qp(t_q^query(k))`.
    pub level: SuspicionLevel,
}

/// One answered query of a binary failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusSample {
    /// The query time.
    pub at: Timestamp,
    /// The output status.
    pub status: Status,
}

/// The accrual history of one monitor/monitored pair: suspicion levels at
/// successive query times.
///
/// # Examples
///
/// ```
/// use afd_core::history::SuspicionTrace;
/// use afd_core::suspicion::SuspicionLevel;
/// use afd_core::time::Timestamp;
///
/// let mut trace = SuspicionTrace::new();
/// trace.push(Timestamp::from_secs(1), SuspicionLevel::ZERO);
/// trace.push(Timestamp::from_secs(2), SuspicionLevel::new(0.7)?);
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.max_level(), Some(SuspicionLevel::new(0.7)?));
/// # Ok::<(), afd_core::error::InvalidSuspicionError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SuspicionTrace {
    samples: Vec<SuspicionSample>,
}

impl SuspicionTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        SuspicionTrace::default()
    }

    /// Creates an empty trace with room for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        SuspicionTrace {
            samples: Vec::with_capacity(capacity),
        }
    }

    /// Appends one query result.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last recorded query time (query times are
    /// non-decreasing by the model of §2).
    pub fn push(&mut self, at: Timestamp, level: SuspicionLevel) {
        if let Some(last) = self.samples.last() {
            assert!(
                at >= last.at,
                "query times must be non-decreasing: {at} after {}",
                last.at
            );
        }
        self.samples.push(SuspicionSample { at, level });
    }

    /// Number of recorded queries.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no queries were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The recorded samples, in query order.
    pub fn samples(&self) -> &[SuspicionSample] {
        &self.samples
    }

    /// Iterates over the samples.
    pub fn iter(&self) -> impl Iterator<Item = &SuspicionSample> {
        self.samples.iter()
    }

    /// The largest level in the trace, or `None` if empty.
    pub fn max_level(&self) -> Option<SuspicionLevel> {
        self.samples.iter().map(|s| s.level).max()
    }

    /// Interprets the whole trace through a fixed threshold `T`
    /// (suspect iff `sl > T`, Equation 2 of the paper), yielding the binary
    /// history `D_T` would have produced.
    pub fn threshold(&self, threshold: SuspicionLevel) -> BinaryTrace {
        self.interpret(ThresholdInterpreter::new(threshold))
    }

    /// Interprets the whole trace through the hysteresis interpreter
    /// `D'_T` (Algorithm 3): S-transitions above `high`, T-transitions at
    /// or below `low`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` (in all build profiles) — §4.4 requires
    /// `T₀(t) < T(t)`. Only an empty trace escapes the check, since the
    /// thresholds are validated per observation.
    pub fn hysteresis(&self, high: SuspicionLevel, low: SuspicionLevel) -> BinaryTrace {
        self.interpret(HysteresisInterpreter::new(high, low))
    }

    /// The binary history `interpreter` produces over the whole trace.
    fn interpret(&self, mut interpreter: impl Interpreter) -> BinaryTrace {
        let mut out = BinaryTrace::with_capacity(self.len());
        for s in &self.samples {
            out.push(s.at, interpreter.observe(s.at, s.level));
        }
        out
    }
}

impl FromIterator<SuspicionSample> for SuspicionTrace {
    fn from_iter<I: IntoIterator<Item = SuspicionSample>>(iter: I) -> Self {
        let mut trace = SuspicionTrace::new();
        for s in iter {
            trace.push(s.at, s.level);
        }
        trace
    }
}

/// The binary history of one monitor/monitored pair: statuses at successive
/// query times.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BinaryTrace {
    samples: Vec<StatusSample>,
}

impl BinaryTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        BinaryTrace::default()
    }

    /// Creates an empty trace with room for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        BinaryTrace {
            samples: Vec::with_capacity(capacity),
        }
    }

    /// Appends one query result.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last recorded query time.
    pub fn push(&mut self, at: Timestamp, status: Status) {
        if let Some(last) = self.samples.last() {
            assert!(
                at >= last.at,
                "query times must be non-decreasing: {at} after {}",
                last.at
            );
        }
        self.samples.push(StatusSample { at, status });
    }

    /// Number of recorded queries.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no queries were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The recorded samples, in query order.
    pub fn samples(&self) -> &[StatusSample] {
        &self.samples
    }

    /// Iterates over the samples.
    pub fn iter(&self) -> impl Iterator<Item = &StatusSample> {
        self.samples.iter()
    }

    /// The S- and T-transitions of the trace, with their times.
    ///
    /// The detector starts trusted: a first sample of `Suspected` is an
    /// S-transition at that sample's time.
    pub fn transitions(&self) -> Vec<(Timestamp, Transition)> {
        let mut td = TransitionDetector::new();
        self.samples
            .iter()
            .filter_map(|s| td.observe(s.status).map(|tr| (s.at, tr)))
            .collect()
    }

    /// The time of the final S-transition after which the process is
    /// suspected for the remainder of the trace, if the trace ends suspected.
    ///
    /// This is the "starts suspecting permanently" instant used by the
    /// detection-time metric T_D.
    pub fn permanent_suspicion_start(&self) -> Option<Timestamp> {
        let transitions = self.transitions();
        match transitions.last() {
            Some(&(at, Transition::Suspect)) => Some(at),
            _ => None,
        }
    }
}

impl FromIterator<StatusSample> for BinaryTrace {
    fn from_iter<I: IntoIterator<Item = StatusSample>>(iter: I) -> Self {
        let mut trace = BinaryTrace::new();
        for s in iter {
            trace.push(s.at, s.status);
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn sl(v: f64) -> SuspicionLevel {
        SuspicionLevel::new(v).unwrap()
    }

    #[test]
    fn suspicion_trace_accumulates() {
        let mut t = SuspicionTrace::new();
        t.push(ts(1), sl(0.0));
        t.push(ts(2), sl(1.0));
        t.push(ts(2), sl(1.5)); // equal times allowed
        assert_eq!(t.len(), 3);
        assert_eq!(t.max_level(), Some(sl(1.5)));
        assert_eq!(t.iter().count(), 3);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn suspicion_trace_rejects_time_regression() {
        let mut t = SuspicionTrace::new();
        t.push(ts(2), sl(0.0));
        t.push(ts(1), sl(0.0));
    }

    #[test]
    fn threshold_produces_binary_history() {
        let trace: SuspicionTrace = [
            SuspicionSample {
                at: ts(1),
                level: sl(0.5),
            },
            SuspicionSample {
                at: ts(2),
                level: sl(2.0),
            },
            SuspicionSample {
                at: ts(3),
                level: sl(1.0),
            },
        ]
        .into_iter()
        .collect();
        let bin = trace.threshold(sl(1.0)); // suspect iff sl > 1.0 (strict)
        let statuses: Vec<_> = bin.iter().map(|s| s.status).collect();
        assert_eq!(
            statuses,
            vec![Status::Trusted, Status::Suspected, Status::Trusted]
        );
    }

    #[test]
    fn hysteresis_holds_between_thresholds() {
        let trace: SuspicionTrace = [
            SuspicionSample {
                at: ts(1),
                level: sl(0.0),
            },
            SuspicionSample {
                at: ts(2),
                level: sl(3.0),
            }, // S (above high 2)
            SuspicionSample {
                at: ts(3),
                level: sl(1.0),
            }, // between: hold
            SuspicionSample {
                at: ts(4),
                level: sl(0.4),
            }, // ≤ low 0.5: T
            SuspicionSample {
                at: ts(5),
                level: sl(1.0),
            }, // below high: trusted
        ]
        .into_iter()
        .collect();
        let bin = trace.hysteresis(sl(2.0), sl(0.5));
        let statuses: Vec<_> = bin.iter().map(|s| s.status).collect();
        assert_eq!(
            statuses,
            vec![
                Status::Trusted,
                Status::Suspected,
                Status::Suspected,
                Status::Trusted,
                Status::Trusted
            ]
        );
    }

    // The §4.4 precondition T₀ < T is enforced in every build profile,
    // not only under debug assertions.
    #[test]
    #[should_panic(expected = "hysteresis requires")]
    fn hysteresis_rejects_inverted_thresholds_in_release() {
        let trace: SuspicionTrace = [SuspicionSample {
            at: ts(1),
            level: sl(1.0),
        }]
        .into_iter()
        .collect();
        let _ = trace.hysteresis(sl(0.5), sl(2.0));
    }

    #[test]
    #[should_panic(expected = "hysteresis requires")]
    fn hysteresis_rejects_equal_thresholds_in_release() {
        let trace: SuspicionTrace = [SuspicionSample {
            at: ts(1),
            level: sl(1.0),
        }]
        .into_iter()
        .collect();
        let _ = trace.hysteresis(sl(1.0), sl(1.0));
    }

    #[test]
    fn transitions_and_permanent_suspicion() {
        let bin: BinaryTrace = [
            StatusSample {
                at: ts(1),
                status: Status::Trusted,
            },
            StatusSample {
                at: ts(2),
                status: Status::Suspected,
            },
            StatusSample {
                at: ts(3),
                status: Status::Trusted,
            },
            StatusSample {
                at: ts(4),
                status: Status::Suspected,
            },
            StatusSample {
                at: ts(5),
                status: Status::Suspected,
            },
        ]
        .into_iter()
        .collect();
        let tr = bin.transitions();
        assert_eq!(
            tr,
            vec![
                (ts(2), Transition::Suspect),
                (ts(3), Transition::Trust),
                (ts(4), Transition::Suspect),
            ]
        );
        assert_eq!(bin.permanent_suspicion_start(), Some(ts(4)));
    }

    #[test]
    fn permanent_suspicion_absent_when_trace_ends_trusted() {
        let bin: BinaryTrace = [
            StatusSample {
                at: ts(1),
                status: Status::Suspected,
            },
            StatusSample {
                at: ts(2),
                status: Status::Trusted,
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(bin.permanent_suspicion_start(), None);
        assert!(BinaryTrace::new().permanent_suspicion_start().is_none());
    }

    #[test]
    fn empty_traces() {
        assert!(SuspicionTrace::new().is_empty());
        assert!(SuspicionTrace::new().max_level().is_none());
        assert!(BinaryTrace::new().is_empty());
        assert!(BinaryTrace::new().transitions().is_empty());
    }
}
