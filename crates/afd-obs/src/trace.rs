//! Structured event trace: a bounded ring buffer of timestamped
//! observability events.
//!
//! The running system records *what happened and when* — S-/T-transitions
//! of an interpreted detector output and graceful-degradation switches —
//! in an [`EventRing`]. Consumers (the chaos harness,
//! the `live_chaos` example, a log shipper) periodically [`drain`] it.
//! The ring is bounded: under backpressure the *oldest* events are
//! discarded and counted, never silently lost.
//!
//! [`drain`]: EventRing::drain

use std::collections::VecDeque;
use std::fmt;

use afd_core::process::ProcessId;
use afd_core::time::Timestamp;

/// What kind of thing happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// An S-transition: the interpreted output switched to *suspect*.
    Suspect,
    /// A T-transition: the interpreted output switched back to *trust*.
    Trust,
    /// A graceful-degradation wrapper switched to its fallback detector.
    DegradeEnter,
    /// A graceful-degradation wrapper switched back to its primary.
    DegradeExit,
}

impl EventKind {
    /// A short stable label (used in the `Display` form and logs).
    pub const fn label(self) -> &'static str {
        match self {
            EventKind::Suspect => "suspect",
            EventKind::Trust => "trust",
            EventKind::DegradeEnter => "degrade-enter",
            EventKind::DegradeExit => "degrade-exit",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One timestamped observability event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// When the event was observed.
    pub at: Timestamp,
    /// The component that emitted it, e.g. a detector name like `"phi"`.
    pub source: &'static str,
    /// The process the event concerns.
    pub process: ProcessId,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>10.3}s {} {} {}",
            self.at.as_secs_f64(),
            self.source,
            self.process,
            self.kind
        )
    }
}

/// A bounded ring buffer of [`ObsEvent`]s.
///
/// # Examples
///
/// ```
/// use afd_core::process::ProcessId;
/// use afd_core::time::Timestamp;
/// use afd_obs::{EventKind, EventRing, ObsEvent};
///
/// let mut ring = EventRing::new(2);
/// for i in 0..3 {
///     ring.push(ObsEvent {
///         at: Timestamp::from_secs_f64(i as f64),
///         source: "phi",
///         process: ProcessId::new(1),
///         kind: if i % 2 == 0 { EventKind::Suspect } else { EventKind::Trust },
///     });
/// }
/// assert_eq!(ring.dropped(), 1); // oldest event evicted
/// let drained = ring.drain();
/// assert_eq!(drained.len(), 2);
/// assert!(ring.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: VecDeque<ObsEvent>,
    capacity: usize,
    dropped: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event ring capacity must be positive");
        EventRing {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting (and counting) the oldest if full.
    pub fn push(&mut self, event: ObsEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    /// Removes and returns all buffered events, oldest first.
    pub fn drain(&mut self) -> Vec<ObsEvent> {
        self.buf.drain(..).collect()
    }

    /// The buffered events, oldest first, without removing them.
    pub fn iter(&self) -> impl Iterator<Item = &ObsEvent> {
        self.buf.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many events have been evicted to make room since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(sec: u64, kind: EventKind) -> ObsEvent {
        ObsEvent {
            at: Timestamp::from_nanos(sec * 1_000_000_000),
            source: "phi",
            process: ProcessId::new(1),
            kind,
        }
    }

    #[test]
    fn push_and_drain_preserve_order() {
        let mut ring = EventRing::new(8);
        ring.push(ev(1, EventKind::Suspect));
        ring.push(ev(2, EventKind::Trust));
        assert_eq!(ring.len(), 2);
        let drained = ring.drain();
        assert_eq!(drained[0].kind, EventKind::Suspect);
        assert_eq!(drained[1].kind, EventKind::Trust);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn overflow_evicts_oldest_and_counts() {
        let mut ring = EventRing::new(2);
        for sec in 1..=5 {
            ring.push(ev(sec, EventKind::Suspect));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let times: Vec<u64> = ring.iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(times, vec![4_000_000_000, 5_000_000_000]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = EventRing::new(0);
    }

    #[test]
    fn display_is_human_readable() {
        let text = ev(3, EventKind::DegradeEnter).to_string();
        assert!(text.contains("3.000s"), "{text}");
        assert!(text.contains("phi"), "{text}");
        assert!(text.contains("p1"), "{text}");
        assert!(text.contains("degrade-enter"), "{text}");
    }
}
