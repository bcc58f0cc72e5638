//! Clock abstraction for the runtime.
//!
//! Detectors take explicit timestamps, so the only place real time enters
//! the system is here. [`SystemClock`] reads a monotonic OS clock for live
//! deployments; [`VirtualClock`] is a shared, manually advanced clock that
//! makes every trace replay — chaos runs, faults, degradation and all — a
//! pure function of `(scenario, seed)`.

#![expect(
    clippy::disallowed_methods,
    reason = "`SystemClock` is where real time enters the runtime; everything else reads a `Clock`"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use afd_core::time::{Duration, Timestamp};

/// A source of the runtime's current time.
pub trait Clock: Send + Sync {
    /// The current time.
    fn now(&self) -> Timestamp;
}

impl<C: Clock + ?Sized> Clock for Arc<C> {
    fn now(&self) -> Timestamp {
        (**self).now()
    }
}

impl<C: Clock + ?Sized> Clock for &C {
    fn now(&self) -> Timestamp {
        (**self).now()
    }
}

impl Clock for Box<dyn Clock + Send + Sync> {
    fn now(&self) -> Timestamp {
        (**self).now()
    }
}

/// Monotonic wall-clock time, measured from the clock's creation.
#[derive(Debug, Clone, Copy)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// Creates a clock whose zero is "now".
    pub fn new() -> Self {
        SystemClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Timestamp {
        Timestamp::from_nanos(self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64)
    }
}

/// A manually advanced clock, shared between clones.
///
/// Every clone observes the same time, so one harness loop can drive a
/// sender, a fault injector, and a monitor in lock-step.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    nanos: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Moves the clock forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos(), Ordering::SeqCst);
    }

    /// Jumps the clock to an absolute time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `t` is earlier than the current time
    /// (virtual time, like the monotonic clock it stands in for, never
    /// goes backwards).
    pub fn set(&self, t: Timestamp) {
        debug_assert!(
            t.as_nanos() >= self.nanos.load(Ordering::SeqCst),
            "virtual clock must not rewind"
        );
        self.nanos.store(t.as_nanos(), Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Timestamp {
        Timestamp::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_shared_between_clones() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(Duration::from_secs(3));
        assert_eq!(b.now(), Timestamp::from_secs(3));
        b.set(Timestamp::from_secs(10));
        assert_eq!(a.now(), Timestamp::from_secs(10));
    }

    #[test]
    fn system_clock_is_monotone() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn clock_through_arc() {
        let c: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        assert_eq!(c.now(), Timestamp::ZERO);
    }

    #[test]
    fn clock_through_box() {
        let v = VirtualClock::new();
        v.set(Timestamp::from_secs(2));
        let c: Box<dyn Clock + Send + Sync> = Box::new(v);
        assert_eq!(c.now(), Timestamp::from_secs(2));
    }
}
