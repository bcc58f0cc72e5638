//! A monitoring service: one monitor per peer, many interpreters per
//! application (the architecture of Fig. 2 / §1.5).
//!
//! The paper's architectural argument is that *monitoring* should run once
//! per machine while *interpretation* runs once per application:
//!
//! - [`MonitoringService`] owns one accrual detector per monitored process
//!   and exposes the accrual history `H(q, t) ∈ (R₀⁺)^Π` as a snapshot, plus
//!   the suspicion-level ranking the Bag-of-Tasks example (§1.3) needs.
//! - [`InterpreterBank`] is what an *application* instantiates privately:
//!   one interpretation state machine per monitored process, fed from the
//!   shared snapshots. Two applications with different QoS needs hold two
//!   banks over the same service — no detector state is duplicated.

use std::collections::BTreeMap;

use afd_core::accrual::AccrualFailureDetector;
use afd_core::binary::Status;
use afd_core::process::ProcessId;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;
use afd_core::transform::Interpreter;

/// A per-machine monitoring service over a set of peers.
///
/// # Examples
///
/// ```
/// use afd_core::process::ProcessId;
/// use afd_core::time::Timestamp;
/// use afd_detectors::phi::PhiAccrual;
/// use afd_detectors::service::MonitoringService;
///
/// let mut service = MonitoringService::new(|_p| PhiAccrual::with_defaults());
/// let worker = ProcessId::new(1);
/// service.watch(worker);
/// service.heartbeat(worker, Timestamp::from_secs(1));
/// let level = service.suspicion_level(worker, Timestamp::from_secs(2));
/// assert!(level.is_some());
/// ```
pub struct MonitoringService<D, F> {
    detectors: BTreeMap<ProcessId, D>,
    factory: F,
}

impl<D, F> std::fmt::Debug for MonitoringService<D, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitoringService")
            .field("watched", &self.detectors.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl<D, F> MonitoringService<D, F>
where
    D: AccrualFailureDetector,
    F: FnMut(ProcessId) -> D,
{
    /// Creates a service that builds a fresh detector for each watched
    /// process with `factory`.
    pub fn new(factory: F) -> Self {
        MonitoringService {
            detectors: BTreeMap::new(),
            factory,
        }
    }

    /// Starts monitoring `process`; returns `true` if it was not already
    /// watched.
    pub fn watch(&mut self, process: ProcessId) -> bool {
        if self.detectors.contains_key(&process) {
            return false;
        }
        let detector = (self.factory)(process);
        self.detectors.insert(process, detector);
        true
    }

    /// Stops monitoring `process`, returning its detector if it was
    /// watched.
    pub fn unwatch(&mut self, process: ProcessId) -> Option<D> {
        self.detectors.remove(&process)
    }

    /// `true` if `process` is being monitored.
    pub fn is_watching(&self, process: ProcessId) -> bool {
        self.detectors.contains_key(&process)
    }

    /// The watched processes, in id order.
    pub fn watched(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.detectors.keys().copied()
    }

    /// Number of watched processes.
    pub fn len(&self) -> usize {
        self.detectors.len()
    }

    /// `true` if nothing is being watched.
    pub fn is_empty(&self) -> bool {
        self.detectors.is_empty()
    }

    /// Records a heartbeat from `process`; returns `false` (and drops the
    /// heartbeat) if the process is not watched.
    pub fn heartbeat(&mut self, process: ProcessId, arrival: Timestamp) -> bool {
        match self.detectors.get_mut(&process) {
            Some(d) => {
                d.record_heartbeat(arrival);
                true
            }
            None => false,
        }
    }

    /// The suspicion level of `process` at `now`, or `None` if not watched.
    pub fn suspicion_level(
        &mut self,
        process: ProcessId,
        now: Timestamp,
    ) -> Option<SuspicionLevel> {
        self.detectors
            .get_mut(&process)
            .map(|d| d.suspicion_level(now))
    }

    /// The full accrual output `H(q, now)`: every watched process and its
    /// current suspicion level, in id order.
    pub fn snapshot(&mut self, now: Timestamp) -> Vec<(ProcessId, SuspicionLevel)> {
        self.detectors
            .iter_mut()
            .map(|(&p, d)| (p, d.suspicion_level(now)))
            .collect()
    }

    /// Watched processes ordered from most to least trustworthy (ascending
    /// suspicion level, ties by id) — the ordering the master of §1.3 uses
    /// to pick workers.
    pub fn rank(&mut self, now: Timestamp) -> Vec<(ProcessId, SuspicionLevel)> {
        let mut snapshot = self.snapshot(now);
        snapshot.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        snapshot
    }

    /// A shared reference to the detector for `process`.
    pub fn detector(&self, process: ProcessId) -> Option<&D> {
        self.detectors.get(&process)
    }

    /// A mutable reference to the detector for `process`.
    pub fn detector_mut(&mut self, process: ProcessId) -> Option<&mut D> {
        self.detectors.get_mut(&process)
    }
}

/// An application's private interpretation state: one [`Interpreter`] per
/// monitored process, built on demand from a factory.
pub struct InterpreterBank<I, F> {
    interpreters: BTreeMap<ProcessId, I>,
    factory: F,
}

impl<I, F> std::fmt::Debug for InterpreterBank<I, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterpreterBank")
            .field("processes", &self.interpreters.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl<I, F> InterpreterBank<I, F>
where
    I: Interpreter,
    F: FnMut(ProcessId) -> I,
{
    /// Creates a bank that builds a fresh interpreter per process with
    /// `factory`.
    pub fn new(factory: F) -> Self {
        InterpreterBank {
            interpreters: BTreeMap::new(),
            factory,
        }
    }

    /// Feeds one observation for `process`, creating its interpreter on
    /// first use.
    pub fn observe(&mut self, process: ProcessId, at: Timestamp, level: SuspicionLevel) -> Status {
        let interpreter = self
            .interpreters
            .entry(process)
            .or_insert_with(|| (self.factory)(process));
        interpreter.observe(at, level)
    }

    /// Feeds a whole service snapshot; returns the processes currently
    /// suspected by this application.
    pub fn observe_snapshot(
        &mut self,
        at: Timestamp,
        snapshot: &[(ProcessId, SuspicionLevel)],
    ) -> Vec<ProcessId> {
        snapshot
            .iter()
            .filter_map(|&(p, sl)| self.observe(p, at, sl).is_suspected().then_some(p))
            .collect()
    }

    /// The current status of `process` (trusted if never observed).
    pub fn status(&self, process: ProcessId) -> Status {
        self.interpreters
            .get(&process)
            .map_or(Status::Trusted, afd_core::transform::Interpreter::status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::SimpleAccrual;
    use afd_core::transform::{HysteresisInterpreter, ThresholdInterpreter};

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn sl(v: f64) -> SuspicionLevel {
        SuspicionLevel::new(v).unwrap()
    }

    fn service() -> MonitoringService<SimpleAccrual, impl FnMut(ProcessId) -> SimpleAccrual> {
        MonitoringService::new(|_| SimpleAccrual::new(Timestamp::ZERO))
    }

    #[test]
    fn watch_unwatch_lifecycle() {
        let mut s = service();
        let p = ProcessId::new(1);
        assert!(s.is_empty());
        assert!(s.watch(p));
        assert!(!s.watch(p), "double watch is a no-op");
        assert!(s.is_watching(p));
        assert_eq!(s.len(), 1);
        assert!(s.unwatch(p).is_some());
        assert!(s.unwatch(p).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn heartbeats_only_reach_watched_processes() {
        let mut s = service();
        let p = ProcessId::new(1);
        assert!(!s.heartbeat(p, ts(1)), "unwatched heartbeat dropped");
        s.watch(p);
        assert!(s.heartbeat(p, ts(1)));
        assert_eq!(s.suspicion_level(p, ts(4)), Some(sl(3.0)));
        assert_eq!(s.suspicion_level(ProcessId::new(9), ts(4)), None);
    }

    #[test]
    fn snapshot_covers_all_watched() {
        let mut s = service();
        for i in 0..3 {
            s.watch(ProcessId::new(i));
        }
        s.heartbeat(ProcessId::new(1), ts(5));
        let snap = s.snapshot(ts(10));
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].1, sl(10.0)); // p0: never heartbeated
        assert_eq!(snap[1].1, sl(5.0)); // p1: heartbeat at 5
        assert_eq!(snap[2].1, sl(10.0));
    }

    #[test]
    fn rank_orders_most_trustworthy_first() {
        let mut s = service();
        for i in 0..3 {
            s.watch(ProcessId::new(i));
        }
        s.heartbeat(ProcessId::new(2), ts(9));
        s.heartbeat(ProcessId::new(0), ts(5));
        let ranked = s.rank(ts(10));
        let order: Vec<u32> = ranked.iter().map(|(p, _)| p.as_u32()).collect();
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn two_applications_interpret_one_service_differently() {
        let mut s = service();
        let p = ProcessId::new(1);
        s.watch(p);
        s.heartbeat(p, ts(1));

        // Application A is aggressive (threshold 2 s), B conservative (6 s).
        let mut app_a = InterpreterBank::new(|_| ThresholdInterpreter::new(sl(2.0)));
        let mut app_b = InterpreterBank::new(|_| ThresholdInterpreter::new(sl(6.0)));

        let snap = s.snapshot(ts(5)); // level = 4
        assert_eq!(app_a.observe_snapshot(ts(5), &snap), vec![p]);
        assert_eq!(
            app_b.observe_snapshot(ts(5), &snap),
            Vec::<ProcessId>::new()
        );
        assert_eq!(app_a.status(p), Status::Suspected);
        assert_eq!(app_b.status(p), Status::Trusted);

        let snap = s.snapshot(ts(8)); // level = 7 > both thresholds
        assert_eq!(app_b.observe_snapshot(ts(8), &snap), vec![p]);
    }

    #[test]
    fn bank_supports_hysteresis_interpreters() {
        let mut bank = InterpreterBank::new(|_| HysteresisInterpreter::new(sl(3.0), sl(1.0)));
        let p = ProcessId::new(7);
        assert_eq!(bank.status(p), Status::Trusted);
        assert_eq!(bank.observe(p, ts(1), sl(4.0)), Status::Suspected);
        assert_eq!(bank.observe(p, ts(2), sl(2.0)), Status::Suspected); // held
        assert_eq!(bank.observe(p, ts(3), sl(0.5)), Status::Trusted);
    }

    #[test]
    fn detector_access() {
        let mut s = service();
        let p = ProcessId::new(0);
        s.watch(p);
        s.heartbeat(p, ts(3));
        assert_eq!(s.detector(p).unwrap().last_heartbeat(), ts(3));
        s.detector_mut(p).unwrap().record_heartbeat(ts(4));
        assert_eq!(s.detector(p).unwrap().heartbeats_seen(), 2);
        assert_eq!(s.watched().count(), 1);
    }
}
