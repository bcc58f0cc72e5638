//! The application side of the monitoring architecture (Fig. 2 / §1.5).
//!
//! The paper's architectural argument is that *monitoring* should run once
//! per machine while *interpretation* runs once per application. The
//! monitor — one accrual detector per watched process, publishing the
//! accrual history `H(q, t) ∈ (R₀⁺)^Π` as a snapshot — lives in
//! `afd-runtime` (`ShardedMonitor`, read through cloneable lock-free
//! `SnapshotReader`s). [`InterpreterBank`] is what an *application*
//! instantiates privately: one interpretation state machine per monitored
//! process, fed from those shared snapshots. Two applications with
//! different QoS needs hold two banks over the same monitor — no detector
//! state is duplicated.

use std::collections::BTreeMap;

use afd_core::binary::Status;
use afd_core::process::ProcessId;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;
use afd_core::transform::Interpreter;

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

    /// Feeds a whole monitor snapshot; returns the processes currently
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
    use afd_core::accrual::AccrualFailureDetector;
    use afd_core::transform::{HysteresisInterpreter, ThresholdInterpreter};

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn sl(v: f64) -> SuspicionLevel {
        SuspicionLevel::new(v).unwrap()
    }

    #[test]
    fn two_applications_interpret_one_snapshot_differently() {
        let p = ProcessId::new(1);
        let mut monitor = SimpleAccrual::new(Timestamp::ZERO);
        monitor.record_heartbeat(ts(1));

        // Application A is aggressive (threshold 2 s), B conservative (6 s).
        let mut app_a = InterpreterBank::new(|_| ThresholdInterpreter::new(sl(2.0)));
        let mut app_b = InterpreterBank::new(|_| ThresholdInterpreter::new(sl(6.0)));

        let snap = [(p, monitor.suspicion_level(ts(5)))]; // level = 4
        assert_eq!(app_a.observe_snapshot(ts(5), &snap), vec![p]);
        assert_eq!(
            app_b.observe_snapshot(ts(5), &snap),
            Vec::<ProcessId>::new()
        );
        assert_eq!(app_a.status(p), Status::Suspected);
        assert_eq!(app_b.status(p), Status::Trusted);

        let snap = [(p, monitor.suspicion_level(ts(8)))]; // level = 7 > both thresholds
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
}
