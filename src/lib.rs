//! **accrual-fd** — a complete Rust implementation of accrual failure
//! detectors, reproducing *"Definition and Specification of Accrual Failure
//! Detectors"* (Défago, Urbán, Hayashibara, Katayama; DSN 2005).
//!
//! An *accrual* failure detector outputs, for each monitored process, a
//! real-valued **suspicion level** instead of a binary trust/suspect bit:
//! zero means "not suspected at all", and the level accrues toward infinity
//! if the process has crashed. Interpretation — deciding when the level is
//! high enough to act — is left to each application, which is what lets one
//! monitoring service support many applications with different QoS needs.
//! This is the design at the heart of the failure detectors in Akka and
//! Cassandra.
//!
//! # Crates
//!
//! | Re-export | Contents |
//! |-----------|----------|
//! | [`core`] | the formalism: suspicion levels, detector traits, classes (◊P_ac …), Algorithms 1–3, property checkers, stats, distributions |
//! | [`detectors`] | the four implementations of §5: simple, Chen, φ, κ — plus the per-application `InterpreterBank` of Fig. 2 and the A.5 adversary |
//! | [`sim`] | deterministic heartbeat-link simulator: delay/loss models, partitions, sender outages, clock drift, partial synchrony, arrival traces and their query schedules |
//! | [`runtime`] | live Algorithm 4 over pluggable transports: the monitor (`ShardedMonitor`) and its lock-free `SnapshotReader`s — the monitoring side of Fig. 2 — heartbeat senders, fault injection, retry/backoff, graceful degradation, chaos runs, and the trace replay (`runtime::replay`) the experiments and chaos runs are read through |
//! | [`obs`] | observability: metric registry (counters/gauges/histograms), structured event traces, and the Chen et al. QoS metrics (T_D, T_MR, T_M, λ_M, P_A, T_G), streamed live (`OnlineQos`) or from a recorded trace (`analyze`) |
//! | [`omega`] | eventual leader election (Ω) via Algorithm 1 — the computational-equivalence demo |
//!
//! # Quickstart
//!
//! ```
//! use accrual_fd::core::accrual::AccrualFailureDetector;
//! use accrual_fd::core::suspicion::SuspicionLevel;
//! use accrual_fd::core::time::Timestamp;
//! use accrual_fd::detectors::phi::PhiAccrual;
//!
//! let mut monitor = PhiAccrual::with_defaults();
//!
//! // Heartbeats arrive once a second…
//! for s in 1..=30u64 {
//!     monitor.record_heartbeat(Timestamp::from_secs(s));
//! }
//!
//! // …then silence. The suspicion level accrues:
//! let soon = monitor.suspicion_level(Timestamp::from_secs_f64(30.5));
//! let late = monitor.suspicion_level(Timestamp::from_secs(35));
//! assert!(soon < SuspicionLevel::new(1.0)?);
//! assert!(late > SuspicionLevel::new(8.0)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Run the examples for guided tours:
//!
//! ```text
//! cargo run --example quickstart
//! cargo run --example multi_threshold
//! cargo run --example detector_comparison
//! cargo run --example wan_adaptivity
//! ```
//!
//! And see `DESIGN.md` / `EXPERIMENTS.md` for the experiment suite that
//! reproduces every theorem and claim of the paper
//! (`cargo run -p afd-bench --release --bin <experiment>`); the §1.3
//! master/worker scenario is
//! `cargo run --release -p afd-bench --bin e10_bot`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use afd_core as core;
pub use afd_detectors as detectors;
pub use afd_obs as obs;
pub use afd_omega as omega;
pub use afd_runtime as runtime;
pub use afd_sim as sim;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use afd_core::accrual::AccrualFailureDetector;
    pub use afd_core::binary::{BinaryFailureDetector, Status, Transition};
    pub use afd_core::process::ProcessId;
    pub use afd_core::suspicion::SuspicionLevel;
    pub use afd_core::time::{Duration, Timestamp};
    pub use afd_core::transform::{
        AccrualToBinary, BinaryToAccrual, HysteresisInterpreter, InterpretedBinary, Interpreter,
        ThresholdInterpreter,
    };
    pub use afd_detectors::adaptive::{AdaptiveAccrual, AdaptiveConfig};
    pub use afd_detectors::akka::{AkkaPhi, AkkaPhiConfig};
    pub use afd_detectors::bertier::{BertierAccrual, BertierConfig};
    pub use afd_detectors::chen::{ChenAccrual, ChenConfig};
    pub use afd_detectors::kappa::{KappaAccrual, KappaConfig};
    pub use afd_detectors::phi::{PhiAccrual, PhiConfig, PhiModel};
    pub use afd_detectors::service::InterpreterBank;
    pub use afd_detectors::simple::SimpleAccrual;
    pub use afd_runtime::{
        DegradeConfig, FaultInjector, FaultPlan, GracefulDegradation, ShardConfig, ShardedMonitor,
        SnapshotReader, Transport,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_imports_compile() {
        use crate::prelude::*;
        let mut fd = SimpleAccrual::new(Timestamp::ZERO);
        fd.record_heartbeat(Timestamp::from_secs(1));
        let _: SuspicionLevel = fd.suspicion_level(Timestamp::from_secs(2));
    }
}
