//! Observability for accrual failure detectors.
//!
//! Duarte et al.'s survey of deployed unreliable-failure-detector
//! implementations stresses that monitoring-layer *visibility* is what
//! makes a failure detector operable in production: the running system
//! must expose the same evidence — transition logs, counters, QoS
//! estimates — that the offline analysis reasons about. This crate is that
//! layer, dependency-free beyond `afd-core`:
//!
//! - [`registry`] — a registry of named counters, gauges, and fixed-bucket
//!   histograms with cheap atomic updates. A [`Snapshot`] of the registry
//!   serializes to a human-readable text table and to JSON, so the same
//!   data feeds a terminal, a log line, or a scraper.
//! - [`trace`] — a bounded ring buffer of structured, timestamped events:
//!   S-/T-transitions, degradation switches, watchdog restarts. The chaos
//!   harness and the `live_chaos` example drain it for checkable runtime
//!   evidence (in the spirit of Tran/Konnov/Widder's transition logs).
//! - [`qos`] — [`OnlineQos`], a streaming estimator of the Chen et al.
//!   QoS metrics (T_D, T_MR, T_M, λ_M, P_A, T_G) computed incrementally
//!   from a live trusted/suspected query stream. [`analyze`] replays
//!   recorded traces through the *same* estimator, so online and offline
//!   numbers agree by construction, and [`OnlineQos::export_metrics`]
//!   publishes the estimates into a [`Registry`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::float_cmp))]

mod metrics;
pub mod qos;
pub mod registry;
pub mod trace;

pub use qos::{analyze, OnlineQos, QosReport};
pub use registry::{Counter, Gauge, Histogram, Registry, Snapshot, SnapshotValue};
pub use trace::{EventKind, EventRing, ObsEvent};
