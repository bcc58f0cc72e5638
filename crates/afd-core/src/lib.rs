//! Core formalism for **accrual failure detectors**.
//!
//! This crate implements the definitions, properties, and transformation
//! algorithms of *"Definition and Specification of Accrual Failure
//! Detectors"* (Défago, Urbán, Hayashibara, Katayama — DSN 2005 / JAIST
//! IS-RR-2005-004):
//!
//! - the system model: explicit [`time`], [`process`] identities,
//!   crash-stop [`failure`] patterns, and per-pair detector [`history`]
//!   traces;
//! - the [`suspicion`] level `sl_qp` with its finite resolution ε
//!   (Definition 1) and empirical checkers for the **Accruement** and
//!   **Upper Bound** properties in [`properties`];
//! - the [`binary`] and [`accrual`] detector interfaces and the class
//!   taxonomy (◊P_ac, P_ac, ◊S_ac, S_ac) in [`classes`];
//! - the [`transform`] algorithms: Algorithm 1 (accrual → binary),
//!   Algorithm 2 (binary → accrual), and the threshold / hysteresis
//!   interpreters of §4.4;
//! - supporting [`stats`] (windows, moments, histograms) and arrival-time
//!   [`dist`]ributions (normal, exponential, Erlang, empirical) used by the
//!   detector implementations in the companion crate `afd-detectors`.
//!
//! # The accrual idea in one example
//!
//! A *monitor* turns heartbeat arrivals into a real-valued suspicion level;
//! *interpretation* — deciding when to act — belongs to each application
//! (Fig. 2 of the paper). Here the same level stream feeds two independent
//! threshold policies with different QoS:
//!
//! ```
//! use afd_core::accrual::{AccrualFailureDetector, ScriptedAccrualDetector};
//! use afd_core::suspicion::SuspicionLevel;
//! use afd_core::time::Timestamp;
//! use afd_core::transform::{Interpreter, ThresholdInterpreter};
//!
//! let mut monitor = ScriptedAccrualDetector::from_values(&[0.2, 1.5, 3.0]);
//! let mut aggressive = ThresholdInterpreter::new(SuspicionLevel::new(1.0)?);
//! let mut conservative = ThresholdInterpreter::new(SuspicionLevel::new(2.0)?);
//!
//! for k in 0..3 {
//!     let at = Timestamp::from_secs(k);
//!     let level = monitor.suspicion_level(at);
//!     let fast = aggressive.observe(at, level);
//!     let safe = conservative.observe(at, level);
//!     // Theorem 1: the conservative policy suspects only if the
//!     // aggressive one does.
//!     assert!(!safe.is_suspected() || fast.is_suspected());
//! }
//! # Ok::<(), afd_core::error::InvalidSuspicionError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests compare exact values"))]

pub mod accrual;
pub mod binary;
pub mod canonical;
pub mod classes;
pub mod dist;
pub mod error;
pub mod failure;
pub mod history;
pub mod process;
pub mod properties;
pub mod stats;
pub mod suspicion;
pub mod system;
pub mod time;
pub mod transform;

pub use accrual::{AccrualFailureDetector, DetectorSeed};
pub use binary::{BinaryFailureDetector, Status, Transition};
pub use canonical::{CanonicalState, StateDigest};
pub use process::ProcessId;
pub use suspicion::SuspicionLevel;
pub use time::{Duration, Timestamp};
