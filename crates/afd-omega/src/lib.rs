//! Eventual leader election (the **Ω oracle**) built on accrual failure
//! detectors — the end-to-end demonstration of the paper's computational-
//! equivalence result.
//!
//! §4 of the paper proves that ◊P_ac and ◊P have the same computational
//! power, and §6 discusses leader oracles (Chu; Mostéfaoui et al.) as
//! consumers of failure detection. Ω — "eventually, all correct processes
//! trust the same correct process" — is the weakest failure detector for
//! consensus, so electing a leader through the paper's machinery is the
//! canonical proof-by-construction that nothing was lost on the way from
//! suspicion levels to classical verdicts:
//!
//! ```text
//! heartbeats → monitor (afd_runtime::replay) → level (◊P_ac)
//!            → Algorithm 1 (◊P) → Ω = min trusted
//! ```
//!
//! - [`OmegaElector`]: one process's module — an Algorithm 1 transformer
//!   per peer over the levels its monitor publishes, leader = smallest
//!   unsuspected id.
//! - [`simulation`]: whole-system runs over `afd-sim` links replayed
//!   through the shipping monitor, with crash patterns, plus the
//!   stability check for the Ω property.
//!
//! # Example
//!
//! ```
//! use afd_core::failure::FailurePattern;
//! use afd_core::process::ProcessId;
//! use afd_core::time::{Duration, Timestamp};
//! use afd_detectors::phi::PhiAccrual;
//! use afd_omega::{run_omega, OmegaRunConfig};
//! use afd_sim::scenario::Scenario;
//!
//! let mut pattern = FailurePattern::all_correct(3);
//! pattern.crash(ProcessId::new(0), Timestamp::from_secs(60));
//! let config = OmegaRunConfig {
//!     processes: 3,
//!     link_template: Scenario::wan_jitter(),
//!     pattern,
//!     horizon: Timestamp::from_secs(180),
//!     query_interval: Duration::from_millis(500),
//!     epsilon: 0.1,
//!     stability: 8,
//! };
//! let run = run_omega(&config, 42, |_, _| PhiAccrual::with_defaults());
//! // After p0's crash, every correct process settles on p1.
//! assert_eq!(run.stable_leader(0.3), Some(ProcessId::new(1)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests compare exact values"))]

pub mod elector;
pub mod simulation;

pub use elector::OmegaElector;
pub use simulation::{run_omega, OmegaRun, OmegaRunConfig};
