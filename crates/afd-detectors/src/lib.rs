//! Implementations of accrual failure detectors (§5 of the paper).
//!
//! The four detectors of §5, in increasing sophistication as the paper
//! presents them, plus three from the literature around it:
//!
//! | Module | Detector | Suspicion level |
//! |--------|----------|-----------------|
//! | [`simple`] | elapsed time (§5.1, Algorithm 4) | `t − t_last` |
//! | [`chen`] | Chen's estimator as accrual (§5.2) | `max(0, t − EA)` |
//! | [`bertier`] | Bertier et al.'s dynamic margin (ref. \[3\]) | `max(0, t − (EA + α))` |
//! | [`phi`] | the φ detector (§5.3) | `−log₁₀ P_later(t − t_last)` |
//! | [`akka`] | Akka/Cassandra's production φ | logistic-CDF φ with pause padding |
//! | [`adaptive`] | Satzger et al.'s adaptive accrual | `P(gap < t − t_last)`, histogram CDF |
//! | [`kappa`] | the κ framework (§5.4) | Σ contributions of missed heartbeats |
//!
//! Plus the architectural and adversarial pieces:
//!
//! - [`service`]: the application side of Fig. 2 — one private
//!   interpreter per monitored process, fed from the snapshots of the one
//!   monitor (`afd-runtime`'s `ShardedMonitor` and its `SnapshotReader`s);
//! - [`adversary`]: the Appendix A.5 adversary showing Weak Accruement is
//!   not enough.
//!
//! All detectors implement [`afd_core::accrual::AccrualFailureDetector`]:
//! they take explicit timestamps, never read clocks, and can therefore be
//! driven identically by real time or by `afd-sim` traces. Combine any of
//! them with `afd_core::transform::{ThresholdInterpreter,
//! HysteresisInterpreter, AccrualToBinary}` to obtain binary detectors.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod adaptive;
pub mod adversary;
pub mod akka;
pub mod bertier;
pub mod chen;
pub mod kappa;
pub mod kappa_seq;
pub mod phi;
pub mod service;
pub mod simple;
pub mod slowness;

pub use adaptive::{AdaptiveAccrual, AdaptiveConfig};
pub use akka::{AkkaPhi, AkkaPhiConfig};
pub use bertier::{BertierAccrual, BertierConfig};
pub use chen::{ChenAccrual, ChenConfig};
pub use kappa::{KappaAccrual, KappaConfig};
pub use kappa_seq::{SeqKappaAccrual, SeqKappaConfig};
pub use phi::{PhiAccrual, PhiConfig, PhiModel};
pub use service::InterpreterBank;
pub use simple::SimpleAccrual;
pub use slowness::SlownessOracle;
