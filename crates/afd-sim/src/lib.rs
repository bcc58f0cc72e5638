//! Deterministic heartbeat-link simulator for failure detectors.
//!
//! The paper's detectors are pure functions of heartbeat arrival times;
//! this crate generates those arrival processes under controlled, seeded
//! network conditions so that every property, theorem, and QoS claim can be
//! checked reproducibly:
//!
//! - [`rng`]: seeded randomness (uniform/normal/exponential/Bernoulli).
//! - [`clock`]: drifting local clocks (Appendix A.4's partially
//!   synchronous model).
//! - [`delay`] / [`loss`] / [`channel`]: network models — constant, uniform,
//!   normal, and shifted-exponential delay; Bernoulli and Gilbert–Elliott
//!   burst loss; pre-GST chaos.
//! - [`scenario`]: declarative run configurations with named presets
//!   (`ideal`, `lan`, `wan_jitter`, `bursty_loss`, `partially_synchronous`)
//!   and phases: sender outages, partitions, chaos, send-jitter changes.
//! - [`engine`]: runs a scenario into an [`trace::ArrivalTrace`], one
//!   loop over the sender's heartbeats.
//! - [`replay`]: the query schedule ([`ReplayConfig`]) of a trace replay;
//!   the replay itself runs a trace through the shipping monitor, as
//!   `afd_runtime::replay`, so Algorithm 4's receive rule exists once.
//!
//! # Example
//!
//! ```
//! use afd_core::time::{Duration, Timestamp};
//! use afd_sim::engine::simulate;
//! use afd_sim::scenario::Scenario;
//!
//! let scenario = Scenario::lan().with_crash_at(Timestamp::from_secs(30));
//! let trace = simulate(&scenario, 42);
//! assert!(trace.sent_count() > 0);
//! assert!(trace.records().iter().all(|r| r.sent_at < Timestamp::from_secs(30)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests compare exact values"))]

pub mod channel;
pub mod clock;
pub mod delay;
pub mod engine;
pub mod error;
pub mod loss;
pub mod replay;
pub mod rng;
pub mod scenario;
pub mod trace;
pub mod trace_io;

pub use engine::simulate;
pub use error::ModelError;
pub use replay::ReplayConfig;
pub use scenario::Scenario;
pub use trace::ArrivalTrace;
pub use trace_io::{read_csv, write_csv};
