//! Shared plumbing for the reproduction experiments (E1–E12 in DESIGN.md)
//! and the Criterion benches.
//!
//! Each experiment is a binary in `src/bin/`; run one with
//! `cargo run -p afd-bench --release --bin e5_threshold_qos`. The helpers
//! here standardize how detectors are constructed, how level traces are
//! produced from scenarios, and which seeds experiments use, so that every
//! table in EXPERIMENTS.md is regenerated from the same machinery.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;

use afd_core::accrual::AccrualFailureDetector;
use afd_core::history::SuspicionTrace;
use afd_core::time::Duration;
use afd_detectors::bertier::BertierAccrual;
use afd_detectors::chen::ChenAccrual;
use afd_detectors::kappa::{KappaAccrual, KappaConfig, PhiContribution, StepContribution};
use afd_detectors::phi::{PhiAccrual, PhiConfig, PhiModel};
use afd_detectors::simple::SimpleAccrual;
use afd_sim::replay::{replay, ReplayConfig};
use afd_sim::scenario::Scenario;
use afd_sim::simulate;

/// The default seed set used by aggregate experiments.
pub const SEEDS: std::ops::Range<u64> = 0..30;

/// The default query cadence (4 Hz — four queries per 1 s heartbeat).
pub fn query_interval() -> Duration {
    Duration::from_millis(250)
}

/// Detector kinds the comparison experiments sweep over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// The §5.1 elapsed-time detector.
    Simple,
    /// The §5.2 Chen estimator.
    Chen,
    /// Bertier et al.'s dynamic-margin detector (paper reference \[3\]).
    Bertier,
    /// The §5.3 φ detector (normal model).
    PhiNormal,
    /// φ with the exponential (Cassandra-style) tail.
    PhiExponential,
    /// φ with the empirical histogram.
    PhiEmpirical,
    /// The §5.4 κ framework with the φ-style contribution.
    KappaPhi,
    /// κ with the step contribution.
    KappaStep,
}

impl DetectorKind {
    /// Every kind, in presentation order.
    pub const ALL: [DetectorKind; 8] = [
        DetectorKind::Simple,
        DetectorKind::Chen,
        DetectorKind::Bertier,
        DetectorKind::PhiNormal,
        DetectorKind::PhiExponential,
        DetectorKind::PhiEmpirical,
        DetectorKind::KappaPhi,
        DetectorKind::KappaStep,
    ];

    /// The display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::Simple => "simple",
            DetectorKind::Chen => "chen",
            DetectorKind::Bertier => "bertier",
            DetectorKind::PhiNormal => "phi-normal",
            DetectorKind::PhiExponential => "phi-exponential",
            DetectorKind::PhiEmpirical => "phi-empirical",
            DetectorKind::KappaPhi => "kappa-phi",
            DetectorKind::KappaStep => "kappa-step",
        }
    }

    /// Builds a fresh detector of this kind.
    pub fn build(self) -> Box<dyn AccrualFailureDetector> {
        match self {
            DetectorKind::Simple => Box::new(SimpleAccrual::new(afd_core::time::Timestamp::ZERO)),
            DetectorKind::Chen => Box::new(ChenAccrual::with_defaults()),
            DetectorKind::Bertier => Box::new(BertierAccrual::with_defaults()),
            DetectorKind::PhiNormal => Box::new(PhiAccrual::with_defaults()),
            DetectorKind::PhiExponential => Box::new(
                PhiAccrual::new(PhiConfig {
                    model: PhiModel::Exponential,
                    ..PhiConfig::default()
                })
                .expect("valid config"),
            ),
            DetectorKind::PhiEmpirical => Box::new(
                PhiAccrual::new(PhiConfig {
                    model: PhiModel::Empirical {
                        bins: 200,
                        max_intervals: 16.0,
                    },
                    ..PhiConfig::default()
                })
                .expect("valid config"),
            ),
            DetectorKind::KappaPhi => Box::new(
                KappaAccrual::new(KappaConfig::default(), PhiContribution).expect("valid config"),
            ),
            DetectorKind::KappaStep => Box::new(
                KappaAccrual::new(KappaConfig::default(), StepContribution::new(0.5))
                    .expect("valid config"),
            ),
        }
    }
}

/// Simulates `scenario` with `seed` and replays it through a fresh
/// detector of `kind`, returning the suspicion-level history at the
/// default query cadence.
pub fn level_trace(scenario: &Scenario, seed: u64, kind: DetectorKind) -> SuspicionTrace {
    let arrivals = simulate(scenario, seed);
    let mut detector = kind.build();
    replay(
        &arrivals,
        detector.as_mut(),
        ReplayConfig::every(query_interval()).with_clock(scenario.monitor_clock),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::time::Timestamp;

    #[test]
    fn all_kinds_build_and_run() {
        let scenario = Scenario::lan().with_horizon(Timestamp::from_secs(10));
        for kind in DetectorKind::ALL {
            let trace = level_trace(&scenario, 1, kind);
            assert!(!trace.is_empty(), "{} produced no samples", kind.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = DetectorKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DetectorKind::ALL.len());
    }
}
