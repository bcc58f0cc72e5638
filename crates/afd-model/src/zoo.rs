//! The detector zoo as the model checker sees it: every detector this
//! repository implements, constructed with *tiny* windows so its state
//! space collapses quickly under canonical-state merging, and wrapped in
//! one `Clone` enum so snapshot/restore is a plain copy.

use afd_core::accrual::AccrualFailureDetector;
use afd_core::canonical::{CanonicalState, StateDigest};
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::adaptive::{AdaptiveAccrual, AdaptiveConfig};
use afd_detectors::akka::{AkkaPhi, AkkaPhiConfig};
use afd_detectors::bertier::{BertierAccrual, BertierConfig};
use afd_detectors::chen::{ChenAccrual, ChenConfig};
use afd_detectors::phi::{PhiAccrual, PhiConfig, PhiModel};
use afd_detectors::simple::SimpleAccrual;

/// Which zoo inhabitant a model run explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// The elapsed-time detector (§5.1 / Algorithm 4).
    Simple,
    /// Chen's expected-arrival estimator (§5.2).
    Chen,
    /// Bertier's Jacobson-margin estimator.
    Bertier,
    /// The φ detector (§5.3) under the normal model.
    Phi,
    /// The Akka/Cassandra production φ variant.
    Akka,
    /// The Satzger adaptive (histogram CDF) detector.
    Adaptive,
}

impl DetectorKind {
    /// Every kind, in the zoo's canonical order.
    pub const ALL: [DetectorKind; 6] = [
        DetectorKind::Simple,
        DetectorKind::Chen,
        DetectorKind::Bertier,
        DetectorKind::Phi,
        DetectorKind::Akka,
        DetectorKind::Adaptive,
    ];

    /// The kind's display name: the runtime zoo's member name.
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::Simple => "simple",
            DetectorKind::Chen => "chen",
            DetectorKind::Bertier => "bertier",
            DetectorKind::Phi => "phi",
            DetectorKind::Akka => "akka",
            DetectorKind::Adaptive => "adaptive",
        }
    }

    /// The interpretation threshold `T₁` for this kind's suspicion scale:
    /// the one `DetectorZoo::standard` applies at a 1 s heartbeat cadence
    /// (a test holds both to what a chaos run reports).
    pub fn threshold(self) -> f64 {
        match self {
            DetectorKind::Simple => 2.0,
            DetectorKind::Chen => 1.0,
            DetectorKind::Bertier => 1.0,
            DetectorKind::Phi => 2.0,
            DetectorKind::Akka => 2.0,
            DetectorKind::Adaptive => 0.9,
        }
    }

    /// A strictly larger threshold `T₂ > T₁` on the same scale, used to
    /// check the §4.4 ordering theorems (conservative vs aggressive).
    pub fn threshold_high(self) -> f64 {
        match self {
            // The adaptive level is a probability in [0, 1), so doubling
            // would leave its reachable range.
            DetectorKind::Adaptive => 0.95,
            kind => kind.threshold() * 2.0,
        }
    }

    /// The shared hysteresis low threshold `T₀ < T₁` (§4.4 requires the
    /// *same* `T₀` across interpreters for the orderings to hold).
    pub fn threshold_low(self) -> f64 {
        self.threshold() / 2.0
    }

    /// The Algorithm 1/2 quantization resolution ε for this kind's scale.
    /// Coarse enough that the transformers' discrete state stays tiny,
    /// fine enough that levels near the thresholds still distinguish.
    pub fn model_epsilon(self) -> f64 {
        match self {
            // Adaptive levels live in [0, 1), so the grid must be finer.
            DetectorKind::Adaptive => 0.05,
            _ => 0.25,
        }
    }
}

/// One zoo detector with model-sized windows, cloneable for cheap
/// snapshot/restore during the search.
///
/// Window capacities are deliberately tiny (4 samples) and the adaptive
/// histogram coarse (16 bins): the checker's canonical-state set merges
/// states exactly, so the smaller the detector's memory, the sooner
/// interleavings that differ only in dead history collapse.
#[derive(Debug, Clone)]
pub enum ZooDetector {
    /// §5.1 elapsed-time.
    Simple(SimpleAccrual),
    /// §5.2 Chen.
    Chen(ChenAccrual),
    /// Bertier.
    Bertier(BertierAccrual),
    /// §5.3 φ.
    Phi(PhiAccrual),
    /// Akka φ.
    Akka(AkkaPhi),
    /// Satzger adaptive.
    Adaptive(AdaptiveAccrual),
}

impl ZooDetector {
    /// Builds the model-sized detector for `kind`, assuming a heartbeat
    /// interval of `interval`.
    ///
    /// # Panics
    ///
    /// Panics if the model-sized configurations are rejected — they are
    /// constants, so that would be a bug here, not in the caller.
    pub fn new(kind: DetectorKind, interval: Duration) -> Self {
        match kind {
            DetectorKind::Simple => ZooDetector::Simple(SimpleAccrual::new(Timestamp::ZERO)),
            DetectorKind::Chen => ZooDetector::Chen(
                ChenAccrual::new(ChenConfig {
                    window_size: 4,
                    initial_interval: interval,
                })
                .expect("model chen config is valid"),
            ),
            DetectorKind::Bertier => ZooDetector::Bertier(
                BertierAccrual::new(BertierConfig {
                    initial_interval: interval,
                    ..BertierConfig::default()
                })
                .expect("model bertier config is valid"),
            ),
            DetectorKind::Phi => ZooDetector::Phi(
                PhiAccrual::new(PhiConfig {
                    window_size: 4,
                    min_samples: 2,
                    min_std_dev: Duration::from_millis(100),
                    initial_interval: interval,
                    model: PhiModel::Normal,
                })
                .expect("model phi config is valid"),
            ),
            DetectorKind::Akka => ZooDetector::Akka(
                AkkaPhi::new(AkkaPhiConfig {
                    window_size: 4,
                    first_heartbeat_estimate: interval,
                    acceptable_heartbeat_pause: Duration::ZERO,
                    min_std_dev: Duration::from_millis(100),
                })
                .expect("model akka config is valid"),
            ),
            DetectorKind::Adaptive => ZooDetector::Adaptive(
                AdaptiveAccrual::new(AdaptiveConfig {
                    window_size: 4,
                    bins: 16,
                    max_intervals: 8.0,
                    min_samples: 2,
                    initial_interval: interval,
                })
                .expect("model adaptive config is valid"),
            ),
        }
    }
}

impl AccrualFailureDetector for ZooDetector {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        match self {
            ZooDetector::Simple(d) => d.record_heartbeat(arrival),
            ZooDetector::Chen(d) => d.record_heartbeat(arrival),
            ZooDetector::Bertier(d) => d.record_heartbeat(arrival),
            ZooDetector::Phi(d) => d.record_heartbeat(arrival),
            ZooDetector::Akka(d) => d.record_heartbeat(arrival),
            ZooDetector::Adaptive(d) => d.record_heartbeat(arrival),
        }
    }

    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        match self {
            ZooDetector::Simple(d) => d.suspicion_level(now),
            ZooDetector::Chen(d) => d.suspicion_level(now),
            ZooDetector::Bertier(d) => d.suspicion_level(now),
            ZooDetector::Phi(d) => d.suspicion_level(now),
            ZooDetector::Akka(d) => d.suspicion_level(now),
            ZooDetector::Adaptive(d) => d.suspicion_level(now),
        }
    }
}

impl CanonicalState for ZooDetector {
    fn canonical_state(&self, digest: &mut StateDigest) {
        match self {
            ZooDetector::Simple(d) => {
                digest.push_u64(0);
                d.canonical_state(digest);
            }
            ZooDetector::Chen(d) => {
                digest.push_u64(1);
                d.canonical_state(digest);
            }
            ZooDetector::Bertier(d) => {
                digest.push_u64(2);
                d.canonical_state(digest);
            }
            ZooDetector::Phi(d) => {
                digest.push_u64(3);
                d.canonical_state(digest);
            }
            ZooDetector::Akka(d) => {
                digest.push_u64(4);
                d.canonical_state(digest);
            }
            ZooDetector::Adaptive(d) => {
                digest.push_u64(5);
                d.canonical_state(digest);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_constructs_and_accrues() {
        for kind in DetectorKind::ALL {
            let mut d = ZooDetector::new(kind, Duration::from_secs(1));
            for k in 1..=5u64 {
                d.record_heartbeat(Timestamp::from_secs(k));
            }
            let near = d.suspicion_level(Timestamp::from_secs(5));
            let far = d.suspicion_level(Timestamp::from_secs(60));
            assert!(
                far.value() > near.value(),
                "{}: no accrual ({near} vs {far})",
                kind.name()
            );
        }
    }

    #[test]
    fn thresholds_are_ordered() {
        for kind in DetectorKind::ALL {
            assert!(kind.threshold_low() < kind.threshold());
            assert!(kind.threshold() < kind.threshold_high());
        }
    }

    #[test]
    fn kinds_carry_the_chaos_zoos_names_and_thresholds() {
        // The §4.4 orderings the model checks are the ones chaos runs
        // only while both zoos threshold the same detectors at the same
        // levels, in the same order.
        let scenario = afd_runtime::ChaosScenario::new(Duration::from_secs(2));
        let chaos: Vec<(&str, f64)> = afd_runtime::run_chaos(&scenario, 1)
            .detectors
            .iter()
            .map(|d| (d.name, d.threshold.value()))
            .collect();
        let model: Vec<(&str, f64)> = DetectorKind::ALL
            .iter()
            .map(|kind| (kind.name(), kind.threshold()))
            .collect();
        assert_eq!(model, chaos);
    }

    #[test]
    fn clone_is_a_faithful_snapshot() {
        for kind in DetectorKind::ALL {
            let mut d = ZooDetector::new(kind, Duration::from_secs(1));
            d.record_heartbeat(Timestamp::from_secs(1));
            d.record_heartbeat(Timestamp::from_secs(2));
            let snap = d.clone();
            assert_eq!(
                afd_core::canonical::digest_of(&d),
                afd_core::canonical::digest_of(&snap),
                "{}: clone digest differs",
                kind.name()
            );
        }
    }
}
