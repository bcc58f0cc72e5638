//! The detector catalogue. A [`DetectorSpec`] is a display name and one
//! kind's configuration, validated when made, and builds an
//! [`AnyDetector`], one enum over every kind.
//!
//! - [`zoo`]: the six detectors the chaos harness races and the model
//!   checker explores, each a [`ZooSpec`] with its thresholds. §4.4's
//!   orderings compare interpreters of the *same* detector at `T₁ < T₂`
//!   with a shared `T₀`, so both read them from here.
//! - [`series`]: the eight detectors E1–E12 compare. Its [`phi_normal`]
//!   is the zoo's [`phi`] under the name the experiments print.

use afd_core::accrual::{AccrualFailureDetector, DetectorSeed, LevelCurve};
use afd_core::canonical::{CanonicalState, StateDigest};
use afd_core::error::ConfigError;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};

use crate::adaptive::{AdaptiveAccrual, AdaptiveConfig};
use crate::akka::{AkkaPhi, AkkaPhiConfig};
use crate::bertier::{BertierAccrual, BertierConfig};
use crate::chen::{ChenAccrual, ChenConfig};
use crate::kappa::{KappaAccrual, KappaConfig, PhiContribution, StepContribution};
use crate::phi::{PhiAccrual, PhiConfig, PhiModel};
use crate::simple::SimpleAccrual;

/// One detector kind with its configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum DetectorConfig {
    /// §5.1's elapsed-time detector, its clock started at zero.
    Simple,
    /// §5.2's Chen estimator.
    Chen(ChenConfig),
    /// Bertier et al.'s dynamic margin (paper reference \[3\]).
    Bertier(BertierConfig),
    /// §5.3's φ, under any of its models.
    Phi(PhiConfig),
    /// The Akka/Cassandra production φ.
    Akka(AkkaPhiConfig),
    /// Satzger et al.'s adaptive accrual.
    Adaptive(AdaptiveConfig),
    /// §5.4's κ with the φ-style contribution.
    KappaPhi(KappaConfig),
    /// κ with the step contribution.
    KappaStep(KappaConfig, StepContribution),
}

/// A named, validated detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorSpec {
    name: &'static str,
    config: DetectorConfig,
}

impl DetectorSpec {
    /// The spec `name` for `config`, if `config` is valid.
    fn new(name: &'static str, config: DetectorConfig) -> Result<Self, ConfigError> {
        try_build(config)?;
        Ok(DetectorSpec { name, config })
    }

    /// The display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// A fresh detector. It cannot fail: the configuration was validated
    /// when the spec was made.
    pub fn build(&self) -> AnyDetector {
        try_build(self.config).expect("a spec's config is validated when the spec is made")
    }

    /// The same detector with the model checker's tiny memory, expecting
    /// heartbeats every `interval`: four-sample windows, two bootstrap
    /// samples, a 100 ms σ floor, a 16-bin histogram over eight intervals.
    /// The less a detector remembers, the sooner exact state merging
    /// collapses schedules that differ only in dead history.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `interval` is zero.
    pub fn model_sized(&self, interval: Duration) -> Result<Self, ConfigError> {
        const WINDOW: usize = 4;
        const MIN_SAMPLES: usize = 2;
        let floor = Duration::from_millis(100);
        let mut config = self.config;
        match &mut config {
            DetectorConfig::Simple => {}
            DetectorConfig::Chen(c) => {
                c.window_size = WINDOW;
                c.initial_interval = interval;
            }
            DetectorConfig::Bertier(c) => c.initial_interval = interval,
            DetectorConfig::Phi(c) => {
                c.window_size = WINDOW;
                c.min_samples = MIN_SAMPLES;
                c.min_std_dev = floor;
                c.initial_interval = interval;
            }
            DetectorConfig::Akka(c) => {
                c.window_size = WINDOW;
                c.first_heartbeat_estimate = interval;
                c.min_std_dev = floor;
            }
            DetectorConfig::Adaptive(c) => {
                c.window_size = WINDOW;
                c.bins = 16;
                c.max_intervals = 8.0;
                c.min_samples = MIN_SAMPLES;
                c.initial_interval = interval;
            }
            DetectorConfig::KappaPhi(c) | DetectorConfig::KappaStep(c, _) => {
                c.window_size = WINDOW;
                c.min_samples = MIN_SAMPLES;
                c.min_std_dev = floor;
                c.initial_interval = interval;
            }
        }
        DetectorSpec::new(self.name, config)
    }
}

fn try_build(config: DetectorConfig) -> Result<AnyDetector, ConfigError> {
    Ok(match config {
        DetectorConfig::Simple => AnyDetector::Simple(SimpleAccrual::new(Timestamp::ZERO)),
        DetectorConfig::Chen(c) => AnyDetector::Chen(ChenAccrual::new(c)?),
        DetectorConfig::Bertier(c) => AnyDetector::Bertier(BertierAccrual::new(c)?),
        DetectorConfig::Phi(c) => AnyDetector::Phi(PhiAccrual::new(c)?),
        DetectorConfig::Akka(c) => AnyDetector::Akka(AkkaPhi::new(c)?),
        DetectorConfig::Adaptive(c) => AnyDetector::Adaptive(AdaptiveAccrual::new(c)?),
        DetectorConfig::KappaPhi(c) => {
            AnyDetector::KappaPhi(KappaAccrual::new(c, PhiContribution)?)
        }
        DetectorConfig::KappaStep(c, step) => AnyDetector::KappaStep(KappaAccrual::new(c, step)?),
    })
}

/// A zoo member: a detector, the thresholds `T₀ < T₁ < T₂` of its scale
/// (calibrated for a 1 s heartbeat cadence), and the quantization ε the
/// model checker runs Algorithms 1 and 2 at on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZooSpec {
    /// The detector.
    pub detector: DetectorSpec,
    /// `T₀`: the hysteresis low threshold, shared by every interpreter
    /// (§4.4 needs the same `T₀` for its orderings to hold).
    pub low: f64,
    /// `T₁`: the threshold the chaos harness interprets the level at.
    pub threshold: f64,
    /// `T₂ > T₁`: the conservative threshold of the §4.4 orderings.
    pub high: f64,
    /// ε: coarse enough that the transformers' discrete state stays tiny,
    /// fine enough that levels near the thresholds still differ.
    pub epsilon: f64,
}

/// A catalogue entry; the defaults it is made from are valid.
fn entry(name: &'static str, config: DetectorConfig) -> DetectorSpec {
    DetectorSpec::new(name, config).expect("catalogue configs are valid")
}

fn zoo_entry(
    name: &'static str,
    config: DetectorConfig,
    (low, threshold, high, epsilon): (f64, f64, f64, f64),
) -> ZooSpec {
    let detector = entry(name, config);
    ZooSpec {
        detector,
        low,
        threshold,
        high,
        epsilon,
    }
}

// The zoo's thresholds as (T₀, T₁, T₂, ε). Elapsed-time scales suspect at
// 2 s or 1 s of lateness, the φ family at φ = 2 (tail odds 1:100); T₀ is
// half of T₁ and T₂ twice it, except on the adaptive scale, a probability
// in [0, 1), where doubling would leave the reachable range and ε must be
// finer.

/// The elapsed-time detector (§5.1 / Algorithm 4).
pub fn simple() -> ZooSpec {
    zoo_entry("simple", DetectorConfig::Simple, (1.0, 2.0, 4.0, 0.25))
}

/// Chen's expected-arrival estimator (§5.2).
pub fn chen() -> ZooSpec {
    let config = DetectorConfig::Chen(ChenConfig::default());
    zoo_entry("chen", config, (0.5, 1.0, 2.0, 0.25))
}

/// Bertier's Jacobson-margin estimator.
pub fn bertier() -> ZooSpec {
    let config = DetectorConfig::Bertier(BertierConfig::default());
    zoo_entry("bertier", config, (0.5, 1.0, 2.0, 0.25))
}

/// The φ detector (§5.3) under the normal model.
pub fn phi() -> ZooSpec {
    let config = DetectorConfig::Phi(PhiConfig::default());
    zoo_entry("phi", config, (1.0, 2.0, 4.0, 0.25))
}

/// The Akka/Cassandra production φ.
pub fn akka() -> ZooSpec {
    let config = DetectorConfig::Akka(AkkaPhiConfig::default());
    zoo_entry("akka", config, (1.0, 2.0, 4.0, 0.25))
}

/// The Satzger adaptive detector: at 0.9, nine in ten past gaps were
/// shorter.
pub fn adaptive() -> ZooSpec {
    let config = DetectorConfig::Adaptive(AdaptiveConfig::default());
    zoo_entry("adaptive", config, (0.45, 0.9, 0.95, 0.05))
}

/// The zoo, in its canonical order.
pub fn zoo() -> [ZooSpec; 6] {
    [simple(), chen(), bertier(), phi(), akka(), adaptive()]
}

/// [`phi`] under the name the E-series prints.
pub fn phi_normal() -> DetectorSpec {
    entry("phi-normal", phi().detector.config)
}

/// φ with the exponential (Cassandra-style) tail.
pub fn phi_exponential() -> DetectorSpec {
    let config = PhiConfig {
        model: PhiModel::Exponential,
        ..PhiConfig::default()
    };
    entry("phi-exponential", DetectorConfig::Phi(config))
}

/// φ with the empirical histogram.
pub fn phi_empirical() -> DetectorSpec {
    let config = PhiConfig {
        model: PhiModel::Empirical {
            bins: 200,
            max_intervals: 16.0,
        },
        ..PhiConfig::default()
    };
    entry("phi-empirical", DetectorConfig::Phi(config))
}

/// κ with the φ-style contribution (§5.4).
pub fn kappa_phi() -> DetectorSpec {
    let config = DetectorConfig::KappaPhi(KappaConfig::default());
    entry("kappa-phi", config)
}

/// κ with a step half an interval overdue.
pub fn kappa_step() -> DetectorSpec {
    let config = DetectorConfig::KappaStep(KappaConfig::default(), StepContribution::new(0.5));
    entry("kappa-step", config)
}

/// The detectors E1–E12 compare, in presentation order.
pub fn series() -> [DetectorSpec; 8] {
    [
        simple().detector,
        chen().detector,
        bertier().detector,
        phi_normal(),
        phi_exponential(),
        phi_empirical(),
        kappa_phi(),
        kappa_step(),
    ]
}

/// Any catalogued detector, dispatched statically.
#[derive(Debug, Clone)]
pub enum AnyDetector {
    /// §5.1 elapsed time.
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
    /// §5.4 κ, φ-style contribution.
    KappaPhi(KappaAccrual<PhiContribution>),
    /// κ, step contribution.
    KappaStep(KappaAccrual<StepContribution>),
}

/// Runs `$body` with `$d` bound to the detector inside `$any`.
macro_rules! each {
    ($any:expr, $d:ident => $body:expr) => {
        match $any {
            AnyDetector::Simple($d) => $body,
            AnyDetector::Chen($d) => $body,
            AnyDetector::Bertier($d) => $body,
            AnyDetector::Phi($d) => $body,
            AnyDetector::Akka($d) => $body,
            AnyDetector::Adaptive($d) => $body,
            AnyDetector::KappaPhi($d) => $body,
            AnyDetector::KappaStep($d) => $body,
        }
    };
}

impl AccrualFailureDetector for AnyDetector {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        each!(self, d => d.record_heartbeat(arrival));
    }

    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        each!(self, d => d.suspicion_level(now))
    }

    fn save_seed(&self) -> Option<DetectorSeed> {
        each!(self, d => d.save_seed())
    }

    fn restore_seed(&mut self, seed: &DetectorSeed) {
        each!(self, d => d.restore_seed(seed));
    }

    fn prefetch(&self) {
        each!(self, d => d.prefetch());
    }

    fn level_curve(&self) -> Option<LevelCurve> {
        each!(self, d => d.level_curve())
    }
}

impl CanonicalState for AnyDetector {
    fn canonical_state(&self, digest: &mut StateDigest) {
        let tag = match self {
            AnyDetector::Simple(_) => 0,
            AnyDetector::Chen(_) => 1,
            AnyDetector::Bertier(_) => 2,
            AnyDetector::Phi(_) => 3,
            AnyDetector::Akka(_) => 4,
            AnyDetector::Adaptive(_) => 5,
            AnyDetector::KappaPhi(_) => 6,
            AnyDetector::KappaStep(_) => 7,
        };
        digest.push_u64(tag);
        each!(self, d => d.canonical_state(digest));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::canonical::digest_of;

    fn every_spec() -> impl Iterator<Item = DetectorSpec> {
        zoo().map(|z| z.detector).into_iter().chain(series())
    }

    #[test]
    fn every_kind_constructs_and_accrues() {
        let second = Duration::from_secs(1);
        for spec in every_spec().flat_map(|s| [s, s.model_sized(second).unwrap()]) {
            let mut d = spec.build();
            for k in 1..=5u64 {
                d.record_heartbeat(Timestamp::from_secs(k));
            }
            let near = d.suspicion_level(Timestamp::from_secs(5));
            let far = d.suspicion_level(Timestamp::from_secs(60));
            assert!(far > near, "{}: no accrual ({near} vs {far})", spec.name());
        }
    }

    #[test]
    fn thresholds_are_ordered() {
        for z in zoo() {
            assert!(z.low < z.threshold, "{}", z.detector.name());
            assert!(z.threshold < z.high, "{}", z.detector.name());
            assert!(z.epsilon > 0.0, "{}", z.detector.name());
        }
    }

    #[test]
    fn clone_is_a_faithful_snapshot() {
        for spec in every_spec() {
            let mut d = spec.model_sized(Duration::from_secs(1)).unwrap().build();
            d.record_heartbeat(Timestamp::from_secs(1));
            d.record_heartbeat(Timestamp::from_secs(2));
            assert_eq!(digest_of(&d), digest_of(&d.clone()), "{}", spec.name());
        }
    }
}
