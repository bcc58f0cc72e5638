//! Shared plumbing for the reproduction experiments (E1–E12 in DESIGN.md).
//!
//! Each experiment is a binary in `src/bin/`; run one with
//! `cargo run -p afd-bench --release --bin e5_threshold_qos`. The
//! detectors come from the catalogue ([`afd_detectors::spec::series`]);
//! the helpers here standardize how level traces are produced from
//! scenarios and which seeds experiments use, so that every table in
//! EXPERIMENTS.md is regenerated from the same machinery.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use afd_core::history::SuspicionTrace;
use afd_core::time::Duration;
use afd_detectors::spec::DetectorSpec;
use afd_sim::replay::{replay, ReplayConfig};
use afd_sim::scenario::Scenario;
use afd_sim::simulate;

/// The default seed set used by aggregate experiments.
pub const SEEDS: std::ops::Range<u64> = 0..30;

/// The default query cadence (4 Hz — four queries per 1 s heartbeat).
pub fn query_interval() -> Duration {
    Duration::from_millis(250)
}

/// Simulates `scenario` with `seed` and replays it through a fresh
/// detector built from `spec`, returning the suspicion-level history at
/// the default query cadence.
pub fn level_trace(scenario: &Scenario, seed: u64, spec: DetectorSpec) -> SuspicionTrace {
    let arrivals = simulate(scenario, seed);
    let mut detector = spec.build();
    replay(
        &arrivals,
        &mut detector,
        ReplayConfig::every(query_interval()).with_clock(scenario.monitor_clock),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::canonical::StateDigest;
    use afd_core::time::Timestamp;
    use afd_detectors::spec;

    #[test]
    fn all_kinds_build_and_run() {
        let scenario = Scenario::lan().with_horizon(Timestamp::from_secs(10));
        // A digest of each kind's level bits: the tables E1–E12 print are
        // functions of these traces.
        let expected: [u128; 8] = [
            0xa90b_679d_8b0b_8f09_51a7_3930_fa07_fb3f,
            0xb336_4585_060d_c28c_4718_84d7_0ad6_ae3a,
            0xa67f_e848_e09f_a0c6_e631_23a0_8827_4fbd,
            0xebd4_735e_e3c1_e25d_e7f3_5cf4_89c6_0503,
            0x124f_d8da_9326_0e52_9a2f_9f55_311b_3a05,
            0xc7b4_4f32_1430_6ea4_d7b1_b034_8299_ad87,
            0x4366_de56_118a_2ca0_0497_b28c_7c44_31f2,
            0xa67f_e848_e09f_a0c6_e631_23a0_8827_4fbd,
        ];
        for (spec, want) in spec::series().into_iter().zip(expected) {
            let trace = level_trace(&scenario, 1, spec);
            assert!(!trace.is_empty(), "{} produced no samples", spec.name());
            let mut digest = StateDigest::new();
            for sample in trace.iter() {
                digest.push_f64(sample.level.value());
            }
            assert_eq!(digest.finish(), want, "{}", spec.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = spec::series().iter().map(DetectorSpec::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), spec::series().len());
    }
}
