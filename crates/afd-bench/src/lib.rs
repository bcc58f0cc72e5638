//! Shared plumbing for the reproduction experiments (E1–E12 in DESIGN.md).
//!
//! Each experiment is a binary in `src/bin/`; run one with
//! `cargo run -p afd-bench --release --bin e5_threshold_qos`. The
//! detectors come from the catalogue ([`afd_detectors::spec::series`]);
//! the helpers here standardize how level traces are produced from
//! scenarios and which seeds experiments use, so that every table in
//! EXPERIMENTS.md is regenerated from the same machinery: a simulated
//! trace replayed through the shipping inline monitor
//! ([`afd_runtime::replay`](afd_runtime::replay::replay)).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests compare exact values"))]

pub mod bot;
pub mod experiment;

use afd_core::history::SuspicionTrace;
use afd_core::time::Duration;
use afd_detectors::spec::DetectorSpec;
use afd_runtime::replay::replay;
use afd_sim::replay::ReplayConfig;
use afd_sim::scenario::Scenario;
use afd_sim::simulate;

/// The default seed set used by aggregate experiments.
pub const SEEDS: std::ops::Range<u64> = 0..30;

/// The default query cadence (4 Hz — four queries per 1 s heartbeat).
pub fn query_interval() -> Duration {
    Duration::from_millis(250)
}

/// Simulates `scenario` with `seed` and replays it through the shipping
/// monitor with a detector built from `spec`, returning the
/// suspicion-level history at the default query cadence.
pub fn level_trace(scenario: &Scenario, seed: u64, spec: DetectorSpec) -> SuspicionTrace {
    replay(
        &simulate(scenario, seed),
        move |_| spec.build(),
        ReplayConfig::every(query_interval()).with_clock(scenario.monitor_clock),
    )
    .levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::canonical::StateDigest;
    use afd_core::time::Timestamp;
    use afd_detectors::spec;

    #[test]
    fn all_kinds_build_and_run() {
        // A digest of each kind's level bits per scenario shape: the tables
        // E1–E12 print are functions of these traces. Beside the lan row,
        // the shapes take every path through the receive rule — reordering,
        // bursty loss, drift and a crash — over all four seeds.
        let long = Timestamp::from_secs(300);
        let shapes: [(Scenario, std::ops::Range<u64>, [u128; 8]); 5] = [
            (
                Scenario::lan().with_horizon(Timestamp::from_secs(10)),
                1..2,
                [
                    0xa90b_679d_8b0b_8f09_51a7_3930_fa07_fb3f,
                    0xb336_4585_060d_c28c_4718_84d7_0ad6_ae3a,
                    0xa67f_e848_e09f_a0c6_e631_23a0_8827_4fbd,
                    0xebd4_735e_e3c1_e25d_e7f3_5cf4_89c6_0503,
                    0x124f_d8da_9326_0e52_9a2f_9f55_311b_3a05,
                    0xc7b4_4f32_1430_6ea4_d7b1_b034_8299_ad87,
                    0x4366_de56_118a_2ca0_0497_b28c_7c44_31f2,
                    0xa67f_e848_e09f_a0c6_e631_23a0_8827_4fbd,
                ],
            ),
            (
                Scenario::wan_jitter().with_horizon(long),
                0..4,
                [
                    0xaa9c_b359_3278_1f00_3d70_c203_d0bf_3909,
                    0xf68f_501a_92e3_6499_d276_3a22_6314_fe5a,
                    0x6d33_59fc_41de_ba26_9f54_474c_9326_8402,
                    0xf4f9_6f77_c643_6f64_755f_14a1_de91_ab7c,
                    0x1c1a_18ef_ccea_a4b5_099a_7a3d_9b5d_7358,
                    0x2e7b_7959_2480_a468_a57e_27b5_da02_023a,
                    0x5af8_5bae_059b_6084_fd5d_c10a_595c_288e,
                    0x96d4_7069_be0e_0dbd_052b_4cfa_e435_ee18,
                ],
            ),
            (
                Scenario::bursty_loss().with_horizon(long),
                0..4,
                [
                    0x2ea5_e190_ac2d_f70a_830b_4945_7510_6507,
                    0x26f8_42b6_5fdc_48be_26d2_21c1_e0b8_f385,
                    0xb51f_c0e0_3e72_134f_3182_4507_19d1_9467,
                    0xe9a0_9c0c_eee8_1444_4972_39c6_64e7_b407,
                    0x98f1_3382_86a1_95cd_f0a9_62b7_e418_2bc6,
                    0xfad5_3d51_8a53_482c_3b7e_ac2d_783f_6938,
                    0x2339_ac81_0c8b_ee04_3ac8_f971_568d_af78,
                    0x9432_f398_eba7_9901_7597_1fe5_0c65_e619,
                ],
            ),
            (
                Scenario::partially_synchronous().with_horizon(long),
                0..4,
                [
                    0x0d5a_a6b7_fa58_2548_f221_f47e_84c9_2206,
                    0xdfd9_849a_6e3d_b59d_5337_ea5f_3209_4f6d,
                    0x9989_89f9_575b_6ce0_19d0_8f8c_86aa_3c0a,
                    0x52ce_3c52_e109_2a03_5daf_c7df_d5ff_e724,
                    0x635f_7d22_5456_2c9c_8bc3_b0b1_64a9_19e2,
                    0xb4d7_beb0_3479_33a3_0e9f_c1f2_d9bc_7bb9,
                    0x7eb0_cfcf_d50c_3d71_1e88_91dc_5f04_618e,
                    0xf585_0311_c749_7089_be17_0078_64f7_8193,
                ],
            ),
            (
                Scenario::wan_jitter()
                    .with_horizon(long)
                    .with_crash_at(Timestamp::from_secs(100)),
                0..4,
                [
                    0xdbba_fd38_7f54_1d6d_c340_f131_dc9c_3aba,
                    0xcaff_9278_b95f_cd00_fe11_2622_598a_0caa,
                    0x5e5e_e43f_bc36_0e46_37cf_32ae_96ea_36b0,
                    0xd706_5008_2341_0777_b7b5_b665_58b2_ad4e,
                    0xa55e_0141_f11a_6683_6e2f_0e89_4ece_4971,
                    0xe762_7dce_544f_6156_e60c_1d01_5bc9_cfb2,
                    0x8a44_ffc1_9355_4f5a_84e7_1342_fa4d_aed8,
                    0x6476_70e2_8923_e98d_a61e_cb52_45dc_b47c,
                ],
            ),
        ];
        for (scenario, seeds, expected) in shapes {
            for (spec, want) in spec::series().into_iter().zip(expected) {
                let mut digest = StateDigest::new();
                for seed in seeds.clone() {
                    let trace = level_trace(&scenario, seed, spec);
                    assert!(!trace.is_empty(), "{} produced no samples", spec.name());
                    for sample in trace.iter() {
                        digest.push_f64(sample.level.value());
                    }
                }
                assert_eq!(digest.finish(), want, "{} seeds {seeds:?}", spec.name());
            }
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
