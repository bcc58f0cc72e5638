//! Property-based tests for Ω: for arbitrary crash subsets and times, the
//! system must converge on the smallest surviving id.

use afd_core::canonical::StateDigest;
use afd_core::failure::FailurePattern;
use afd_core::process::ProcessId;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::phi::PhiAccrual;
use afd_omega::{run_omega, OmegaRun, OmegaRunConfig};
use afd_sim::scenario::Scenario;
use proptest::prelude::*;

proptest! {
    // Each case simulates n²−n links; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn omega_converges_on_lowest_survivor(
        n in 3u32..6,
        crash_ids in prop::collection::btree_set(0u32..6, 0..3),
        crash_base in 40u64..120,
        seed in 0u64..1_000,
    ) {
        // Keep at least one process alive.
        let crash_ids: Vec<u32> = crash_ids.into_iter().filter(|&c| c < n).collect();
        prop_assume!((crash_ids.len() as u32) < n);

        let mut pattern = FailurePattern::all_correct(n);
        for (i, &c) in crash_ids.iter().enumerate() {
            pattern.crash(
                ProcessId::new(c),
                Timestamp::from_secs(crash_base + 20 * i as u64),
            );
        }
        let expected = (0..n)
            .map(ProcessId::new)
            .find(|p| pattern.is_correct(*p))
            .expect("someone survives");

        let config = OmegaRunConfig {
            processes: n,
            link_template: Scenario::wan_jitter(),
            pattern,
            horizon: Timestamp::from_secs(crash_base + 20 * crash_ids.len() as u64 + 140),
            query_interval: Duration::from_millis(500),
            epsilon: 0.1,
            stability: 8,
        };
        let run = run_omega(&config, seed, |_, _| PhiAccrual::with_defaults());
        prop_assert_eq!(
            run.stable_leader(0.2),
            Some(expected),
            "crashes {:?} should leave {} leading",
            crash_ids,
            expected
        );
    }

    /// Leadership timelines never name a process that is already known
    /// crashed for longer than the detection + stability horizon.
    #[test]
    fn dead_leaders_are_abandoned_promptly(
        seed in 0u64..500,
        crash_at in 50u64..100,
    ) {
        let n = 4;
        let mut pattern = FailurePattern::all_correct(n);
        pattern.crash(ProcessId::new(0), Timestamp::from_secs(crash_at));
        let config = OmegaRunConfig {
            processes: n,
            link_template: Scenario::wan_jitter(),
            pattern,
            horizon: Timestamp::from_secs(crash_at + 120),
            query_interval: Duration::from_millis(500),
            epsilon: 0.1,
            stability: 8,
        };
        let run = run_omega(&config, seed, |_, _| PhiAccrual::with_defaults());
        // Generous bound: detection (a few seconds at φ-threshold scale)
        // plus stability (4 s), with margin.
        let deadline = Timestamp::from_secs(crash_at + 60);
        for q in 1..n {
            let stale = run
                .timeline(ProcessId::new(q))
                .iter()
                .filter(|(t, l)| *t > deadline && *l == ProcessId::new(0))
                .count();
            prop_assert_eq!(stale, 0, "p{} still names the dead leader after {}", q, deadline);
        }
    }
}

/// A digest of every `(at, leader)` pair of every process's timeline.
fn timeline_digest(run: &OmegaRun, processes: u32) -> u128 {
    let mut digest = StateDigest::new();
    for q in 0..processes {
        let timeline = run.timeline(ProcessId::new(q));
        digest.push_usize(timeline.len());
        for &(at, leader) in timeline {
            digest.push_u64(at.as_nanos());
            digest.push_u64(u64::from(leader.as_u32()));
        }
    }
    digest.finish()
}

/// The leader timelines of E12's configuration (at stability 1, where
/// every Algorithm 1 verdict change reaches the output, and at 8) and of
/// a run that loses two processes, as every earlier build computed them.
#[test]
fn run_omega_timelines_are_pinned() {
    let e12 = |stability: u32| {
        let mut pattern = FailurePattern::all_correct(5);
        pattern.crash(ProcessId::new(0), Timestamp::from_secs(150));
        OmegaRunConfig {
            processes: 5,
            link_template: Scenario::wan_jitter(),
            pattern,
            horizon: Timestamp::from_secs(350),
            query_interval: Duration::from_millis(500),
            epsilon: 0.1,
            stability,
        }
    };
    let pinned: [(u32, [u128; 4]); 2] = [
        (
            1,
            [
                0x8f93_9f2b_e017_9693_23ca_3815_97e8_2943,
                0x445a_eb52_51e0_a9ab_8798_1301_d97f_80a3,
                0x5743_b358_19f5_5641_7d66_5f99_710c_c7dd,
                0xfccf_25e3_6579_7dfc_8b67_b072_151d_9471,
            ],
        ),
        (
            8,
            [
                0x772b_bad6_d7db_42aa_e30b_cd3f_d438_e3cf,
                0x1198_e197_6132_8e71_8ddf_d057_ca0c_8a8b,
                0xf436_fadc_2219_3ab8_c548_1cb5_fad8_8c64,
                0xbd3b_85b9_94be_38aa_f1bd_2bc2_e421_eae8,
            ],
        ),
    ];
    for (stability, digests) in pinned {
        let config = e12(stability);
        for (seed, &expected) in (0..).zip(&digests) {
            let run = run_omega(&config, seed, |_, _| PhiAccrual::with_defaults());
            assert_eq!(
                timeline_digest(&run, 5),
                expected,
                "stability {stability}, seed {seed}: {:#x}",
                timeline_digest(&run, 5)
            );
        }
    }

    let mut pattern = FailurePattern::all_correct(4);
    pattern.crash(ProcessId::new(0), Timestamp::from_secs(60));
    pattern.crash(ProcessId::new(2), Timestamp::from_secs(100));
    let config = OmegaRunConfig {
        processes: 4,
        link_template: Scenario::wan_jitter(),
        pattern,
        horizon: Timestamp::from_secs(240),
        query_interval: Duration::from_millis(500),
        epsilon: 0.1,
        stability: 8,
    };
    let run = run_omega(&config, 5, |_, _| PhiAccrual::with_defaults());
    assert_eq!(run.stable_leader(0.25), Some(ProcessId::new(1)));
    assert_eq!(
        timeline_digest(&run, 4),
        0x55a7_8c6a_de58_8606_289c_8bef_1ab5_a72d,
        "{:#x}",
        timeline_digest(&run, 4)
    );
}

/// Ω over links whose sender and monitor clocks both drift, chaotic
/// until GST at 120 s: every query is read on the monitor's own clock,
/// and the leader's crash at 150 s still hands leadership to p1.
#[test]
fn omega_converges_over_drifting_clocks() {
    let mut pattern = FailurePattern::all_correct(4);
    pattern.crash(ProcessId::new(0), Timestamp::from_secs(150));
    let config = OmegaRunConfig {
        processes: 4,
        link_template: Scenario::partially_synchronous(),
        pattern,
        horizon: Timestamp::from_secs(400),
        query_interval: Duration::from_millis(500),
        epsilon: 0.1,
        stability: 8,
    };
    for seed in 0..3 {
        let run = run_omega(&config, seed, |_, _| PhiAccrual::with_defaults());
        assert_eq!(
            run.stable_leader(0.25),
            Some(ProcessId::new(1)),
            "seed {seed}"
        );
    }
}
