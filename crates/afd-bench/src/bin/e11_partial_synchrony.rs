//! **E11 — Appendix A.4: the simple detector in a partially synchronous
//! system.**
//!
//! Theorem 15's setting: drifting local clocks (rate θ around 1), chaotic
//! delays and losses before GST, bounded behaviour after. The table sweeps
//! clock drift and shows, for the Algorithm 4 detector:
//!
//! - correct runs: the observed suspicion bound SL_max is finite and
//!   settles once GST passes (Lemma 14's `max(t1 − start, Δ + Δ′)`);
//! - crash runs: the level accrues and detection succeeds (Lemma 13),
//!   with drift only scaling the level's slope, not its divergence.

use afd_bench::experiment::{aggregate, cell, cell_mean, Table};
use afd_bench::{level_trace, SEEDS};
use afd_core::properties::{check_upper_bound, AccruementCheck};
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::spec;
use afd_obs::analyze;
use afd_sim::clock::DriftingClock;
use afd_sim::scenario::Scenario;

fn scenario_with_drift(rate: f64) -> Scenario {
    Scenario {
        monitor_clock: DriftingClock::new(Duration::from_millis(15), rate),
        sender_clock: DriftingClock::new(Duration::from_millis(40), 2.0 - rate),
        ..Scenario::partially_synchronous()
    }
}

fn main() {
    let crash = Timestamp::from_secs(250);
    let mut table = Table::new(
        "E11: simple detector under partial synchrony, drift sweep (GST=120s, 30 seeds)",
        &[
            "monitor clock rate",
            "SL_max pre-GST (s)",
            "SL_max post-GST (s)",
            "accruement",
            "T_D at thr=6s (s)",
            "detected",
        ],
    );

    for rate in [0.98, 0.995, 1.0, 1.005, 1.02] {
        let healthy = scenario_with_drift(rate).with_horizon(Timestamp::from_secs(500));
        let crashed = scenario_with_drift(rate)
            .with_horizon(Timestamp::from_secs(500))
            .with_crash_at(crash);

        let mut pre_gst_max = 0.0f64;
        let mut post_gst_max = 0.0f64;
        for seed in SEEDS {
            let trace = level_trace(&healthy, seed, spec::simple().detector);
            check_upper_bound(&trace, None).expect("bounded");
            for s in trace.iter() {
                if s.at < Timestamp::from_secs(140) {
                    pre_gst_max = pre_gst_max.max(s.level.value());
                } else {
                    post_gst_max = post_gst_max.max(s.level.value());
                }
            }
        }

        let checker = AccruementCheck::STRICT;
        let mut accrue_pass = 0u32;
        let reports: Vec<_> = SEEDS
            .map(|seed| {
                let trace = level_trace(&crashed, seed, spec::simple().detector);
                if checker.run(&trace).is_ok() {
                    accrue_pass += 1;
                }
                analyze(
                    &trace.threshold(SuspicionLevel::new(6.0).expect("valid")),
                    Some(crash),
                )
            })
            .collect();
        let agg = aggregate(&reports);

        table.push_row(vec![
            cell(rate, 3),
            cell(pre_gst_max, 2),
            cell(post_gst_max, 2),
            format!("{accrue_pass}/{}", SEEDS.end),
            cell_mean(&agg.detection_time, 2),
            format!("{:.0}%", agg.detection_coverage * 100.0),
        ]);
    }

    println!("{table}");
    println!(
        "reading: pre-GST chaos inflates the transient bound (Lemma 14's\n\
         t1 − start term); after GST the bound collapses to Δ + Δ′-scale.\n\
         Drift changes the local-time slope of the level but never its\n\
         boundedness or accrual — ◊P_ac holds across the sweep (Thm. 15)."
    );
}
