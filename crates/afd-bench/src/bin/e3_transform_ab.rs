//! **E3 — Algorithm 1 (§4.1): accrual → binary, empirically ◊P.**
//!
//! Algorithm 1 runs over φ on simulated networks:
//!
//! - crash runs: permanent suspicion is always reached (Strong
//!   Completeness); the table reports how long after the crash the last
//!   T-transition happened;
//! - correct runs: S-transitions die out — the table splits each run into
//!   thirds and shows the wrong-suspicion count collapsing (Eventual
//!   Strong Accuracy), along with the final self-adapted threshold
//!   `SL_susp`.

use afd_bench::{level_trace, SEEDS};
use afd_core::binary::Status;
use afd_core::time::Timestamp;
use afd_core::transform::{AccrualToBinary, Interpreter};
use afd_detectors::spec;
use afd_qos::experiment::{cell, Table};
use afd_sim::scenario::Scenario;

fn main() {
    let crash = Timestamp::from_secs(200);
    let crash_scenario = Scenario::wan_jitter()
        .with_horizon(Timestamp::from_secs(500))
        .with_crash_at(crash);
    let healthy = Scenario::wan_jitter().with_horizon(Timestamp::from_secs(900));
    let epsilon = 0.1;

    // --- Completeness ------------------------------------------------------
    let mut detected = 0u32;
    let mut latencies = Vec::new();
    for seed in SEEDS {
        let levels = level_trace(&crash_scenario, seed, spec::phi_normal());
        let mut alg = AccrualToBinary::new(epsilon);
        let statuses: Vec<(Timestamp, Status)> = levels
            .iter()
            .map(|s| (s.at, alg.observe(s.at, s.level)))
            .collect();
        // Last T-transition = start of permanent suspicion.
        let last_trusted = statuses.iter().rposition(|(_, s)| s.is_trusted());
        match last_trusted {
            Some(i) if i < statuses.len() - 1 => {
                detected += 1;
                latencies.push(
                    statuses[i + 1]
                        .0
                        .saturating_duration_since(crash)
                        .as_secs_f64(),
                );
            }
            _ => {}
        }
    }
    let mut t1 = Table::new(
        "E3a: Algorithm 1 completeness on crash runs (30 seeds, crash at t=200s)",
        &[
            "permanently suspected",
            "mean latency (s)",
            "max latency (s)",
        ],
    );
    let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let max = latencies.iter().cloned().fold(0.0, f64::max);
    t1.push_row(vec![
        format!("{detected}/{}", SEEDS.end),
        cell(mean, 2),
        cell(max, 2),
    ]);
    println!("{t1}");

    // --- Accuracy ----------------------------------------------------------
    let mut t2 = Table::new(
        "E3b: Algorithm 1 accuracy on correct runs (S-transitions per run third)",
        &[
            "seed",
            "1st third",
            "2nd third",
            "3rd third",
            "final SL_susp",
            "ends trusted",
        ],
    );
    for seed in SEEDS.take(10) {
        let levels = level_trace(&healthy, seed, spec::phi_normal());
        let mut alg = AccrualToBinary::new(epsilon);
        let statuses: Vec<Status> = levels.iter().map(|s| alg.observe(s.at, s.level)).collect();
        let n = statuses.len();
        let count_s = |range: std::ops::Range<usize>| {
            let mut prev = if range.start == 0 {
                Status::Trusted
            } else {
                statuses[range.start - 1]
            };
            let mut c = 0;
            for &s in &statuses[range] {
                if s.is_suspected() && prev.is_trusted() {
                    c += 1;
                }
                prev = s;
            }
            c
        };
        t2.push_row(vec![
            seed.to_string(),
            count_s(0..n / 3).to_string(),
            count_s(n / 3..2 * n / 3).to_string(),
            count_s(2 * n / 3..n).to_string(),
            cell(
                alg.suspicion_threshold()
                    .map_or(0.0, afd_core::SuspicionLevel::value),
                2,
            ),
            format!("{}", statuses[n - 1].is_trusted()),
        ]);
    }
    println!("{t2}");
    println!(
        "reading: every crash is eventually suspected permanently; on correct\n\
         runs the self-raising thresholds push wrong suspicions toward zero\n\
         (Lemmas 7-8, Theorem 9)."
    );
}
