//! **E10 — §1.3: the Bag-of-Tasks usage patterns.**
//!
//! Master/worker grid computation with crashing workers and bursty
//! heartbeat loss, each worker's link an afd-sim scenario replayed through
//! the shipping monitor. Binary baselines at several timeouts against the
//! accrual policy (κ monitor, suspicion-ranked dispatch, cost-aware
//! aborts). Regenerates the makespan / wasted-CPU table showing the binary
//! dilemma and the accrual escape from it, and fails unless the accrual
//! policy beats every timeout of 16 s or less on both makespan and
//! wrong-abort CPU.

use afd_bench::bot::{
    run_bot, AccrualPolicy, BinaryTimeoutPolicy, BotConfig, BotOutcome, BotWorld, MasterPolicy,
};
use afd_bench::experiment::{cell, Table};
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;
use afd_detectors::kappa::{KappaAccrual, KappaConfig, PhiContribution};
use afd_detectors::simple::SimpleAccrual;
use afd_sim::loss::GilbertElliottLoss;
use afd_sim::scenario::{LossKind, Scenario};

/// The binary timeouts, seconds; the accrual policy must beat each one up
/// to `ASSERTED_UP_TO` on makespan and wrong-abort CPU.
const TIMEOUTS: [f64; 4] = [3.0, 10.0, 16.0, 25.0];
const ASSERTED_UP_TO: f64 = 16.0;
/// The accrual policy's row: after the timeouts.
const ACCRUAL: usize = TIMEOUTS.len();

fn level(v: f64) -> SuspicionLevel {
    SuspicionLevel::new(v).expect("valid")
}

fn main() {
    let config = BotConfig {
        tasks: 40,
        mean_task_secs: 120.0,
        crash_fraction: 0.3,
        crash_window_secs: (20.0, 300.0),
        link: Scenario {
            loss: LossKind::GilbertElliott(GilbertElliottLoss::bursts(0.02, 8.0)),
            ..BotConfig::default().link
        },
        ..BotConfig::default()
    };
    let binary = TIMEOUTS.map(|t| BinaryTimeoutPolicy::new(level(t)));
    let binary: Vec<&dyn MasterPolicy> = binary.iter().map(|p| p as _).collect();
    let accrual = AccrualPolicy::new(level(1.5), level(2.5), 8.0);
    let simple = |_| SimpleAccrual::new(Timestamp::ZERO);
    let kappa = |_| KappaAccrual::new(KappaConfig::default(), PhiContribution).expect("valid");
    // Per seed, one outcome per row: the timeouts, then accrual and its
    // ablation. Each detector kind's replays serve all of its rows.
    let runs: Vec<Vec<BotOutcome>> = (0..20)
        .map(|seed| {
            let world = BotWorld::draw(&config, seed);
            let mut outs = run_bot(&config, &world, simple, &binary);
            outs.extend(run_bot(
                &config,
                &world,
                kappa,
                &[&accrual, &accrual.without_ranking()],
            ));
            outs
        })
        .collect();
    let mean = |row: usize, metric: fn(&BotOutcome) -> f64| {
        runs.iter().map(|outs| metric(&outs[row])).sum::<f64>() / runs.len() as f64
    };
    let seeds_where =
        |pred: &dyn Fn(&[BotOutcome]) -> bool| runs.iter().filter(|o| pred(o)).count();

    let first = format!("seeds where accrual finished first (of {})", runs.len());
    let mut table = Table::new(
        "E10: Bag-of-Tasks, 32 workers (30% crash), 40 x ~120 s tasks, bursty loss (20 seeds)",
        &[
            "policy",
            "makespan (s)",
            "wasted CPU: wrong aborts (s)",
            "wasted CPU: crashes (s)",
            "wrong aborts/run",
            "completed",
            &first,
        ],
    );
    let labels = TIMEOUTS
        .iter()
        .map(|t| format!("binary timeout {t} s"))
        .chain([
            "accrual (kappa, ranked + cost-aware)".to_string(),
            "accrual ablation (no ranking)".to_string(),
        ]);
    for (row, label) in labels.enumerate() {
        let finished = seeds_where(&|outs| outs[row].completed);
        let accrual_first = seeds_where(&|o| o[ACCRUAL].makespan_secs < o[row].makespan_secs);
        table.push_row(vec![
            label,
            cell(mean(row, |o| o.makespan_secs), 1),
            cell(mean(row, |o| o.wasted_cpu_wrong_aborts), 1),
            cell(mean(row, |o| o.wasted_cpu_crashes), 1),
            cell(mean(row, |o| o.wrong_aborts as f64), 1),
            format!("{finished}/{}", runs.len()),
            match row {
                ACCRUAL => "-".to_string(),
                _ => accrual_first.to_string(),
            },
        ]);
    }

    println!("{table}");
    println!(
        "reading: each binary timeout picks one point on the dilemma — short\n\
         timeouts abort live work on every loss burst, long ones react to\n\
         crashes slowly. The accrual policy ranks workers by suspicion for\n\
         dispatch and raises its abort bar with the CPU at stake: its mean\n\
         makespan and wrong-abort CPU are below those of every timeout of\n\
         {ASSERTED_UP_TO} s or less (asserted). The 25 s timeout wastes less on wrong\n\
         aborts; against it the makespan lead holds on most seeds but not\n\
         all, so the last column counts them instead. Without ranking, new\n\
         work also goes to workers whose heartbeats have gone quiet, and\n\
         most of the lead is lost (§1.3)."
    );

    for (row, timeout) in TIMEOUTS.iter().enumerate() {
        for (what, metric) in [
            ("makespan", (|o| o.makespan_secs) as fn(&BotOutcome) -> f64),
            ("wrong-abort CPU", |o| o.wasted_cpu_wrong_aborts),
        ] {
            let (ours, theirs) = (mean(ACCRUAL, metric), mean(row, metric));
            assert!(
                *timeout > ASSERTED_UP_TO || ours < theirs,
                "accrual {what} {ours:.1} s is not below the {timeout} s timeout's {theirs:.1} s"
            );
        }
    }
}
