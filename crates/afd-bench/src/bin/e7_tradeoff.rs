//! **E7 — §5.1–5.3: the aggressive ↔ conservative tradeoff curves.**
//!
//! For each detector, sweeping its interpretation threshold traces a curve
//! in the (detection time, mistake rate) plane — the standard accrual-
//! detector evaluation (the φ paper's headline figure). All detectors see
//! the *same* arrival traces per seed, so curve differences are purely the
//! suspicion-level representation:
//!
//! - the simple detector's timeout must absorb worst-case jitter;
//! - Chen's estimator re-centres the timeout on the expected arrival;
//! - φ re-scales it by the observed variability.
//!
//! Expected shape: at equal mistake rate, the adaptive detectors detect
//! faster (their curves sit below/left of the simple one) — most visibly
//! at conservative settings under jitter.

use afd_bench::experiment::{aggregate, cell, cell_sci, Table};
use afd_bench::{level_trace, SEEDS};
use afd_core::binary::Transition;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::spec;
use afd_obs::analyze;
use afd_runtime::replay::replay;
use afd_sim::scenario::{Effect, Scenario};
use afd_sim::{simulate, ReplayConfig};

fn main() {
    let crash = Timestamp::from_secs(300);
    let crash_scenario = Scenario::wan_jitter()
        .with_horizon(Timestamp::from_secs(600))
        .with_crash_at(crash);
    let healthy_scenario = Scenario::wan_jitter().with_horizon(Timestamp::from_secs(600));

    // Threshold grids per detector, spanning aggressive → conservative in
    // each detector's own units (seconds, seconds-late, φ decades, missed
    // heartbeats).
    let grids = [
        (
            spec::simple().detector,
            "timeout s",
            [1.2, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0],
        ),
        (
            spec::chen().detector,
            "alpha s",
            [0.1, 0.3, 0.5, 1.0, 2.0, 3.0, 5.0],
        ),
        (
            spec::bertier().detector,
            "slack s",
            [0.0, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0],
        ),
        (
            spec::phi_normal(),
            "phi",
            [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
        ),
        (
            spec::kappa_phi(),
            "kappa",
            [0.6, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0],
        ),
    ];
    for (spec, unit, thresholds) in grids {
        let mut table = Table::new(
            format!("E7: {} tradeoff curve (WAN jitter, 30 seeds)", spec.name()),
            &[unit, "T_D mean (s)", "lambda_M (/s)", "P_A", "detected"],
        );
        let crash_traces: Vec<_> = SEEDS
            .map(|s| level_trace(&crash_scenario, s, spec))
            .collect();
        let healthy_traces: Vec<_> = SEEDS
            .map(|s| level_trace(&healthy_scenario, s, spec))
            .collect();
        for &thr in &thresholds {
            let threshold = SuspicionLevel::new(thr).expect("valid");
            let crash_reports: Vec<_> = crash_traces
                .iter()
                .map(|levels| analyze(&levels.threshold(threshold), Some(crash)))
                .collect();
            let healthy_reports: Vec<_> = healthy_traces
                .iter()
                .map(|levels| analyze(&levels.threshold(threshold), None))
                .collect();
            let c = aggregate(&crash_reports);
            let h = aggregate(&healthy_reports);
            table.push_row(vec![
                cell(thr, 1),
                c.detection_time.map_or("—".into(), |s| cell(s.mean, 3)),
                cell_sci(h.mistake_rate.map_or(0.0, |s| s.mean)),
                h.query_accuracy.map_or("—".into(), |s| cell(s.mean, 6)),
                format!("{:.0}%", c.detection_coverage * 100.0),
            ]);
        }
        println!("{table}");
    }
    println!(
        "reading: compare rows at equal lambda_M across tables — the adaptive\n\
         detectors (chen, phi, kappa) reach a given mistake rate with a\n\
         smaller detection time than the simple timeout. Under *stationary*\n\
         jitter the gap is modest (a well-tuned timeout is competitive);\n\
         the table below shows where adaptation is decisive.\n"
    );
    nonstationary();
}

/// The nonstationary regime (the φ paper's motivation): send jitter
/// quadruples mid-run. Thresholds are tuned on the quiet phase; the table
/// shows wrong suspicions per phase, each counted in the phase where its
/// S-transition falls.
fn nonstationary() {
    let noisy_from = Timestamp::from_secs(1_000);
    let horizon = Timestamp::from_secs(2_000);
    let scenario = Scenario {
        send_jitter_std: Duration::from_millis(50),
        ..Scenario::ideal()
    }
    .with_horizon(horizon)
    .with_phase(
        noisy_from,
        horizon,
        Effect::SendJitter(Duration::from_millis(200)),
    );
    let traces: Vec<_> = (0..10).map(|seed| simulate(&scenario, seed)).collect();
    // Most wrong suspicions last well under the default 250 ms cadence, so
    // the monitor is read far more often than that.
    let queries = ReplayConfig::every(Duration::from_millis(10));

    let mut table = Table::new(
        "E7b: nonstationary network — jitter sigma 50 ms → 200 ms at 1 000 s (10 seeds)",
        &[
            "detector",
            "threshold (quiet-tuned)",
            "quiet-phase mistakes",
            "noisy-phase mistakes",
        ],
    );
    // Quiet-tuned thresholds with equal quiet-phase detection latency
    // (~1.2 s): simple timeout 1.2 s, chen alpha 0.2 s, bertier slack
    // 0.05 s, phi 3.
    let configs = [
        (spec::simple().detector, 1.2),
        (spec::chen().detector, 0.2),
        (spec::bertier().detector, 0.05),
        (spec::phi_normal(), 3.0),
    ];
    for (spec, thr) in configs {
        let threshold = SuspicionLevel::new(thr).expect("valid");
        let (mut quiet, mut noisy) = (0usize, 0usize);
        for trace in &traces {
            let levels = replay(trace, move |_| spec.build(), queries).levels;
            for (at, transition) in levels.threshold(threshold).transitions() {
                match transition {
                    Transition::Suspect if at < noisy_from => quiet += 1,
                    Transition::Suspect => noisy += 1,
                    Transition::Trust => {}
                }
            }
        }
        let runs = traces.len() as f64;
        table.push_row(vec![
            spec.name().to_string(),
            // The shortest form that reads back as `thr`: 0.05 keeps both digits.
            format!("{thr:?}"),
            format!("{:.1}", quiet as f64 / runs),
            format!("{:.1}", noisy as f64 / runs),
        ]);
    }
    println!("{table}");
    println!(
        "reading: when conditions shift, the fixed timeout false-alarms by\n\
         the hundreds; Chen re-centres but keeps a fixed margin; phi re-\n\
         estimates the variance (over its 1000-sample window, hence the\n\
         transition-period mistakes) and Bertier's Jacobson margin adapts\n\
         within a dozen heartbeats — the reason §5 moves from fixed\n\
         timeouts to estimation."
    );
}
