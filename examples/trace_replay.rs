//! Capture once, evaluate every detector offline — the recorded-trace
//! workflow the φ paper's evaluation used (theirs was a week-long WAN
//! capture; here we record a simulated run, but the CSV could equally
//! come from production).
//!
//! The example writes a trace to CSV, reads it back, and scores all four
//! detectors on the *identical* arrival process — the only fair way to
//! compare failure detectors.
//!
//! ```text
//! cargo run --example trace_replay
//! ```

use accrual_fd::detectors::kappa::PhiContribution;
use accrual_fd::detectors::spec::AnyDetector;
use accrual_fd::prelude::*;
use accrual_fd::qos::metrics::analyze_at_threshold;
use accrual_fd::runtime::replay::replay;
use accrual_fd::sim::replay::ReplayConfig;
use accrual_fd::sim::scenario::Scenario;
use accrual_fd::sim::{read_csv, simulate, write_csv};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. "Record" a run: 10 minutes of bursty WAN, crash at t = 400 s.
    let crash = Timestamp::from_secs(400);
    let scenario = Scenario::bursty_loss()
        .with_horizon(Timestamp::from_secs(600))
        .with_crash_at(crash);
    let recorded = simulate(&scenario, 2025);

    // 2. Export to CSV (in production: append rows as heartbeats arrive).
    let mut csv = Vec::new();
    write_csv(&recorded, &mut csv)?;
    println!(
        "captured {} heartbeats ({} delivered) into {} bytes of CSV\n",
        recorded.sent_count(),
        recorded.delivered_count(),
        csv.len()
    );

    // 3. Re-import and replay through each detector with a threshold in
    //    its own units, roughly matched for clean-network detection time.
    let trace = read_csv(csv.as_slice())?;
    let kappa = KappaAccrual::new(KappaConfig::default(), PhiContribution)?;
    let candidates = [
        (
            "simple",
            AnyDetector::Simple(SimpleAccrual::new(Timestamp::ZERO)),
            3.5,
        ),
        ("chen", AnyDetector::Chen(ChenAccrual::with_defaults()), 2.5),
        ("phi", AnyDetector::Phi(PhiAccrual::with_defaults()), 8.0),
        ("kappa", AnyDetector::KappaPhi(kappa), 3.0),
    ];

    println!("detector  threshold  detection (s)  wrong suspicions  P_A");
    for (name, detector, thr) in candidates {
        let levels = replay(
            &trace,
            move |_| detector.clone(),
            ReplayConfig::every(Duration::from_millis(250)),
        )
        .levels;
        let report = analyze_at_threshold(&levels, SuspicionLevel::new(thr)?, Some(crash));
        println!(
            "{name:<9} {thr:>8.1}  {:>12}  {:>16}  {:.5}",
            report
                .detection_time
                .map_or("—".into(), |d| format!("{d:.2}")),
            report.mistakes,
            report.query_accuracy,
        );
    }

    println!(
        "\nSame bytes, four detectors: any capture — simulated or from a\n\
         real deployment — becomes a benchmark for every detector in the\n\
         library (afd_sim::trace_io), replayed through the monitor that ships."
    );
    Ok(())
}
