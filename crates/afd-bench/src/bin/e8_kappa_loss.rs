//! **E8 — §5.4: the κ framework under bursty message loss.**
//!
//! Two parts:
//!
//! 1. A suspicion-level *trace* while an 8 s partition cuts an ideal 1 s
//!    link, replayed through the shipping monitor, for φ vs κ (with both
//!    contribution functions): φ leaps superlinearly, κ counts missed
//!    heartbeats.
//! 2. QoS sweeps under Gilbert–Elliott loss at increasing burst rates:
//!    at matched detection times, κ's mistake rate degrades far more
//!    slowly than φ's — the experimental claim of §5.4 (and of the κ-FD
//!    report it cites).

use afd_bench::experiment::{aggregate, cell, cell_sci, Table};
use afd_bench::{level_trace, SEEDS};
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::spec;
use afd_obs::analyze;
use afd_runtime::replay::replay;
use afd_sim::loss::GilbertElliottLoss;
use afd_sim::scenario::{LossKind, Scenario};
use afd_sim::{simulate, ReplayConfig};

fn burst_trace() {
    // An ideal 1 s link whose heartbeats 61–68 are cut, read half a second
    // after each heartbeat is due.
    let (cut_from, cut_to) = (Timestamp::from_secs(61), Timestamp::from_secs(69));
    let scenario = Scenario::ideal()
        .with_partition(cut_from, cut_to)
        .with_horizon(Timestamp::from_secs(70));
    let trace = simulate(&scenario, 0);
    let queries =
        ReplayConfig::every(Duration::from_secs(1)).starting_at(Timestamp::from_millis(500));
    let [phi, kappa_phi, kappa_step] = [spec::phi_normal(), spec::kappa_phi(), spec::kappa_step()]
        .map(|spec| replay(&trace, move |_| spec.build(), queries).levels);

    let mut table = Table::new(
        "E8a: suspicion level during an 8-heartbeat loss burst",
        &[
            "missed so far",
            "phi",
            "kappa (phi contrib)",
            "kappa (step contrib)",
        ],
    );
    let samples = phi.iter().zip(kappa_phi.iter()).zip(kappa_step.iter());
    let burst = samples.filter(|((phi, _), _)| cut_from < phi.at && phi.at < cut_to);
    for (missed, ((phi, kappa_phi), kappa_step)) in (1u32..).zip(burst) {
        table.push_row(vec![
            missed.to_string(),
            cell(phi.level.value(), 1),
            cell(kappa_phi.level.value(), 2),
            cell(kappa_step.level.value(), 2),
        ]);
    }
    println!("{table}");
}

fn qos_sweep() {
    let crash = Timestamp::from_secs(300);
    // Thresholds matched for roughly equal detection time on a clean
    // network: κ = 3 missed heartbeats ≈ φ after ~3 s of silence (clean
    // σ), ≈ simple timeout 3 s.
    let configs = [
        (spec::phi_normal(), 8.0),
        (spec::phi_normal(), 2.0),
        (spec::kappa_phi(), 3.0),
        (spec::kappa_step(), 2.5),
        (spec::simple().detector, 3.5),
    ];

    for burst_start in [0.0, 0.005, 0.02, 0.05] {
        // lint:allow(no-float-eq, literal 0.0 from the loop array above; exact sentinel for the lossless case)
        let loss = if burst_start == 0.0 {
            LossKind::None(afd_sim::loss::NoLoss)
        } else {
            LossKind::GilbertElliott(GilbertElliottLoss::bursts(burst_start, 5.0))
        };
        let crash_scenario = Scenario {
            loss,
            ..Scenario::wan_jitter()
        }
        .with_horizon(Timestamp::from_secs(600))
        .with_crash_at(crash);
        let healthy_scenario = Scenario {
            loss,
            ..Scenario::wan_jitter()
        }
        .with_horizon(Timestamp::from_secs(600));

        let mut table = Table::new(
            format!("E8b: burst-loss sweep, burst start prob = {burst_start} (mean burst 5 heartbeats, 30 seeds)"),
            &["detector", "threshold", "T_D mean (s)", "lambda_M (/s)", "mistakes/run", "P_A"],
        );
        for (spec, thr) in configs {
            let threshold = SuspicionLevel::new(thr).expect("valid");
            let crash_reports: Vec<_> = SEEDS
                .map(|s| {
                    analyze(
                        &level_trace(&crash_scenario, s, spec).threshold(threshold),
                        Some(crash),
                    )
                })
                .collect();
            let healthy_reports: Vec<_> = SEEDS
                .map(|s| {
                    analyze(
                        &level_trace(&healthy_scenario, s, spec).threshold(threshold),
                        None,
                    )
                })
                .collect();
            let c = aggregate(&crash_reports);
            let h = aggregate(&healthy_reports);
            table.push_row(vec![
                spec.name().to_string(),
                cell(thr, 1),
                c.detection_time.map_or("—".into(), |s| cell(s.mean, 2)),
                cell_sci(h.mistake_rate.map_or(0.0, |s| s.mean)),
                cell(h.mean_mistakes, 1),
                h.query_accuracy.map_or("—".into(), |s| cell(s.mean, 6)),
            ]);
        }
        println!("{table}");
    }
}

fn main() {
    burst_trace();
    qos_sweep();
    println!(
        "reading: (a) during a burst, phi grows superlinearly while kappa\n\
         approaches a count of missed heartbeats; (b) as bursts become more\n\
         frequent, phi's mistake rate explodes at a threshold that detects\n\
         in ~3 s, while kappa keeps a far lower mistake rate at similar\n\
         detection times — gradual aggressive-to-conservative behaviour,\n\
         the design claim of §5.4."
    );
}
