//! **E16 — the detector zoo raced head-to-head.**
//!
//! All six detectors — simple, Chen, Bertier, φ, Akka φ, adaptive — race
//! over the same virtual-time chaos scenarios via [`run_chaos`]: each
//! scenario is simulated once per seed by afd-sim and the one trace is
//! replayed through the shipping monitor for every member, so every
//! member sees the identical heartbeat stream and fault schedule, and QoS
//! differences are attributable to the detector math alone. Scenarios, on
//! afd-sim's `Scenario::ideal()` link (1 s heartbeats, no delay):
//!
//! | scenario      | faults                                                   |
//! |---------------|----------------------------------------------------------|
//! | `calm`        | none — baseline                                          |
//! | `jitter`      | `DelayKind::Uniform` 0–600 ms delivery delay             |
//! | `burst_loss`  | Gilbert–Elliott bursts (start 0.08, mean length 5)       |
//! | `clock_drift` | `sender_clock` at 0.8× true rate (heartbeats every 1.25 s)|
//! | `flapping`    | 2 s link `partitions` every 10 s                         |
//!
//! Every scenario ends in a permanent crash, so the full Chen et al. QoS
//! vector (T_D, T_MR, T_M, λ_M, P_A, T_G) is defined for every cell; rows
//! are means over seeds. The run is in virtual time, so the tables are a
//! pure function of the code and the seeds.
//!
//! `--smoke` shrinks horizons and seed counts so CI runs end-to-end in
//! seconds.

use afd_bench::experiment::{cell, Table};
use afd_core::time::{Duration, Timestamp};
use afd_obs::qos::QosReport;
use afd_runtime::{run_chaos, Clock, SystemClock};
use afd_sim::clock::DriftingClock;
use afd_sim::delay::UniformDelay;
use afd_sim::loss::GilbertElliottLoss;
use afd_sim::scenario::{DelayKind, LossKind, Scenario};

struct Sizes {
    horizon: Timestamp,
    crash_at: Timestamp,
    seeds: &'static [u64],
}

fn wall(clock: &SystemClock, since: Timestamp) -> f64 {
    clock.now().saturating_duration_since(since).as_secs_f64()
}

/// The five fault scenarios, each ending in the same permanent crash.
fn scenarios(sizes: &Sizes) -> Vec<(&'static str, Scenario)> {
    let calm = Scenario::ideal()
        .with_horizon(sizes.horizon)
        .with_crash_at(sizes.crash_at);
    let jitter = Scenario {
        delay: DelayKind::Uniform(UniformDelay::new(
            Duration::ZERO,
            Duration::from_millis(600),
        )),
        ..calm.clone()
    };
    let burst = Scenario {
        loss: LossKind::GilbertElliott(GilbertElliottLoss::bursts(0.08, 5.0)),
        ..calm.clone()
    };
    let drift = Scenario {
        sender_clock: DriftingClock::new(Duration::ZERO, 0.8),
        ..calm.clone()
    };
    let crash_secs = sizes.crash_at.as_secs_f64() as u64;
    let flapping = Scenario {
        partitions: (10..crash_secs)
            .step_by(10)
            .map(|s| (Timestamp::from_secs(s), Timestamp::from_secs(s + 2)))
            .collect(),
        ..calm.clone()
    };
    vec![
        ("calm", calm),
        ("jitter", jitter),
        ("burst_loss", burst),
        ("clock_drift", drift),
        ("flapping", flapping),
    ]
}

/// Mean over the seed runs, ignoring absent values; `None` if every run
/// left the metric undefined.
fn mean_opt(vals: &[Option<f64>]) -> Option<f64> {
    let present: Vec<f64> = vals.iter().flatten().copied().collect();
    if present.is_empty() {
        None
    } else {
        Some(present.iter().sum::<f64>() / present.len() as f64)
    }
}

fn mean(vals: &[f64]) -> f64 {
    vals.iter().sum::<f64>() / vals.len().max(1) as f64
}

fn opt_cell(v: Option<f64>, digits: usize) -> String {
    v.map_or_else(|| "—".to_string(), |v| cell(v, digits))
}

/// Mean QoS per detector over the seeds of one scenario.
struct RaceRow {
    name: &'static str,
    threshold: f64,
    qos: Vec<QosReport>,
}

/// Races the zoo through one scenario across all seeds.
fn race(scenario: &Scenario, seeds: &[u64]) -> Vec<RaceRow> {
    let mut rows: Vec<RaceRow> = Vec::new();
    for &seed in seeds {
        let report = run_chaos(scenario, seed);
        for (i, d) in report.detectors.into_iter().enumerate() {
            if rows.len() <= i {
                rows.push(RaceRow {
                    name: d.name,
                    threshold: d.threshold.value(),
                    qos: Vec::new(),
                });
            }
            assert_eq!(rows[i].name, d.name, "zoo order is fixed");
            rows[i].qos.push(d.qos);
        }
    }
    rows
}

/// Races every scenario and prints one table per scenario.
fn race_all(sizes: &Sizes) {
    for (name, scenario) in scenarios(sizes) {
        let rows = race(&scenario, sizes.seeds);
        assert_eq!(rows.len(), 6, "all six detectors raced");
        let mut table = Table::new(
            format!(
                "E16: {name} — crash at {:.0} s, horizon {:.0} s, {} seed(s)",
                sizes.crash_at.as_secs_f64(),
                scenario.horizon.as_secs_f64(),
                sizes.seeds.len()
            ),
            &[
                "detector",
                "thr",
                "T_D (s)",
                "mistakes",
                "T_MR (s)",
                "T_M (s)",
                "λ_M (/s)",
                "P_A",
                "T_G (s)",
            ],
        );
        for row in &rows {
            let td = mean_opt(&row.qos.iter().map(|q| q.detection_time).collect::<Vec<_>>());
            let tmr = mean_opt(
                &row.qos
                    .iter()
                    .map(|q| q.mistake_recurrence)
                    .collect::<Vec<_>>(),
            );
            let tm = mean_opt(
                &row.qos
                    .iter()
                    .map(|q| q.mistake_duration)
                    .collect::<Vec<_>>(),
            );
            let tg = mean_opt(&row.qos.iter().map(|q| q.good_period).collect::<Vec<_>>());
            let mistakes = mean(
                &row.qos
                    .iter()
                    .map(|q| q.mistakes as f64)
                    .collect::<Vec<_>>(),
            );
            let rate = mean(&row.qos.iter().map(|q| q.mistake_rate).collect::<Vec<_>>());
            let pa = mean(&row.qos.iter().map(|q| q.query_accuracy).collect::<Vec<_>>());
            // The crash is permanent and the tail is tens of seconds of
            // silence: every detector must detect it, in every run.
            assert!(
                row.qos.iter().all(|q| q.detection_time.is_some()),
                "{name}/{}: crash went undetected in some seed",
                row.name
            );
            table.push_row(vec![
                row.name.to_string(),
                cell(row.threshold, 1),
                opt_cell(td, 2),
                cell(mistakes, 1),
                opt_cell(tmr, 1),
                opt_cell(tm, 2),
                cell(rate, 4),
                cell(pa, 4),
                opt_cell(tg, 1),
            ]);
        }
        println!("{table}");
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes = if smoke {
        Sizes {
            horizon: Timestamp::from_secs(60),
            crash_at: Timestamp::from_secs(40),
            seeds: &[1],
        }
    } else {
        Sizes {
            horizon: Timestamp::from_secs(120),
            crash_at: Timestamp::from_secs(90),
            seeds: &[1, 2, 3],
        }
    };
    let wall_clock = SystemClock::new();
    let total = wall_clock.now();

    race_all(&sizes);

    println!(
        "e16 total: {:.2} s{}",
        wall(&wall_clock, total),
        if smoke { " (smoke)" } else { "" }
    );
}
