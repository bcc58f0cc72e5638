//! The architectural payoff (Figs. 1–2 of the paper): ONE monitor, MANY
//! interpretations.
//!
//! Three applications share a single φ monitor per worker but interpret its
//! suspicion level with different thresholds — an aggressive load balancer,
//! a moderate task scheduler, and a conservative membership service. The
//! example shows Theorem 1's containment (higher thresholds suspect less)
//! and the detection-time/accuracy tradeoff of Corollaries 2–3, all from
//! one stream of heartbeats.
//!
//! ```text
//! cargo run --example multi_threshold
//! ```

use accrual_fd::prelude::*;
use accrual_fd::runtime::replay::replay;
use accrual_fd::sim::replay::ReplayConfig;
use accrual_fd::sim::scenario::Scenario;
use accrual_fd::sim::simulate;

fn main() {
    let crash = Timestamp::from_secs(120);
    let scenario = Scenario::wan_jitter()
        .with_horizon(Timestamp::from_secs(200))
        .with_crash_at(crash);
    let arrivals = simulate(&scenario, 7);

    // The shared monitor (Fig. 2: monitoring happens once)…
    let levels = replay(
        &arrivals,
        |_| PhiAccrual::with_defaults(),
        ReplayConfig::every(Duration::from_millis(250)),
    )
    .levels;

    // …and three per-application interpreters with different QoS.
    let apps = [
        ("load-balancer (Φ=1)", 1.0),
        ("scheduler    (Φ=3)", 3.0),
        ("membership   (Φ=8)", 8.0),
    ];

    println!("application           wrong suspicions   detection latency");
    for (name, phi) in apps {
        let threshold = SuspicionLevel::new(phi).expect("valid threshold");
        let mut interpreter = ThresholdInterpreter::new(threshold);
        let mut wrong = 0u32;
        let mut was_suspected = false;
        let mut detected_at: Option<Timestamp> = None;
        for s in levels.iter() {
            let status = interpreter.observe(s.at, s.level);
            if status.is_suspected() && !was_suspected && s.at < crash {
                wrong += 1;
            }
            if status.is_suspected() && s.at >= crash && detected_at.is_none() {
                detected_at = Some(s.at);
            }
            if status.is_trusted() && s.at >= crash {
                detected_at = None; // permanence required
            }
            was_suspected = status.is_suspected();
        }
        let latency = detected_at.map_or_else(
            || "—".to_string(),
            |at| format!("{:.2} s", (at - crash).as_secs_f64()),
        );
        println!("{name:<22} {wrong:^17} {latency:>14}");
    }

    println!(
        "\nTheorem 1 in action: every process the membership service suspects,\n\
         the scheduler suspects; every process the scheduler suspects, the\n\
         load balancer suspects. Lower thresholds detect faster (Cor. 2) at\n\
         the price of more wrong suspicions (Cor. 3)."
    );
}
