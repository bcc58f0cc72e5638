//! Quickstart: monitor one process with the φ accrual detector over a
//! simulated WAN, watch the suspicion level accrue after a crash, and act
//! on it with a threshold of your choosing.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use accrual_fd::prelude::*;
use accrual_fd::runtime::replay::replay;
use accrual_fd::sim::replay::ReplayConfig;
use accrual_fd::sim::scenario::Scenario;
use accrual_fd::sim::simulate;

fn main() {
    // A jittery WAN: 1 s heartbeats, ~100 ms delay with 40 ms jitter, 1%
    // loss. The monitored process crashes at t = 60 s.
    let crash = Timestamp::from_secs(60);
    let scenario = Scenario::wan_jitter()
        .with_horizon(Timestamp::from_secs(90))
        .with_crash_at(crash);
    let arrivals = simulate(&scenario, 42);
    println!(
        "simulated {} heartbeats ({} delivered, {:.1}% lost), crash at {}",
        arrivals.sent_count(),
        arrivals.delivered_count(),
        arrivals.loss_rate() * 100.0,
        crash,
    );

    // Feed them through a φ monitor and sample the suspicion level once a
    // second.
    let trace = replay(
        &arrivals,
        |_| PhiAccrual::with_defaults(),
        ReplayConfig::every(Duration::from_secs(1)),
    )
    .levels;

    println!("\n   t(s)   φ        verdict at Φ = 3");
    let threshold = SuspicionLevel::new(3.0).expect("valid threshold");
    let mut interpreter = ThresholdInterpreter::new(threshold);
    let mut detected_at = None;
    for sample in trace.iter() {
        let status = interpreter.observe(sample.at, sample.level);
        if status.is_suspected() && detected_at.is_none() && sample.at >= crash {
            detected_at = Some(sample.at);
        }
        let secs = sample.at.as_secs_f64() as u64;
        if secs.is_multiple_of(5) || (55..70).contains(&secs) {
            println!(
                "  {:>5}   {:<8.3} {}",
                secs,
                sample.level.value().min(999.0),
                status
            );
        }
    }

    match detected_at {
        Some(at) => println!(
            "\ncrash detected {:.1} s after it happened",
            (at - crash).as_secs_f64()
        ),
        None => println!("\ncrash not detected within the horizon"),
    }
}
