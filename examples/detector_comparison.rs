//! All four detectors of §5 side by side on the same arrival trace.
//!
//! The run has three phases:
//!
//! 1. healthy heartbeats with jitter,
//! 2. a burst of lost heartbeats (the network, not the process),
//! 3. a real crash.
//!
//! Watch how each representation reacts: the simple detector is raw elapsed
//! time; Chen is elapsed time past the expected arrival; φ explodes during
//! the loss burst (its known weakness, §5.4); κ counts missed heartbeats
//! and stays measured.
//!
//! ```text
//! cargo run --example detector_comparison
//! ```

use accrual_fd::detectors::spec;
use accrual_fd::prelude::*;

fn main() {
    let specs = [
        spec::simple().detector,
        spec::chen().detector,
        spec::phi_normal(),
        spec::kappa_phi(),
    ];
    let mut detectors = specs.map(|spec| spec.build());

    // Phase 1: healthy 1 Hz heartbeats with ±50 ms of deterministic jitter.
    let mut arrivals: Vec<f64> = Vec::new();
    for k in 1..=60 {
        let jitter = if k % 3 == 0 { 0.05 } else { -0.03 };
        arrivals.push(k as f64 + jitter);
    }
    // Phase 2: heartbeats 61–66 are lost; 67–80 arrive normally.
    for k in 67..=80 {
        arrivals.push(k as f64);
    }
    // Phase 3: crash at t = 80 — nothing arrives after.

    let mut next = 0usize;
    println!("  t(s)   simple   chen     phi      kappa    note");
    for tick in 1..=95u64 {
        let now = Timestamp::from_secs(tick);
        while next < arrivals.len() && arrivals[next] <= tick as f64 {
            let at = Timestamp::from_secs_f64(arrivals[next]);
            for detector in &mut detectors {
                detector.record_heartbeat(at);
            }
            next += 1;
        }
        let note = match tick {
            61..=66 => "loss burst",
            67 => "network recovers",
            81.. => "crashed",
            _ => "",
        };
        if tick % 10 == 0 || (60..=68).contains(&tick) || tick >= 80 {
            let [simple, chen, phi, kappa] = detectors
                .each_mut()
                .map(|d| d.suspicion_level(now).value().min(9999.0));
            println!("  {tick:>4}   {simple:<8.2} {chen:<8.2} {phi:<8.2} {kappa:<8.2} {note}");
        }
    }

    println!(
        "\nDuring the loss burst φ climbs into the tens (it extrapolates a\n\
         distribution), while κ counts: ~1 per missed heartbeat. After the\n\
         real crash every level accrues without bound — that is Property 1."
    );
}
