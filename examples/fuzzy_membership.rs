//! Fuzzy group membership and slowness ordering (§6 of the paper) on top
//! of one accrual monitor, read through a lock-free snapshot reader.
//!
//! Friedman's fuzzy membership classifies each member as trusted / fuzzy /
//! suspected using two thresholds over a numeric level; Sampaio et al.'s
//! slowness oracle orders processes by responsiveness. The paper points
//! out that accrual detectors supply the missing substrate for both —
//! this example builds each in a few lines over the same φ monitors.
//!
//! ```text
//! cargo run --example fuzzy_membership
//! ```

use accrual_fd::core::transform::{FuzzyInterpreter, FuzzyStatus};
use accrual_fd::detectors::kappa::PhiContribution;
use accrual_fd::detectors::slowness::SlownessOracle;
use accrual_fd::prelude::*;
use accrual_fd::runtime::{ChannelTransport, DeltaEncoder, Heartbeat, VirtualClock, MAX_V2_FRAME};
use accrual_fd::sim::scenario::Scenario;
use accrual_fd::sim::simulate;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Five cluster members over WAN links; member 2 crashes at t = 45 s,
    // member 4's link is lossy-bursty (flaky but alive).
    let horizon = Timestamp::from_secs(90);
    let scenarios = [
        Scenario::wan_jitter().with_horizon(horizon),
        Scenario::wan_jitter().with_horizon(horizon),
        Scenario::wan_jitter()
            .with_horizon(horizon)
            .with_crash_at(Timestamp::from_secs(45)),
        Scenario::wan_jitter().with_horizon(horizon),
        Scenario::bursty_loss().with_horizon(horizon),
    ];
    let traces: Vec<_> = scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| simulate(s, 500 + i as u64))
        .collect();

    // κ monitors: member 4's link drops heartbeats in bursts, and κ is
    // the detector designed to count losses instead of panicking about
    // them (§5.4). Thresholds are in missed-heartbeat units: fuzzy past
    // ~1.5 missed, down past ~8.
    let clock = VirtualClock::new();
    let (mut wire, intake) = ChannelTransport::pair();
    let config = ShardConfig {
        shards: 1,
        slots_per_shard: traces.len(),
    };
    let mut monitor = ShardedMonitor::new(intake, clock.clone(), config, |_| {
        KappaAccrual::new(KappaConfig::default(), PhiContribution).expect("valid config")
    });
    // The membership and slowness layers below see the monitor only
    // through this reader.
    let view = monitor.reader();
    let mut membership: Vec<FuzzyInterpreter> = Vec::new();
    for i in 0..traces.len() as u32 {
        monitor.watch(ProcessId::new(i))?;
        membership.push(FuzzyInterpreter::new(
            SuspicionLevel::new(1.5)?,
            SuspicionLevel::new(8.0)?,
        )?);
    }
    let mut slowness = SlownessOracle::new(0.3)?;

    // Each member encodes its heartbeats as wire-v2 frames in send order
    // (lost ones included); the monitor receives the delivered ones in
    // arrival order.
    let mut schedule = Vec::new();
    for (id, trace) in (0u32..).zip(&traces) {
        let sender = ProcessId::new(id);
        let interval = std::time::Duration::from_nanos(trace.interval().as_nanos());
        let mut encoder = DeltaEncoder::new(sender, id, interval, 8);
        for record in trace.records() {
            let hb = Heartbeat {
                sender,
                seq: record.seq,
                sent_at: record.sent_at,
            };
            let mut buf = [0u8; MAX_V2_FRAME];
            let len = encoder.encode(&hb, &mut buf);
            if let Some(arrival) = record.delivered_local {
                schedule.push((arrival, buf[..len].to_vec()));
            }
        }
    }
    schedule.sort_by_key(|&(arrival, _)| arrival);

    let mut due = schedule.iter().peekable();
    println!("  t(s)  membership view                         slowness order (fastest first)");
    for tick in 1..=90u64 {
        let now = Timestamp::from_secs(tick);
        while let Some((arrival, frame)) = due.next_if(|(arrival, _)| *arrival <= now) {
            clock.set(*arrival);
            wire.send(frame)?;
            monitor.tick()?;
        }
        clock.set(now);
        monitor.tick()?;
        let snapshot = view.snapshot();
        slowness.observe_snapshot(now, &snapshot);

        if tick % 15 == 0 || tick == 47 || tick == 50 {
            let states: Vec<String> = snapshot
                .iter()
                .map(|&(p, level)| {
                    let s = membership[p.index()].classify(now, level);
                    let tag = match s {
                        FuzzyStatus::Trusted => "ok",
                        FuzzyStatus::Fuzzy => "FUZZY",
                        FuzzyStatus::Suspected => "DOWN",
                    };
                    format!("{p}:{tag}")
                })
                .collect();
            let order: Vec<String> = slowness
                .order()
                .iter()
                .map(|(p, s)| format!("{p}({s:.1})"))
                .collect();
            println!("  {tick:>4}  {:<40} {}", states.join(" "), order.join(" "));
        } else {
            for (p, level) in &snapshot {
                membership[p.index()].classify(now, *level);
            }
        }
    }

    println!(
        "\nThe crashed member walks trusted → fuzzy → suspected as κ accrues\n\
         one unit per missed heartbeat; the flaky member dips into 'fuzzy'\n\
         during loss bursts but recovers — the intermediate state Friedman's\n\
         proposal wanted, for free from the accrual level. The slowness\n\
         order demotes members only while they are actually slow."
    );
    Ok(())
}
