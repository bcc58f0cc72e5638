//! Live chaos: a real two-thread heartbeat session through the fault
//! injector, printing the suspicion timeline as the network partitions,
//! heals, and the monitored process crashes and recovers.
//!
//! A sender thread beats every 100 ms through one side of an in-process
//! transport; the main thread ticks a single-shard [`ShardedMonitor`] on
//! the other side, behind a [`FaultInjector`] scripted with a partition
//! and light burst loss. The φ detector sits inside a [`GracefulDegradation`] wrapper, so
//! when the partition starves its sampling window the timeline shows the
//! fallback engage (marked `degraded`) instead of the estimate going stale.
//!
//! Alongside the timeline, the run feeds an [`accrual_fd::obs`] pipeline:
//! S-/T-transitions and degradation switches land in an [`EventRing`], and
//! the final state of every component is mirrored into a [`Registry`] whose
//! snapshot is printed — the same scrape a monitoring agent would take.
//!
//! ```text
//! cargo run --example live_chaos
//! ```
//! (runs for about six and a half seconds of wall time)

use accrual_fd::core::binary::TransitionDetector;
use accrual_fd::obs::{EventKind, EventRing, ObsEvent, Registry};
use accrual_fd::prelude::*;
use accrual_fd::runtime::{
    spawn_sender, DegradeConfig, FaultInjector, FaultPlan, GracefulDegradation, SenderConfig,
    ShardConfig, ShardedMonitor, SystemClock,
};
use accrual_fd::runtime::{ChannelTransport, Clock};
use accrual_fd::sim::loss::GilbertElliottLoss;

fn main() {
    let clock = SystemClock::new(); // Copy: both threads share the epoch.
    let process = ProcessId::new(1);
    let interval = Duration::from_millis(100);

    // The script: a 1.5 s partition that heals, plus mild burst loss the
    // whole way through. The crash/recover cycle is driven live below.
    let partition = (Timestamp::from_millis(1500), Timestamp::from_millis(3000));
    let plan = FaultPlan::new()
        .with_loss(GilbertElliottLoss::bursts(0.05, 3.0))
        .with_partition(partition.0, partition.1);

    let (sender_side, monitor_side) = ChannelTransport::pair();
    let mut monitor = ShardedMonitor::new(
        FaultInjector::new(monitor_side, clock, plan, 42),
        clock,
        ShardConfig {
            shards: 1,
            slots_per_shard: 1,
        },
        move |_| {
            GracefulDegradation::new(
                PhiAccrual::with_defaults(),
                DegradeConfig::for_interval(interval, 3),
            )
        },
    );
    monitor.watch(process).expect("one slot, one process");
    let sender = spawn_sender(sender_side, clock, SenderConfig::new(process, interval), 42);

    let crash_at = Timestamp::from_millis(4000);
    let recover_at = Timestamp::from_millis(5250);
    let end_at = Timestamp::from_millis(6500);

    // Observability: transitions and degradation flips feed an event ring,
    // scraped along with the metric registry after the run.
    let threshold = SuspicionLevel::new(2.0).expect("finite");
    let mut transitions = TransitionDetector::new();
    let mut was_degraded = false;
    let mut events = EventRing::new(256);

    println!("   t(s)   φ        state");
    let mut crashed = false;
    let mut recovered = false;
    let mut next_print = Timestamp::ZERO;
    loop {
        let now = clock.now();
        if now >= end_at {
            break;
        }
        if !crashed && now >= crash_at {
            sender.crash();
            crashed = true;
            println!("        -- monitored process crashes --");
        }
        if !recovered && now >= recover_at {
            sender.recover();
            recovered = true;
            println!("        -- monitored process recovers --");
        }
        if let Err(e) = monitor.tick() {
            eprintln!("transport failed: {e}");
            break;
        }
        {
            let level = monitor.level(process).expect("watched");
            let status = if level > threshold {
                Status::Suspected
            } else {
                Status::Trusted
            };
            if let Some(transition) = transitions.observe(status) {
                events.push(ObsEvent {
                    at: now,
                    source: "phi",
                    process,
                    kind: match transition {
                        Transition::Suspect => EventKind::Suspect,
                        Transition::Trust => EventKind::Trust,
                    },
                });
            }
            let degraded = monitor
                .detector_mut(process)
                .expect("watched")
                .is_degraded(now);
            if degraded != was_degraded {
                was_degraded = degraded;
                events.push(ObsEvent {
                    at: now,
                    source: "phi",
                    process,
                    kind: if degraded {
                        EventKind::DegradeEnter
                    } else {
                        EventKind::DegradeExit
                    },
                });
            }
        }
        if now >= next_print {
            let level = monitor.level(process).expect("watched");
            let detector = monitor.detector_mut(process).expect("watched");
            let mut state = String::new();
            if now >= partition.0 && now < partition.1 {
                state.push_str("partition ");
            }
            if detector.is_degraded(now) {
                state.push_str("degraded ");
            }
            if crashed && !recovered {
                state.push_str("crashed ");
            }
            if state.is_empty() {
                state.push_str("nominal");
            }
            println!(
                "  {:5.2}   {:<8.3} {}",
                now.as_secs_f64(),
                level.value(),
                state
            );
            next_print += Duration::from_millis(250);
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    sender.stop().expect("sender thread failed");
    let fault = monitor.transport().stats();
    let intake = monitor.stats().totals;
    let end = clock.now();
    println!(
        "\ninjector: {} delivered, {} lost to partition, {} lost to bursts",
        fault.delivered, fault.dropped_partition, fault.dropped_loss
    );
    println!(
        "monitor:  {} accepted, {} stale, {} corrupt; degrade events: {}",
        intake.accepted,
        intake.stale,
        intake.corrupt,
        monitor
            .detector_mut(process)
            .map_or(0, |d| d.degrade_events(end)),
    );

    // The scrape a monitoring agent would take: every component mirrors its
    // counters into one registry, then the snapshot renders as a table.
    let registry = Registry::new();
    monitor.export_metrics(&registry);
    monitor.transport().export_metrics(&registry);
    if let Some(detector) = monitor.detector_mut(process) {
        detector.export_metrics(&registry, "phi", end);
    }
    println!("\nfinal metrics snapshot:");
    println!("{}", registry.snapshot().to_text());

    println!("event trace ({} dropped):", events.dropped());
    for event in events.drain() {
        println!("  {event}");
    }
}
