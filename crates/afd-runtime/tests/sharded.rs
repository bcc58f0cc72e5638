//! Acceptance tests for the sharded monitor: the union property across
//! shards, and a many-peer virtual-time chaos run (partition + burst
//! loss) with the paper's Accruement and Upper Bound checkers applied per
//! peer.

use afd_core::history::SuspicionTrace;
use afd_core::process::ProcessId;
use afd_core::properties::{check_upper_bound, AccruementCheck};
use afd_core::time::{Duration, Timestamp};
use afd_detectors::phi::PhiAccrual;
use afd_detectors::simple::SimpleAccrual;
use afd_runtime::{
    ChannelTransport, FaultInjector, FaultPlan, Heartbeat, ShardConfig, ShardedMonitor, Transport,
    VirtualClock,
};
use afd_sim::loss::GilbertElliottLoss;
use proptest::prelude::*;

fn frame(sender: u32, seq: u64) -> Vec<u8> {
    Heartbeat {
        sender: ProcessId::new(sender),
        seq,
        sent_at: Timestamp::from_nanos(seq),
    }
    .encode()
    .to_vec()
}

/// One step of a randomized intake schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Deliver a (possibly duplicate, stale, or unwatched) heartbeat.
    Send { sender: u32, seq: u64 },
    /// Deliver an undecodable frame.
    Corrupt,
    /// Advance virtual time and drain the monitor.
    Tick { advance_ms: u32 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = proptest::FnStrategy::new(|rng: &mut TestRng| match rng.below(8) {
        0 => Op::Corrupt,
        1 | 2 => Op::Tick {
            advance_ms: 1 + rng.below(4999) as u32,
        },
        // Small sender/seq spaces force collisions: duplicates, stale
        // replays, and unwatched senders all occur.
        _ => Op::Send {
            sender: rng.below(6) as u32,
            seq: rng.below(8),
        },
    });
    prop::collection::vec(op, 1..120)
}

proptest! {
    /// The global snapshot is exactly the union of the per-shard
    /// snapshots — no peer lost, duplicated, or mis-routed — under
    /// randomized interleavings of intake and time.
    #[test]
    fn snapshot_is_union_of_shard_snapshots(
        ops in ops(),
        shards in 1usize..6,
    ) {
        let clock = VirtualClock::new();
        clock.set(Timestamp::from_secs(1));
        let (mut tx, rx) = ChannelTransport::pair();
        let mut mon = ShardedMonitor::new(
            rx,
            clock.clone(),
            ShardConfig { shards, slots_per_shard: 8 },
            |_| SimpleAccrual::new(Timestamp::ZERO),
        );
        for id in 0..6u32 {
            mon.watch(ProcessId::new(id)).unwrap();
        }

        for op in ops {
            match op {
                Op::Send { sender, seq } => tx.send(&frame(sender, seq)).unwrap(),
                Op::Corrupt => tx.send(b"junk").unwrap(),
                Op::Tick { advance_ms } => {
                    clock.advance(Duration::from_millis(u64::from(advance_ms)));
                    mon.tick().unwrap();
                }
            }
        }
        mon.tick().unwrap();

        let mut union = Vec::new();
        for s in 0..mon.shard_count() {
            let part = mon.shard_snapshot(s);
            // Every entry in a shard's snapshot routes to that shard.
            for &(p, _) in &part {
                assert_eq!(mon.shard_of(p), s);
            }
            union.extend(part);
        }
        union.sort_unstable_by_key(|&(p, _)| p);
        prop_assert_eq!(union.len(), 6, "all watched peers present");
        prop_assert_eq!(mon.snapshot(), union.clone());
        prop_assert_eq!(mon.reader().snapshot(), union);
        // Lock-free point lookups agree with the published table.
        for id in 0..6u32 {
            let p = ProcessId::new(id);
            prop_assert_eq!(
                mon.reader().level(p),
                mon.snapshot().iter().find(|&&(q, _)| q == p).map(|&(_, l)| l)
            );
        }
    }
}

/// Gilbert–Elliott bursts with mean length 4 and burst-start probability
/// 1/16: stationary loss 20 %, as in the acceptance chaos scenario.
fn bursty_loss() -> GilbertElliottLoss {
    GilbertElliottLoss::new(0.0625, 0.25, 0.0, 1.0)
}

/// Many peers through a partition and sustained burst loss, on virtual
/// time: every peer's suspicion trace (read through the lock-free
/// published path) must satisfy Accruement after the final crash and stay
/// finite throughout (Upper Bound).
#[test]
fn many_peer_chaos_run_upholds_accruement_and_upper_bound_per_peer() {
    const PEERS: u32 = 32;
    const PARTITION: (u64, u64) = (20, 30);
    const CRASH_AT: u64 = 90;
    const RUN_UNTIL: u64 = 240;

    let clock = VirtualClock::new();
    let (mut tx, rx) = ChannelTransport::pair();
    let plan = FaultPlan::new().with_loss(bursty_loss()).with_partition(
        Timestamp::from_secs(PARTITION.0),
        Timestamp::from_secs(PARTITION.1),
    );
    let injected = FaultInjector::new(rx, clock.clone(), plan, 1234);
    let mut mon = ShardedMonitor::new(
        injected,
        clock.clone(),
        ShardConfig {
            shards: 4,
            slots_per_shard: 16,
        },
        |_| PhiAccrual::with_defaults(),
    );
    for id in 0..PEERS {
        mon.watch(ProcessId::new(id)).unwrap();
    }

    let mut seqs = vec![0u64; PEERS as usize];
    let mut traces: Vec<SuspicionTrace> = (0..PEERS).map(|_| SuspicionTrace::new()).collect();
    let reader = mon.reader();

    for second in 1..=RUN_UNTIL {
        clock.set(Timestamp::from_secs(second));
        // One heartbeat per peer per second of virtual time until the crash.
        if second < CRASH_AT {
            for (id, seq) in seqs.iter_mut().enumerate() {
                *seq += 1;
                tx.send(&frame(id as u32, *seq)).unwrap();
            }
        }
        mon.tick().unwrap();
        // Record through the lock-free published path.
        let at = reader.published_at();
        for (p, level) in reader.snapshot() {
            traces[p.index()].push(at, level);
        }
    }

    // The faults actually fired.
    let fstats = mon.transport().stats();
    assert!(fstats.dropped_partition > 0, "partition inert");
    assert!(fstats.dropped_loss > 0, "burst loss inert");
    let stats = mon.stats();
    assert!(
        stats.totals.accepted > u64::from(PEERS) * 30,
        "too few heartbeats survived: {stats:?}"
    );

    let check = AccruementCheck::STRICT;
    for (id, trace) in traces.iter().enumerate() {
        assert_eq!(trace.len() as u64, RUN_UNTIL, "peer {id}: sparse trace");
        // Property 1 on the post-crash suffix: a monotone climb with
        // regular strict increases.
        let witness = check
            .run(trace)
            .unwrap_or_else(|e| panic!("peer {id}: Accruement violated: {e}"));
        assert!(
            witness.strict_increases >= 10,
            "peer {id}: suffix too flat ({} increases)",
            witness.strict_increases
        );
        // Property 2 (finite-trace form): partitions and loss bursts
        // never push any peer's level to infinity.
        check_upper_bound(trace, None)
            .unwrap_or_else(|e| panic!("peer {id}: Upper Bound violated: {e}"));
    }
}

/// The same chaos schedule replays identically: sharding must not
/// introduce nondeterminism under virtual time.
#[test]
fn sharded_chaos_run_is_deterministic() {
    fn run() -> (Vec<(ProcessId, String)>, u64) {
        let clock = VirtualClock::new();
        let (mut tx, rx) = ChannelTransport::pair();
        let plan = FaultPlan::new()
            .with_loss(bursty_loss())
            .with_partition(Timestamp::from_secs(10), Timestamp::from_secs(15));
        let injected = FaultInjector::new(rx, clock.clone(), plan, 77);
        let mut mon = ShardedMonitor::new(
            injected,
            clock.clone(),
            ShardConfig {
                shards: 3,
                slots_per_shard: 8,
            },
            |_| PhiAccrual::with_defaults(),
        );
        for id in 0..12u32 {
            mon.watch(ProcessId::new(id)).unwrap();
        }
        for second in 1..=60u64 {
            clock.set(Timestamp::from_secs(second));
            for id in 0..12u32 {
                tx.send(&frame(id, second)).unwrap();
            }
            mon.tick().unwrap();
        }
        let snap = mon
            .snapshot()
            .into_iter()
            .map(|(p, l)| (p, format!("{:.12}", l.value())))
            .collect();
        (snap, mon.stats().totals.accepted)
    }

    assert_eq!(run(), run());
}
