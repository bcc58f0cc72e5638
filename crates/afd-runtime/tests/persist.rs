//! Durability acceptance tests: kill-during-checkpoint chaos (restore
//! falls back to the last complete manifest generation; corrupt segments
//! are quarantined by checksum, never silently imported), a restart
//! that restores before re-watching, engine wiring in both modes, and
//! proptest round-trips showing dump→restore preserves phi to 1e-9,
//! Chen's expected arrival to 1 ns, simple accrual exactly, and replay
//! rejection state.

#![expect(
    clippy::disallowed_methods,
    reason = "threads and sockets are polled against a wall-clock deadline, so a stall fails instead of hanging"
)]
#![allow(
    clippy::float_cmp,
    reason = "exact float equality is the point of the simple-accrual round trip"
)]

use std::sync::{Arc, Mutex};

use afd_core::history::SuspicionTrace;
use afd_core::process::ProcessId;
use afd_core::properties::{check_upper_bound, AccruementCheck};
use afd_core::time::{Duration, Timestamp};
use afd_detectors::adaptive::AdaptiveAccrual;
use afd_detectors::akka::AkkaPhi;
use afd_detectors::chen::ChenAccrual;
use afd_detectors::phi::PhiAccrual;
use afd_detectors::simple::SimpleAccrual;
use afd_runtime::{
    ChannelTransport, CheckpointConfig, Checkpointer, EngineConfig, EngineError, FaultySink,
    FaultySinkPlan, Heartbeat, MemSink, ParallelShardEngine, SegmentSink, ShardConfig,
    ShardedMonitor, Transport, VirtualClock,
};
use proptest::prelude::*;

type PhiMonitor = ShardedMonitor<ChannelTransport, VirtualClock, PhiAccrual>;
type SharedSink = Arc<Mutex<MemSink>>;

fn frame(sender: u32, seq: u64) -> Vec<u8> {
    Heartbeat {
        sender: ProcessId::new(sender),
        seq,
        sent_at: Timestamp::from_nanos(seq),
    }
    .encode()
    .to_vec()
}

fn ts(s: f64) -> Timestamp {
    Timestamp::from_secs_f64(s)
}

fn phi_monitor(rx: ChannelTransport, clock: &VirtualClock, shards: usize) -> PhiMonitor {
    ShardedMonitor::new(
        rx,
        clock.clone(),
        ShardConfig {
            shards,
            slots_per_shard: 16,
        },
        |_| PhiAccrual::with_defaults(),
    )
}

/// The tentpole chaos scenario: a monitor learns arrival statistics, dumps
/// a complete generation, then is killed *mid-checkpoint* — segments of
/// the next generation hit the sink but the manifest (the commit point)
/// never installs. The restart restores from the shared sink *before*
/// re-watching. The restore must come from the last complete manifest
/// generation, the restored phi must match pre-crash phi within 1e-9 on
/// the first post-restore query, replay rejection must survive, and
/// Accruement / Upper Bound must hold on the post-restart run.
#[test]
fn kill_during_checkpoint_restores_last_complete_generation() {
    const PEERS: u32 = 24;
    const SHARDS: usize = 4;
    const LEARN_UNTIL: u64 = 60;

    let clock = VirtualClock::new();
    let store: SharedSink = Arc::new(Mutex::new(MemSink::new()));

    // Incarnation 1 learns each peer's cadence on virtual time.
    let (mut tx, rx) = ChannelTransport::pair();
    let mut mon = phi_monitor(rx, &clock, SHARDS);
    for id in 0..PEERS {
        mon.watch(ProcessId::new(id)).unwrap();
    }
    let mut seqs = vec![0u64; PEERS as usize];
    for second in 1..=LEARN_UNTIL {
        clock.set(Timestamp::from_secs(second));
        for (id, seq) in seqs.iter_mut().enumerate() {
            *seq += 1;
            tx.send(&frame(id as u32, *seq)).unwrap();
        }
        mon.tick().unwrap();
    }

    // Generation 1 completes cleanly.
    let mut ckpt = Checkpointer::new(Arc::clone(&store), CheckpointConfig::default());
    let report = mon.checkpoint(&mut ckpt).unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.peers, PEERS as usize);
    assert_eq!(report.segments, SHARDS);

    // Reference: the pre-crash suspicion level of every peer, queried half
    // a second after the last heartbeat round.
    let t_query = ts(LEARN_UNTIL as f64 + 0.5);
    clock.set(t_query);
    let reference: Vec<f64> = (0..PEERS)
        .map(|id| mon.level(ProcessId::new(id)).unwrap().value())
        .collect();

    // Generation 2 dies mid-dump: every segment is written, but the
    // process is killed before the manifest's rename — modeled by a
    // drop-install fault targeting exactly the generation-2 manifest.
    let dying_sink = FaultySink::new(
        Arc::clone(&store),
        FaultySinkPlan::new().with_drop_install(1.0),
        99,
    )
    .with_filter("manifest-g2");
    let mut dying = Checkpointer::new(dying_sink, CheckpointConfig::default());
    mon.checkpoint(&mut dying).unwrap();
    assert_eq!(dying.sink().stats().dropped_installs, 1, "the kill landed");
    // The crash: monitor and its transport die with the process.
    drop(mon);
    drop(tx);

    // Restart by hand: restore from the shared sink, import, and only
    // then re-watch. Every peer came back with the checkpoint, so the
    // re-watch finds each one already watched and keeps its restored
    // detector.
    let mut ckpt = Checkpointer::new(Arc::clone(&store), CheckpointConfig::default());
    let restored = ckpt.restore(&clock).unwrap();
    let (mut tx, rx) = ChannelTransport::pair();
    let mut mon = phi_monitor(rx, &clock, SHARDS);
    let import = mon.restore(&restored.peers);
    for id in 0..PEERS {
        assert_eq!(mon.watch(ProcessId::new(id)), Ok(false));
    }
    // A post-restore checkpoint must number above the dead generation's
    // leftover segments, never clobber them.
    let next_generation = mon.checkpoint(&mut ckpt).unwrap().generation;

    // Restore came from the last COMPLETE manifest generation (1), not the
    // partially-written generation 2, and rejected nothing within it.
    assert_eq!(restored.generation, Some(1));
    assert_eq!(restored.segments_rejected, 0);
    assert_eq!(import.watched, u64::from(PEERS));
    assert_eq!(import.seeded, u64::from(PEERS));
    assert_eq!(
        next_generation, 3,
        "numbering continues past the dead generation"
    );

    // First post-restore query answers at pre-crash quality: phi within
    // 1e-9 of the pre-crash value, both on the exact-now path and on the
    // already-published lock-free path.
    for (id, &expected) in reference.iter().enumerate() {
        let p = ProcessId::new(id as u32);
        let got = mon.level(p).unwrap().value();
        assert!(
            (got - expected).abs() < 1e-9,
            "peer {id}: restored phi {got} vs pre-crash {expected}"
        );
    }
    let published = mon.reader().snapshot();
    assert_eq!(published.len(), PEERS as usize);
    for (p, level) in published {
        let expected = reference[p.index()];
        assert!(
            (level.value() - expected).abs() < 1e-9,
            "published level for {p:?} diverged after restore"
        );
    }

    // Replay rejection survived the restart: redelivering the highest
    // sequence numbers is rejected, the next fresh one is accepted.
    for id in 0..PEERS {
        tx.send(&frame(id, seqs[id as usize])).unwrap();
    }
    let rejected = mon.tick().unwrap();
    assert_eq!(rejected.accepted, 0, "replayed frames must not be accepted");
    let stats = mon.stats();
    assert_eq!(
        stats.totals.duplicate + stats.totals.stale,
        u64::from(PEERS)
    );

    // Post-restart run: peers 0..12 stay crashed, the rest resume beating.
    // Accruement must hold for the crashed peers and Upper Bound for all —
    // the restored windows keep answering, not just at t_query.
    const CRASHED: u32 = 12;
    const RUN_UNTIL: u64 = 180;
    let mut traces: Vec<SuspicionTrace> = (0..PEERS).map(|_| SuspicionTrace::new()).collect();
    let reader = mon.reader();
    for second in (LEARN_UNTIL + 1)..=RUN_UNTIL {
        clock.set(Timestamp::from_secs(second));
        for id in CRASHED..PEERS {
            seqs[id as usize] += 1;
            tx.send(&frame(id, seqs[id as usize])).unwrap();
        }
        mon.tick().unwrap();
        let at = reader.published_at();
        for (p, level) in reader.snapshot() {
            traces[p.index()].push(at, level);
        }
    }
    let check = AccruementCheck::STRICT;
    for (id, trace) in traces.iter().enumerate() {
        check_upper_bound(trace, None)
            .unwrap_or_else(|e| panic!("peer {id}: Upper Bound violated post-restart: {e}"));
        if (id as u32) < CRASHED {
            let witness = check
                .run(trace)
                .unwrap_or_else(|e| panic!("peer {id}: Accruement violated post-restart: {e}"));
            assert!(witness.strict_increases >= 10, "peer {id}: flat suffix");
        }
    }
}

/// A segment torn mid-write (garbage tail + a guaranteed bit flip) fails
/// its checksum on restore: that shard's peers are quarantined and
/// counted, every other shard's peers are restored, and the
/// `persist.segments_rejected` counter reports it.
#[test]
fn torn_segment_is_quarantined_and_the_rest_restored() {
    const PEERS: u32 = 16;
    const SHARDS: usize = 4;
    let clock = VirtualClock::new();
    let store: SharedSink = Arc::new(Mutex::new(MemSink::new()));

    let (mut tx, rx) = ChannelTransport::pair();
    let mut mon = phi_monitor(rx, &clock, SHARDS);
    for id in 0..PEERS {
        mon.watch(ProcessId::new(id)).unwrap();
    }
    for second in 1..=20u64 {
        clock.set(Timestamp::from_secs(second));
        for id in 0..PEERS {
            tx.send(&frame(id, second)).unwrap();
        }
        mon.tick().unwrap();
    }

    // Tear exactly shard 2's segment; the manifest and the other segments
    // install intact.
    let torn_sink = FaultySink::new(
        Arc::clone(&store),
        FaultySinkPlan::new()
            .with_torn_write(1.0)
            .with_bit_flip(1.0),
        7,
    )
    .with_filter("-s2.afds");
    let mut dump = Checkpointer::new(torn_sink, CheckpointConfig::default());
    mon.checkpoint(&mut dump).unwrap();
    assert!(dump.sink().stats().torn_writes >= 1);

    let registry = afd_obs::Registry::new();
    let mut ckpt = Checkpointer::new(Arc::clone(&store), CheckpointConfig::default());
    ckpt.bind_metrics(&registry);
    let restored = ckpt.restore(&clock).unwrap();
    assert_eq!(restored.generation, Some(1), "manifest generation is kept");
    assert_eq!(restored.segments_rejected, 1, "exactly the torn shard");
    assert_eq!(
        registry.snapshot().counter("persist.segments_rejected"),
        Some(1)
    );

    // The surviving peers are exactly the ones not routed to shard 2.
    let survivors: Vec<u32> = (0..PEERS)
        .filter(|&id| mon.shard_of(ProcessId::new(id)) != 2)
        .collect();
    assert!(survivors.len() < PEERS as usize, "shard 2 was populated");
    let mut got: Vec<u32> = restored.peers.iter().map(|p| p.process.as_u32()).collect();
    got.sort_unstable();
    assert_eq!(got, survivors);
    for peer in &restored.peers {
        assert!(peer.seed.is_some(), "surviving peers carry their seeds");
        assert!(peer.highest_seq.is_some());
    }

    // Importing the survivors into a fresh monitor works and publishes.
    let (_tx2, rx2) = ChannelTransport::pair();
    let mut fresh = phi_monitor(rx2, &clock, SHARDS);
    let import = fresh.restore(&restored.peers);
    assert_eq!(import.watched, survivors.len() as u64);
    assert_eq!(import.seeded, survivors.len() as u64);
    assert_eq!(import.capacity_rejected, 0);
    assert_eq!(fresh.reader().snapshot().len(), survivors.len());
}

/// A short write (truncation) is likewise rejected by the length check and
/// checksum, and a fully dropped install simply leaves the segment
/// missing — both quarantine without failing the restore.
#[test]
fn short_written_and_missing_segments_are_rejected_not_imported() {
    let clock = VirtualClock::new();
    let store: SharedSink = Arc::new(Mutex::new(MemSink::new()));
    let (mut tx, rx) = ChannelTransport::pair();
    let mut mon = phi_monitor(rx, &clock, 2);
    for id in 0..8u32 {
        mon.watch(ProcessId::new(id)).unwrap();
    }
    for second in 1..=10u64 {
        clock.set(Timestamp::from_secs(second));
        for id in 0..8u32 {
            tx.send(&frame(id, second)).unwrap();
        }
        mon.tick().unwrap();
    }

    let sink = FaultySink::new(
        Arc::clone(&store),
        FaultySinkPlan::new().with_short_write(1.0),
        11,
    )
    .with_filter("-s0.afds");
    let mut dump = Checkpointer::new(sink, CheckpointConfig::default());
    mon.checkpoint(&mut dump).unwrap();
    let restored = Checkpointer::new(Arc::clone(&store), CheckpointConfig::default())
        .restore(&clock)
        .unwrap();
    assert_eq!(restored.generation, Some(1));
    assert_eq!(restored.segments_rejected, 1);
    assert!(restored.peers.iter().all(|p| mon.shard_of(p.process) != 0));

    // Second generation: shard 1's segment never installs at all.
    let sink = FaultySink::new(
        Arc::clone(&store),
        FaultySinkPlan::new().with_drop_install(1.0),
        12,
    )
    .with_filter("g2-s1.afds");
    let mut dump = Checkpointer::new(sink, CheckpointConfig::default());
    mon.checkpoint(&mut dump).unwrap();
    let restored = Checkpointer::new(Arc::clone(&store), CheckpointConfig::default())
        .restore(&clock)
        .unwrap();
    assert_eq!(restored.generation, Some(2));
    assert_eq!(restored.segments_rejected, 1, "missing segment quarantined");
    assert!(restored.peers.iter().all(|p| mon.shard_of(p.process) != 1));
}

/// Engine wiring: explicit `checkpoint()` on a running engine once its
/// threads have settled, restore only while Idle (refused while running),
/// and post-restore reads at pre-shutdown quality.
#[test]
fn engine_checkpoints_while_running_and_restores_while_idle() {
    const PEERS: u32 = 8;
    let clock = VirtualClock::new();
    let store: SharedSink = Arc::new(Mutex::new(MemSink::new()));
    let config = EngineConfig {
        workers: 2,
        publish_every: Duration::ZERO,
        ..EngineConfig::default()
    };

    let (mut tx, rx) = ChannelTransport::pair();
    let mut engine =
        ParallelShardEngine::new(rx, clock.clone(), config, |_| PhiAccrual::with_defaults());
    for id in 0..PEERS {
        engine.watch(ProcessId::new(id)).unwrap();
    }
    engine.start().unwrap();
    for second in 1..=30u64 {
        clock.set(Timestamp::from_secs(second));
        for id in 0..PEERS {
            tx.send(&frame(id, second)).unwrap();
        }
        engine_settle(&engine, |s| s.totals.accepted >= u64::from(PEERS) * second);
    }
    // Explicit checkpoint of the settled epoch (a worker stores its
    // counters only after the publish that covers them).
    let mut ckpt = Checkpointer::new(Arc::clone(&store), CheckpointConfig::default());
    let report = engine.checkpoint(&mut ckpt).unwrap();
    assert_eq!(report.peers, PEERS as usize);
    let reference: Vec<_> = engine.reader().snapshot();
    engine.shutdown().unwrap();

    let restored = ckpt.restore(&clock).unwrap();
    assert_eq!(restored.peers.len(), PEERS as usize);

    let (mut tx2, rx2) = ChannelTransport::pair();
    let mut fresh =
        ParallelShardEngine::new(rx2, clock.clone(), config, |_| PhiAccrual::with_defaults());
    let import = fresh.restore(&restored.peers).unwrap();
    assert_eq!(import.watched, u64::from(PEERS));
    assert_eq!(import.seeded, u64::from(PEERS));
    // The restore already published: readers see pre-shutdown levels
    // before the first worker even starts.
    let recovered = fresh.reader().snapshot();
    assert_eq!(recovered.len(), reference.len());
    for ((p1, l1), (p2, l2)) in reference.iter().zip(&recovered) {
        assert_eq!(p1, p2);
        assert!(
            (l1.value() - l2.value()).abs() < 1e-9,
            "{p1:?}: {} vs {}",
            l1.value(),
            l2.value()
        );
    }

    fresh.start().unwrap();
    assert_eq!(
        fresh.restore(&restored.peers).unwrap_err(),
        EngineError::Running,
        "restore is an Idle-only operation"
    );
    // Replay rejection survived: the old sequence numbers stay rejected.
    clock.set(Timestamp::from_secs(31));
    for id in 0..PEERS {
        tx2.send(&frame(id, 30)).unwrap();
    }
    engine_settle(&fresh, |s| {
        s.totals.duplicate + s.totals.stale >= u64::from(PEERS)
    });
    assert_eq!(fresh.stats().totals.accepted, 0);
    fresh.shutdown().unwrap();
}

fn engine_settle<T, C, D>(
    engine: &ParallelShardEngine<T, C, D>,
    done: impl Fn(&afd_runtime::EngineStats) -> bool,
) where
    T: Transport + Send + 'static,
    C: afd_runtime::Clock + Clone + Send + 'static,
    D: afd_core::accrual::AccrualFailureDetector + Send + 'static,
{
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if done(&engine.stats()) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "engine never settled: {:?}",
            engine.stats()
        );
        std::thread::yield_now();
    }
}

/// The two PR-7 detectors slot into the sharded checkpoint/restore path
/// unchanged: dump a monitor full of them through the real segment bytes,
/// restore into a fresh monitor, and the first post-restore query answers
/// within 1e-9 of pre-crash for every peer. (A regular cadence, where the
/// moments→samples reconstruction is lossless for the adaptive histogram.)
#[test]
fn new_detectors_roundtrip_through_sharded_checkpoint() {
    fn run<D: afd_core::accrual::AccrualFailureDetector>(
        name: &str,
        factory: impl Fn(ProcessId) -> D + Send + Clone + 'static,
    ) {
        const PEERS: u32 = 12;
        let clock = VirtualClock::new();
        let (mut tx, rx) = ChannelTransport::pair();
        let mut mon = ShardedMonitor::new(
            rx,
            clock.clone(),
            ShardConfig {
                shards: 3,
                slots_per_shard: 8,
            },
            factory.clone(),
        );
        for id in 0..PEERS {
            mon.watch(ProcessId::new(id)).unwrap();
        }
        for second in 1..=40u64 {
            clock.set(Timestamp::from_secs(second));
            for id in 0..PEERS {
                tx.send(&frame(id, second)).unwrap();
            }
            mon.tick().unwrap();
        }

        let store: SharedSink = Arc::new(Mutex::new(MemSink::new()));
        let mut ckpt = Checkpointer::new(Arc::clone(&store), CheckpointConfig::default());
        mon.checkpoint(&mut ckpt).unwrap();
        let restored = ckpt.restore(&clock).unwrap();
        assert_eq!(restored.segments_rejected, 0, "{name}: clean dump");
        assert_eq!(restored.peers.len(), PEERS as usize);

        clock.set(ts(40.7));
        let (_tx2, rx2) = ChannelTransport::pair();
        let mut fresh = ShardedMonitor::new(
            rx2,
            clock.clone(),
            ShardConfig {
                shards: 3,
                slots_per_shard: 8,
            },
            factory,
        );
        let import = fresh.restore(&restored.peers);
        assert_eq!(import.seeded, u64::from(PEERS), "{name}: all seeded");
        for id in 0..PEERS {
            let p = ProcessId::new(id);
            let a = mon.level(p).unwrap().value();
            let b = fresh.level(p).unwrap().value();
            assert!(
                (a - b).abs() < 1e-9,
                "{name} peer {id}: {a} vs restored {b}"
            );
        }
    }

    run("akka", |_| AkkaPhi::with_defaults());
    run("adaptive", |_| AdaptiveAccrual::with_defaults());
}

/// A publish rewrites a peer's durable row only while one of the two
/// banks still holds an older version of it. A checkpoint reads whichever
/// bank is in front, so after many publishes in which different peers
/// arrived it must still dump every peer's latest window and watermark.
#[test]
fn checkpoint_after_incremental_publishes_restores_within_1e9() {
    const PEERS: u32 = 24;
    let clock = VirtualClock::new();
    let (mut tx, rx) = ChannelTransport::pair();
    let mut mon = phi_monitor(rx, &clock, 2);
    for id in 0..PEERS {
        mon.watch(ProcessId::new(id)).unwrap();
    }
    // Two empty ticks put the rows the watches marked into both banks.
    clock.set(ts(0.5));
    mon.tick().unwrap();
    mon.tick().unwrap();
    let mut last_seq = [0u64; PEERS as usize];
    for step in 1..=90u64 {
        clock.set(ts(1.0 + 0.37 * step as f64));
        // Peer `id` sends on every (2 + id % 5)-th step, so each tick a
        // different handful arrives and most rows are left alone; every
        // seventh tick nothing arrives at all.
        if step % 7 != 0 {
            for id in (0..PEERS).filter(|id| step % u64::from(2 + id % 5) == 0) {
                tx.send(&frame(id, step)).unwrap();
                last_seq[id as usize] = step;
            }
        }
        mon.tick().unwrap();
    }

    let store: SharedSink = Arc::new(Mutex::new(MemSink::new()));
    let mut ckpt = Checkpointer::new(Arc::clone(&store), CheckpointConfig::default());
    mon.checkpoint(&mut ckpt).unwrap();
    let restored = ckpt.restore(&clock).unwrap();
    assert_eq!(restored.segments_rejected, 0);
    assert_eq!(restored.peers.len(), PEERS as usize);
    for peer in &restored.peers {
        let seq = last_seq[peer.process.as_u32() as usize];
        assert_eq!(peer.highest_seq, Some(seq), "{:?}", peer.process);
    }

    clock.set(ts(36.0));
    let (mut tx2, rx2) = ChannelTransport::pair();
    let mut fresh = phi_monitor(rx2, &clock, 2);
    assert_eq!(fresh.restore(&restored.peers).seeded, u64::from(PEERS));
    for id in 0..PEERS {
        let p = ProcessId::new(id);
        let (a, b) = (
            mon.level(p).unwrap().value(),
            fresh.level(p).unwrap().value(),
        );
        assert!((a - b).abs() < 1e-9, "peer {id}: {a} vs restored {b}");
    }
    // Replays of each peer's newest frame stay rejected after the restore.
    for id in 0..PEERS {
        tx2.send(&frame(id, last_seq[id as usize])).unwrap();
    }
    assert_eq!(fresh.tick().unwrap().accepted, 0);
    assert_eq!(fresh.stats().totals.duplicate, u64::from(PEERS));
}

/// A shard's durable rows come a chunk of 256 at a time as its slab
/// grows, so a shard holding more peers than that carries rows in a
/// second chunk — and those cross the checkpointer like the first.
#[test]
fn rows_past_the_first_durable_chunk_restore_within_1e9() {
    const PEERS: u32 = 300;
    let config = ShardConfig {
        shards: 1,
        slots_per_shard: 512,
    };
    let monitor = |rx, clock: &VirtualClock| {
        ShardedMonitor::new(rx, clock.clone(), config, |_| PhiAccrual::with_defaults())
    };
    let clock = VirtualClock::new();
    let (mut tx, rx) = ChannelTransport::pair();
    let mut mon = monitor(rx, &clock);
    for id in 0..PEERS {
        mon.watch(ProcessId::new(id)).unwrap();
    }
    for step in 1..=12u64 {
        clock.set(ts(step as f64 + 0.01 * f64::from(step as u32 % 3)));
        for id in 0..PEERS {
            tx.send(&frame(id, step * 10 + u64::from(id % 7))).unwrap();
        }
        mon.tick().unwrap();
    }
    // The last arrivals reach the second bank too.
    mon.tick().unwrap();

    let store: SharedSink = Arc::new(Mutex::new(MemSink::new()));
    let mut ckpt = Checkpointer::new(Arc::clone(&store), CheckpointConfig::default());
    mon.checkpoint(&mut ckpt).unwrap();
    let restored = ckpt.restore(&clock).unwrap();
    assert_eq!(restored.segments_rejected, 0);
    assert_eq!(restored.peers.len(), PEERS as usize);
    for peer in &restored.peers {
        let id = peer.process.as_u32();
        assert_eq!(peer.highest_seq, Some(120 + u64::from(id % 7)), "peer {id}");
    }

    clock.set(ts(14.5));
    let (mut tx2, rx2) = ChannelTransport::pair();
    let mut fresh = monitor(rx2, &clock);
    assert_eq!(fresh.restore(&restored.peers).seeded, u64::from(PEERS));
    for id in 0..PEERS {
        let p = ProcessId::new(id);
        let (a, b) = (
            mon.level(p).unwrap().value(),
            fresh.level(p).unwrap().value(),
        );
        assert!((a - b).abs() < 1e-9, "peer {id}: {a} vs restored {b}");
    }
    // Replays of each peer's newest frame stay rejected after the restore,
    // in the second chunk as in the first.
    for id in 0..PEERS {
        tx2.send(&frame(id, 120 + u64::from(id % 7))).unwrap();
    }
    assert_eq!(fresh.tick().unwrap().accepted, 0);
    assert_eq!(fresh.stats().totals.duplicate, u64::from(PEERS));
}

/// A checkpoint's bytes are a function of the monitor's state, not of
/// the order it was reached in. Rows sit in slot order, and which slot a
/// peer holds records every watch and unwatch before it: two monitors
/// with the same watch set and the same arrivals but different histories
/// must still dump identical segments and manifests at the same epoch.
#[test]
fn checkpoint_bytes_do_not_depend_on_the_watch_history() {
    const PEERS: u32 = 12;
    let clock = VirtualClock::new();
    let (mut tx_a, rx_a) = ChannelTransport::pair();
    let (mut tx_b, rx_b) = ChannelTransport::pair();
    let mut a = phi_monitor(rx_a, &clock, 2);
    let mut b = phi_monitor(rx_b, &clock, 2);
    // `a` watches in id order. `b` watches four decoys first, the peers
    // in reverse, then drops the decoys: vacant slots up front, every
    // peer somewhere else than in `a`.
    for id in 0..PEERS {
        a.watch(ProcessId::new(id)).unwrap();
    }
    for id in (100..104).chain((0..PEERS).rev()) {
        b.watch(ProcessId::new(id)).unwrap();
    }
    for id in 100..104 {
        b.unwatch(ProcessId::new(id)).unwrap();
    }
    let mut round = |a: &mut PhiMonitor, b: &mut PhiMonitor, step: u64, ids: &[u32]| {
        clock.set(ts(1.0 + 0.41 * step as f64));
        for &id in ids
            .iter()
            .filter(|&&id| step.is_multiple_of(u64::from(1 + id % 3)))
        {
            tx_a.send(&frame(id, step)).unwrap();
            tx_b.send(&frame(id, step)).unwrap();
        }
        a.tick().unwrap();
        b.tick().unwrap();
    };
    let mut ids: Vec<u32> = (0..PEERS).collect();
    for step in 1..=30 {
        round(&mut a, &mut b, step, &ids);
    }
    // Peer 5 is replaced by peer 50 in both; in `b` another decoy comes
    // and goes first, so 50 does not land where 5 was.
    b.watch(ProcessId::new(104)).unwrap();
    for mon in [&mut a, &mut b] {
        mon.unwatch(ProcessId::new(5)).unwrap();
        mon.watch(ProcessId::new(50)).unwrap();
    }
    b.unwatch(ProcessId::new(104)).unwrap();
    ids.retain(|&id| id != 5);
    ids.push(50);
    for step in 31..=60 {
        round(&mut a, &mut b, step, &ids);
    }

    let dump = |mon: &mut PhiMonitor| {
        let mut ckpt = Checkpointer::new(MemSink::new(), CheckpointConfig::default());
        assert_eq!(mon.checkpoint(&mut ckpt).unwrap().peers, PEERS as usize);
        let sink = ckpt.into_sink();
        let names = sink.list().unwrap();
        let blobs: Vec<_> = names.iter().map(|n| sink.get(n).unwrap()).collect();
        (names, blobs)
    };
    clock.set(ts(26.0));
    let (dump_a, dump_b) = (dump(&mut a), dump(&mut b));
    assert_eq!(dump_a.0.len(), 3, "two segments and a manifest");
    assert_eq!(dump_a, dump_b);
}

fn heartbeat_times(gaps: &[f64]) -> Vec<Timestamp> {
    let mut t = 1.0;
    let mut out = vec![ts(t)];
    for g in gaps {
        t += g;
        out.push(ts(t));
    }
    out
}

proptest! {
    /// phi dump→restore equivalence: a detector restored from its saved
    /// moments answers within 1e-9 of the original at any later query
    /// time, on any arrival history.
    #[test]
    fn phi_roundtrips_within_1e9(
        gaps in prop::collection::vec(0.05f64..3.0, 0..60),
        late in 0.0f64..5.0,
    ) {
        use afd_core::accrual::AccrualFailureDetector;
        let mut fd = PhiAccrual::with_defaults();
        let arrivals = heartbeat_times(&gaps);
        for &a in &arrivals {
            fd.record_heartbeat(a);
        }
        let seed = fd.save_seed().expect("phi persists a seed");
        let mut restored = PhiAccrual::with_defaults();
        restored.restore_seed(&seed);
        let q = arrivals.last().unwrap().saturating_add(afd_core::time::Duration::from_secs_f64(late));
        let a = fd.suspicion_level(q).value();
        let b = restored.suspicion_level(q).value();
        prop_assert!((a - b).abs() < 1e-9, "phi {a} vs restored {b}");
    }

    /// Akka φ dump→restore equivalence under arbitrary gap histories. The
    /// tolerance is relative because the logistic deviate grows cubically
    /// in elapsed time, amplifying last-bit moment differences.
    #[test]
    fn akka_phi_roundtrips_within_1e9_relative(
        gaps in prop::collection::vec(0.05f64..3.0, 0..60),
        late in 0.0f64..5.0,
    ) {
        use afd_core::accrual::AccrualFailureDetector;
        let mut fd = AkkaPhi::with_defaults();
        let arrivals = heartbeat_times(&gaps);
        for &a in &arrivals {
            fd.record_heartbeat(a);
        }
        let seed = fd.save_seed().expect("akka persists a seed");
        let mut restored = AkkaPhi::with_defaults();
        restored.restore_seed(&seed);
        let q = arrivals.last().unwrap().saturating_add(afd_core::time::Duration::from_secs_f64(late));
        let a = fd.suspicion_level(q).value();
        let b = restored.suspicion_level(q).value();
        prop_assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "akka {a} vs restored {b}");
    }

    /// Adaptive accrual dump→restore equivalence on a regular cadence,
    /// where the moments-only seed reconstructs the histogram losslessly.
    #[test]
    fn adaptive_roundtrips_exactly_on_regular_cadence(
        gap in 0.1f64..3.0,
        beats in 2usize..40,
        late in 0.0f64..5.0,
    ) {
        use afd_core::accrual::AccrualFailureDetector;
        let mut fd = AdaptiveAccrual::with_defaults();
        let arrivals = heartbeat_times(&vec![gap; beats]);
        for &a in &arrivals {
            fd.record_heartbeat(a);
        }
        let seed = fd.save_seed().expect("adaptive persists a seed");
        let mut restored = AdaptiveAccrual::with_defaults();
        restored.restore_seed(&seed);
        let q = arrivals.last().unwrap().saturating_add(afd_core::time::Duration::from_secs_f64(late));
        let a = fd.suspicion_level(q).value();
        let b = restored.suspicion_level(q).value();
        prop_assert!((a - b).abs() < 1e-9, "adaptive {a} vs restored {b}");
    }

    /// Chen dump→restore equivalence: the restored expected arrival is
    /// within one nanosecond of the original.
    #[test]
    fn chen_expected_arrival_roundtrips_within_1ns(
        gaps in prop::collection::vec(0.05f64..3.0, 0..60),
    ) {
        use afd_core::accrual::AccrualFailureDetector;
        let mut fd = ChenAccrual::with_defaults();
        for &a in &heartbeat_times(&gaps) {
            fd.record_heartbeat(a);
        }
        let seed = fd.save_seed().expect("chen persists a seed");
        let mut restored = ChenAccrual::with_defaults();
        restored.restore_seed(&seed);
        let a = fd.expected_arrival().unwrap().as_nanos();
        let b = restored.expected_arrival().unwrap().as_nanos();
        prop_assert!(a.abs_diff(b) <= 1, "EA {a}ns vs restored {b}ns");
    }

    /// Simple accrual dump→restore is exact: same level at every query
    /// time and the heartbeat count is preserved.
    #[test]
    fn simple_roundtrips_exactly(
        beats in 1u64..50,
        late in 0.0f64..10.0,
    ) {
        use afd_core::accrual::AccrualFailureDetector;
        let mut fd = SimpleAccrual::new(Timestamp::ZERO);
        for s in 1..=beats {
            fd.record_heartbeat(Timestamp::from_secs(s));
        }
        let seed = fd.save_seed().expect("simple persists a seed");
        let mut restored = SimpleAccrual::new(Timestamp::ZERO);
        restored.restore_seed(&seed);
        prop_assert_eq!(restored.heartbeats_seen(), beats);
        let q = ts(beats as f64 + late);
        prop_assert_eq!(fd.suspicion_level(q).value(), restored.suspicion_level(q).value());
    }

    /// Full-monitor round trip through the real segment bytes: dump a
    /// monitor, restore into a fresh one with a possibly *different* shard
    /// count, and require identical levels (1e-9), preserved highest
    /// sequence numbers (replays stay rejected), and no peer lost.
    #[test]
    fn monitor_dump_restore_preserves_levels_and_replay_state(
        beats in prop::collection::vec(1u64..30, 1..12),
        shards_before in 1usize..5,
        shards_after in 1usize..5,
    ) {
        let peers = beats.len() as u32;
        let clock = VirtualClock::new();
        let (mut tx, rx) = ChannelTransport::pair();
        let mut mon = phi_monitor(rx, &clock, shards_before);
        for id in 0..peers {
            mon.watch(ProcessId::new(id)).unwrap();
        }
        let last = *beats.iter().max().unwrap();
        for second in 1..=last {
            clock.set(Timestamp::from_secs(second));
            for (id, &b) in beats.iter().enumerate() {
                if second <= b {
                    tx.send(&frame(id as u32, second)).unwrap();
                }
            }
            mon.tick().unwrap();
        }

        let store: SharedSink = Arc::new(Mutex::new(MemSink::new()));
        let mut ckpt = Checkpointer::new(Arc::clone(&store), CheckpointConfig::default());
        mon.checkpoint(&mut ckpt).unwrap();
        let restored = ckpt.restore(&clock).unwrap();
        prop_assert_eq!(restored.segments_rejected, 0);
        prop_assert_eq!(restored.peers.len(), peers as usize);

        clock.set(ts(last as f64 + 0.5));
        let (mut tx2, rx2) = ChannelTransport::pair();
        let mut fresh = phi_monitor(rx2, &clock, shards_after);
        let import = fresh.restore(&restored.peers);
        prop_assert_eq!(import.watched, u64::from(peers));
        prop_assert_eq!(import.seeded, u64::from(peers));
        for id in 0..peers {
            let p = ProcessId::new(id);
            let a = mon.level(p).unwrap().value();
            let b = fresh.level(p).unwrap().value();
            prop_assert!((a - b).abs() < 1e-9, "peer {}: {} vs {}", id, a, b);
        }
        // Replays of each peer's highest seen sequence stay rejected.
        for (id, &b) in beats.iter().enumerate() {
            tx2.send(&frame(id as u32, b)).unwrap();
        }
        let report = fresh.tick().unwrap();
        prop_assert_eq!(report.accepted, 0);
        // The next sequence is fresh and accepted.
        for (id, &b) in beats.iter().enumerate() {
            tx2.send(&frame(id as u32, b + 1)).unwrap();
        }
        let report = fresh.tick().unwrap();
        prop_assert_eq!(report.accepted, peers as usize);
    }
}
