//! Acceptance tests for the parallel shard-worker engine: equivalence of
//! the threaded executor with the inline one (`ShardedMonitor`) on
//! randomized schedules under a frozen clock, a multi-threaded chaos run
//! holding the paper's Accruement and Upper Bound properties per peer,
//! drop-oldest ring backpressure accounting, and poisoned-worker
//! detection.

#![expect(
    clippy::disallowed_methods,
    reason = "threads and sockets are polled against a wall-clock deadline, so a stall fails instead of hanging"
)]

use std::sync::{Arc, Condvar, Mutex};

use afd_core::accrual::AccrualFailureDetector;
use afd_core::history::SuspicionTrace;
use afd_core::process::ProcessId;
use afd_core::properties::{check_upper_bound, AccruementCheck};
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::phi::PhiAccrual;
use afd_detectors::simple::SimpleAccrual;
use afd_obs::Registry;
use afd_runtime::{
    ChannelTransport, Clock, EngineConfig, EngineError, EngineStats, FaultInjector, FaultPlan,
    Heartbeat, ParallelShardEngine, ShardConfig, ShardedMonitor, SnapshotReader, Transport,
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

/// One step of a randomized intake schedule (same distribution as the
/// sharded-monitor acceptance suite).
#[derive(Debug, Clone, Copy)]
enum Op {
    Send { sender: u32, seq: u64 },
    Corrupt,
    Tick { advance_ms: u32 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = proptest::FnStrategy::new(|rng: &mut TestRng| match rng.below(8) {
        0 => Op::Corrupt,
        1 | 2 => Op::Tick {
            advance_ms: 1 + rng.below(4999) as u32,
        },
        _ => Op::Send {
            sender: rng.below(6) as u32,
            seq: rng.below(8),
        },
    });
    prop::collection::vec(op, 1..120)
}

/// Frames that have reached their one outcome counter.
fn outcomes(stats: &EngineStats) -> u64 {
    let t = stats.totals;
    t.accepted + t.corrupt + t.stale + t.duplicate + t.unwatched + stats.ring_dropped
}

/// Blocks until every one of the `sent` frames is accounted for. A worker
/// stores its counters only after the publish that covers them, so the
/// published epoch then reflects all of them too.
fn drain<T, C, D>(engine: &ParallelShardEngine<T, C, D>, sent: u64)
where
    T: Transport + Send + 'static,
    C: Clock + Clone + Send + 'static,
    D: AccrualFailureDetector + Send + 'static,
{
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while outcomes(&engine.stats()) < sent {
        assert!(
            std::time::Instant::now() < deadline,
            "{sent} frames sent, engine stuck at {:?}",
            engine.stats()
        );
        std::thread::yield_now();
    }
}

proptest! {
    /// On any frame schedule and any worker count, the threaded executor
    /// is frame-for-frame equivalent to the inline one: same per-tick
    /// acceptance, same per-shard counters, same published snapshots,
    /// same lock-free point lookups — even though every heartbeat crossed
    /// an SPSC ring into a real worker thread. The clock is frozen while
    /// frames are in flight (it moves only once both sides are drained),
    /// so every refill reads the same stamp however the two split them.
    #[test]
    fn threaded_executor_reproduces_inline_executor(ops in ops(), workers in 1usize..6) {
        let clock = VirtualClock::new();
        clock.set(Timestamp::from_secs(1));

        let (mut mono_tx, mono_rx) = ChannelTransport::pair();
        let mut sharded = ShardedMonitor::new(
            mono_rx,
            clock.clone(),
            ShardConfig { shards: workers, slots_per_shard: 8 },
            |_| SimpleAccrual::new(Timestamp::ZERO),
        );
        let (mut eng_tx, eng_rx) = ChannelTransport::pair();
        let mut engine = ParallelShardEngine::new(
            eng_rx,
            clock.clone(),
            EngineConfig {
                workers,
                slots_per_shard: 8,
                ring_capacity: 1024,
                publish_every: Duration::ZERO,
            },
            |_| SimpleAccrual::new(Timestamp::ZERO),
        );

        // Watch senders 0..4; senders 4 and 5 stay unwatched.
        for id in 0..4u32 {
            sharded.watch(ProcessId::new(id)).unwrap();
            engine.watch(ProcessId::new(id)).unwrap();
        }
        let reader = engine.reader();
        engine.start().unwrap();

        let mut sent = 0u64;
        let mut engine_accepted = 0u64;
        // One tick of both executors at the current (frozen) time.
        let mut tick = |sent: u64| {
            let s = sharded.tick().unwrap();
            drain(&engine, sent);
            settle(&engine, &reader, clock.now(), workers);
            let accepted = engine.stats().totals.accepted;
            prop_assert_eq!(s.accepted as u64, accepted - engine_accepted);
            engine_accepted = accepted;
            prop_assert_eq!(sharded.reader().published_at(), reader.published_at());
            prop_assert_eq!(sharded.reader().snapshot(), reader.snapshot());
        };
        for op in ops {
            match op {
                Op::Send { sender, seq } => {
                    mono_tx.send(&frame(sender, seq)).unwrap();
                    eng_tx.send(&frame(sender, seq)).unwrap();
                    sent += 1;
                }
                Op::Corrupt => {
                    mono_tx.send(b"not a heartbeat").unwrap();
                    eng_tx.send(b"not a heartbeat").unwrap();
                    sent += 1;
                }
                Op::Tick { advance_ms } => {
                    tick(sent);
                    clock.advance(Duration::from_millis(u64::from(advance_ms)));
                }
            }
        }
        tick(sent);

        let s_stats = sharded.stats();
        let e_stats = engine.stats();
        prop_assert_eq!(s_stats.totals, e_stats.totals);
        prop_assert_eq!(s_stats.per_shard, e_stats.per_worker);
        prop_assert_eq!(s_stats.peers_per_shard, e_stats.peers_per_shard);
        prop_assert_eq!(e_stats.ring_dropped, 0, "ring never overflowed");
        prop_assert_eq!(outcomes(&e_stats), sent);

        for id in 0..6u32 {
            let p = ProcessId::new(id);
            prop_assert_eq!(sharded.reader().level(p), reader.level(p));
        }
        engine.shutdown().unwrap();
    }
}

/// Blocks until a running engine has drained everything in flight:
/// stats stable, every ring empty, and all shards published at `now`.
fn settle<T, C, D>(
    engine: &ParallelShardEngine<T, C, D>,
    reader: &SnapshotReader,
    now: Timestamp,
    workers: usize,
) where
    T: Transport + Send + 'static,
    C: afd_runtime::Clock + Clone + Send + 'static,
    D: AccrualFailureDetector + Send + 'static,
{
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut prev = engine.stats();
    let mut stable = 0u32;
    while stable < 8 {
        assert!(
            std::time::Instant::now() < deadline,
            "engine failed to settle: {prev:?}"
        );
        std::thread::yield_now();
        let cur = engine.stats();
        let registry = Registry::new();
        engine.export_metrics(&registry);
        let snap = registry.snapshot();
        let depth: f64 = (0..workers)
            .map(|i| {
                snap.gauge(&format!("engine.worker.{i}.ring_depth"))
                    .unwrap_or(0.0)
            })
            .sum();
        if cur == prev && depth == 0.0 && reader.published_at() >= now {
            stable += 1;
        } else {
            stable = 0;
            prev = cur;
        }
    }
}

/// Gilbert–Elliott bursts with mean length 4 and burst-start probability
/// 1/16: stationary loss 20 %, as in the sharded acceptance scenario.
fn bursty_loss() -> GilbertElliottLoss {
    GilbertElliottLoss::new(0.0625, 0.25, 0.0, 1.0)
}

/// The sharded chaos scenario — partition, sustained burst loss, final
/// crash — driven through the engine: real lane and worker threads
/// racing on OS scheduling, with only virtual time barriers per second.
/// Every peer's suspicion trace, read through the lock-free published
/// path, must satisfy Accruement after the crash and stay finite
/// throughout (Upper Bound).
#[test]
fn threaded_chaos_upholds_accruement_and_upper_bound_per_peer() {
    const PEERS: u32 = 32;
    const WORKERS: usize = 4;
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
    let mut engine = ParallelShardEngine::new(
        injected,
        clock.clone(),
        EngineConfig {
            workers: WORKERS,
            slots_per_shard: 16,
            ring_capacity: 1024,
            publish_every: Duration::ZERO,
        },
        |_| PhiAccrual::with_defaults(),
    );
    for id in 0..PEERS {
        engine.watch(ProcessId::new(id)).unwrap();
    }
    let reader = engine.reader();
    engine.start().unwrap();

    let mut seqs = vec![0u64; PEERS as usize];
    let mut traces: Vec<SuspicionTrace> = (0..PEERS).map(|_| SuspicionTrace::new()).collect();

    for second in 1..=RUN_UNTIL {
        clock.set(Timestamp::from_secs(second));
        if second < CRASH_AT {
            for (id, seq) in seqs.iter_mut().enumerate() {
                *seq += 1;
                tx.send(&frame(id as u32, *seq)).unwrap();
            }
        }
        settle(&engine, &reader, Timestamp::from_secs(second), WORKERS);
        let at = reader.published_at();
        for (p, level) in reader.snapshot() {
            traces[p.index()].push(at, level);
        }
    }

    engine.shutdown().unwrap();
    assert_eq!(engine.poisoned(), None);

    // The faults actually fired, and enough heartbeats survived them.
    let fstats = engine.transport().expect("stopped engine").stats();
    assert!(fstats.dropped_partition > 0, "partition inert");
    assert!(fstats.dropped_loss > 0, "burst loss inert");
    let stats = engine.stats();
    assert!(
        stats.totals.accepted > u64::from(PEERS) * 30,
        "too few heartbeats survived: {stats:?}"
    );
    assert_eq!(stats.ring_dropped, 0, "1024-slot rings never overflowed");

    let check = AccruementCheck::STRICT;
    for (id, trace) in traces.iter().enumerate() {
        assert_eq!(trace.len() as u64, RUN_UNTIL, "peer {id}: sparse trace");
        let witness = check
            .run(trace)
            .unwrap_or_else(|e| panic!("peer {id}: Accruement violated: {e}"));
        assert!(
            witness.strict_increases >= 10,
            "peer {id}: suffix too flat ({} increases)",
            witness.strict_increases
        );
        check_upper_bound(trace, None)
            .unwrap_or_else(|e| panic!("peer {id}: Upper Bound violated: {e}"));
    }
}

/// A detector whose `record_heartbeat` parks on a test-held gate: the
/// worker that owns it stalls mid-update until the test opens the gate.
struct Gated {
    inner: SimpleAccrual,
    gate: Arc<Gate>,
}

#[derive(Default)]
struct Gate {
    /// (a worker is parked at the gate, the gate is open)
    state: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl Gate {
    fn wait_until(&self, ready: impl Fn(&(bool, bool)) -> bool) {
        let mut state = self.state.lock().unwrap();
        while !ready(&state) {
            state = self.changed.wait(state).unwrap();
        }
    }

    fn set(&self, update: impl FnOnce(&mut (bool, bool))) {
        update(&mut self.state.lock().unwrap());
        self.changed.notify_all();
    }
}

impl AccrualFailureDetector for Gated {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        self.gate.set(|s| s.0 = true);
        self.gate.wait_until(|s| s.1);
        self.inner.record_heartbeat(arrival);
    }
    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        self.inner.suspicion_level(now)
    }
}

/// Drop-oldest backpressure, observed end to end: flooding a tiny ring
/// behind a stalled worker keeps exactly the newest frames, counts every
/// eviction, and leaves the detector state as if only the survivors had
/// ever been sent.
#[test]
fn ring_overflow_drops_oldest_and_counts() {
    let clock = VirtualClock::new();
    let (mut tx, rx) = ChannelTransport::pair();
    let gate = Arc::new(Gate::default());
    let factory_gate = Arc::clone(&gate);
    let mut engine = ParallelShardEngine::new(
        rx,
        clock.clone(),
        EngineConfig {
            workers: 1,
            slots_per_shard: 4,
            ring_capacity: 8,
            publish_every: Duration::ZERO,
        },
        move |_| Gated {
            inner: SimpleAccrual::new(Timestamp::ZERO),
            gate: Arc::clone(&factory_gate),
        },
    );
    engine.watch(ProcessId::new(7)).unwrap();
    engine.start().unwrap();

    // A primer frame parks the worker inside `record_heartbeat`, its
    // ring already popped empty.
    clock.set(Timestamp::from_secs(1));
    tx.send(&frame(7, 0)).unwrap();
    gate.wait_until(|s| s.0);

    // 40 frames reach the lane; the stalled worker can't drain, so the
    // 8-slot ring must evict the 32 oldest.
    for seq in 1..=40u64 {
        tx.send(&frame(7, seq)).unwrap();
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while engine.stats().intake_frames < 41 {
        assert!(std::time::Instant::now() < deadline, "lane stalled");
        std::thread::yield_now();
    }
    assert_eq!(engine.stats().ring_dropped, 32);
    assert_eq!(engine.stats().totals.accepted, 0, "worker still parked");

    gate.set(|s| s.1 = true);
    drain(&engine, 41);
    let stats = engine.stats();
    assert_eq!(stats.ring_dropped, 32);
    assert_eq!(
        stats.totals.accepted, 9,
        "the primer plus only the newest ring-capacity frames"
    );
    assert_eq!(stats.totals.stale, 0);

    // Proof the *newest* frames survived: seq 36 is now a stale replay.
    tx.send(&frame(7, 36)).unwrap();
    drain(&engine, 42);
    assert_eq!(
        engine.stats().totals.stale,
        1,
        "seq 36 must already be seen"
    );

    // The drop counter survives shutdown (rings are torn down).
    engine.shutdown().unwrap();
    assert_eq!(engine.stats().ring_dropped, 32);
}

/// A detector that panics on a magic arrival time — stands in for any
/// bug inside a worker thread.
struct Exploding {
    inner: SimpleAccrual,
}

const POISON_AT: Timestamp = Timestamp::from_secs(666);

impl AccrualFailureDetector for Exploding {
    fn record_heartbeat(&mut self, arrival: Timestamp) {
        assert_ne!(arrival, POISON_AT, "injected worker fault");
        self.inner.record_heartbeat(arrival);
    }
    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {
        self.inner.suspicion_level(now)
    }
}

fn poison_rig() -> (
    ChannelTransport,
    ParallelShardEngine<ChannelTransport, VirtualClock, Exploding>,
    VirtualClock,
    usize,
) {
    let clock = VirtualClock::new();
    let (tx, rx) = ChannelTransport::pair();
    let mut engine = ParallelShardEngine::new(
        rx,
        clock.clone(),
        EngineConfig {
            workers: 2,
            publish_every: Duration::ZERO,
            ..EngineConfig::default()
        },
        |_| Exploding {
            inner: SimpleAccrual::new(Timestamp::ZERO),
        },
    );
    engine.watch(ProcessId::new(0)).unwrap();
    let victim = engine.shard_of(ProcessId::new(0));
    (tx, engine, clock, victim)
}

/// A worker panic trips the per-worker panic flag (the watchdog-facing
/// signal) without anyone blocking on a join; shutdown then reports the
/// casualty as a typed error instead of a deadlock, and the engine stays
/// terminally failed.
#[test]
fn worker_panic_raises_the_poison_flag_and_fails_the_engine() {
    let (mut tx, mut engine, clock, victim) = poison_rig();
    engine.start().unwrap();

    clock.set(POISON_AT);
    tx.send(&frame(0, 1)).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while engine.poisoned().is_none() {
        assert!(std::time::Instant::now() < deadline, "panic never surfaced");
        std::thread::yield_now();
    }
    assert_eq!(engine.poisoned(), Some(victim));

    // Shutdown reports the casualty; the engine is then terminally
    // failed (the dead worker's detector state is unrecoverable).
    assert_eq!(
        engine.shutdown(),
        Err(EngineError::WorkerPanicked { worker: victim })
    );
    assert_eq!(engine.poisoned(), Some(victim));
    assert!(matches!(
        engine.watch(ProcessId::new(9)),
        Err(EngineError::WorkerPanicked { .. })
    ));
}
