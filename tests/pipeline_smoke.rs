//! Tier-1 smoke test of the monitor pipeline, through the `accrual_fd`
//! facade: one seeded wire-v2 frame schedule — fresh, duplicate, stale,
//! unwatched and corrupt frames — goes to the inline executor
//! (`ShardedMonitor`) and to the threaded one (a 2-worker
//! `ParallelShardEngine`). Both must account for every frame in exactly
//! one outcome counter and publish identical reader snapshots. A second
//! case takes the inline executor through a change of membership into
//! reused slots, the lock-free read side, a checkpoint and a restore.

use accrual_fd::prelude::*;
use accrual_fd::runtime::{
    ChannelTransport, CheckpointConfig, Checkpointer, DeltaEncoder, EngineConfig, Heartbeat,
    MemSink, MonitorStats, ParallelShardEngine, VirtualClock, MAX_V2_FRAME,
};

const SENDERS: u32 = 5;
/// Senders `0..WATCHED` are watched; the rest stay strangers.
const WATCHED: u32 = 4;
const ROUNDS: u64 = 8;
const FRAMES_PER_ROUND: usize = 40;

/// xorshift64*: a seeded schedule without a dev-dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % n
    }
}

/// One sender's v2 encoder plus every frame it has emitted so far, for
/// duplicate and stale replays.
struct Sender {
    id: u32,
    encoder: DeltaEncoder,
    seq: u64,
    history: Vec<Vec<u8>>,
}

impl Sender {
    fn new(id: u32) -> Self {
        Sender {
            id,
            // Never resyncs within the run: every replayed delta still
            // decodes against the one intern frame.
            encoder: DeltaEncoder::new(
                ProcessId::new(id),
                id,
                std::time::Duration::from_secs(1),
                u32::MAX,
            ),
            seq: 0,
            history: Vec::new(),
        }
    }

    fn fresh(&mut self) -> Vec<u8> {
        self.seq += 1;
        let hb = Heartbeat {
            sender: ProcessId::new(self.id),
            seq: self.seq,
            sent_at: Timestamp::from_secs(self.seq),
        };
        let mut buf = [0u8; MAX_V2_FRAME];
        let n = self.encoder.encode(&hb, &mut buf);
        self.history.push(buf[..n].to_vec());
        buf[..n].to_vec()
    }

    /// The next frame of the schedule: mostly fresh, else a replay of
    /// the newest frame (duplicate), of an older delta (stale), or a
    /// frame with a flipped byte (corrupt).
    fn next(&mut self, rng: &mut Rng) -> Vec<u8> {
        match rng.below(8) {
            0 if !self.history.is_empty() => self.history[self.history.len() - 1].clone(),
            // Index 0 is the intern frame; replay deltas only.
            1 if self.history.len() > 2 => {
                let older = 1 + rng.below(self.history.len() as u64 - 2) as usize;
                self.history[older].clone()
            }
            2 => {
                let mut frame = self.fresh();
                let at = rng.below(frame.len() as u64) as usize;
                frame[at] ^= 0xFF;
                frame
            }
            _ => self.fresh(),
        }
    }
}

fn outcomes(s: MonitorStats) -> u64 {
    s.accepted + s.corrupt + s.stale + s.duplicate + s.unwatched
}

#[test]
fn inline_and_threaded_executors_agree_on_a_seeded_v2_schedule() {
    let clock = VirtualClock::new();
    let (mut inline_tx, inline_rx) = ChannelTransport::pair();
    let mut inline = ShardedMonitor::new(
        inline_rx,
        clock.clone(),
        ShardConfig {
            shards: 2,
            slots_per_shard: 8,
        },
        |_| PhiAccrual::with_defaults(),
    );
    let (mut engine_tx, engine_rx) = ChannelTransport::pair();
    let mut engine = ParallelShardEngine::new(
        engine_rx,
        clock.clone(),
        EngineConfig {
            workers: 2,
            slots_per_shard: 8,
            publish_every: Duration::ZERO,
            ..EngineConfig::default()
        },
        |_| PhiAccrual::with_defaults(),
    );
    for id in 0..WATCHED {
        inline.watch(ProcessId::new(id)).unwrap();
        engine.watch(ProcessId::new(id)).unwrap();
    }
    let reader = engine.reader();
    engine.start().unwrap();

    let mut rng = Rng(0x5EED_AFD5);
    let mut senders: Vec<Sender> = (0..SENDERS).map(Sender::new).collect();
    let mut sent = 0u64;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    for round in 1..=ROUNDS {
        // The clock moves only while both executors are drained, so every
        // refill reads the same stamp however the two split them.
        let now = Timestamp::from_secs(round);
        clock.set(now);
        for _ in 0..FRAMES_PER_ROUND {
            let sender = rng.below(u64::from(SENDERS)) as usize;
            let frame = senders[sender].next(&mut rng);
            inline_tx.send(&frame).unwrap();
            engine_tx.send(&frame).unwrap();
            sent += 1;
        }
        inline.tick().unwrap();
        // A worker stores its counters only after the publish covering
        // them; shards that got nothing this round republish on their own.
        while outcomes(engine.stats().totals) < sent || reader.published_at() < now {
            assert!(
                std::time::Instant::now() < deadline,
                "engine stuck at {:?}",
                engine.stats()
            );
            std::thread::yield_now();
        }
        assert_eq!(
            inline.reader().snapshot(),
            reader.snapshot(),
            "round {round}"
        );
    }
    engine.shutdown().unwrap();

    let inline_stats = inline.stats().totals;
    let engine_stats = engine.stats();
    assert_eq!(outcomes(inline_stats), sent, "{inline_stats:?}");
    assert_eq!(outcomes(engine_stats.totals), sent, "{engine_stats:?}");
    assert_eq!(engine_stats.ring_dropped, 0);
    assert_eq!(inline_stats, engine_stats.totals);
    // The schedule really exercised every outcome.
    for (name, count) in [
        ("accepted", inline_stats.accepted),
        ("duplicate", inline_stats.duplicate),
        ("stale", inline_stats.stale),
        ("unwatched", inline_stats.unwatched),
        ("corrupt", inline_stats.corrupt),
    ] {
        assert!(
            count > 0,
            "no {name} frame in the schedule: {inline_stats:?}"
        );
    }
    assert_eq!(inline.reader().snapshot(), engine.reader().snapshot());
    assert_eq!(reader.snapshot().len(), WATCHED as usize);
}

type PhiMonitor = ShardedMonitor<ChannelTransport, VirtualClock, PhiAccrual>;

fn phi_monitor(clock: &VirtualClock, config: ShardConfig) -> (ChannelTransport, PhiMonitor) {
    let (tx, rx) = ChannelTransport::pair();
    let mon = ShardedMonitor::new(rx, clock.clone(), config, |_| PhiAccrual::with_defaults());
    (tx, mon)
}

/// A plain (wire v1) heartbeat frame.
fn plain_frame(id: u32, seq: u64) -> Vec<u8> {
    let hb = Heartbeat {
        sender: ProcessId::new(id),
        seq,
        sent_at: Timestamp::from_secs(seq),
    };
    hb.encode().to_vec()
}

/// One second of the run: every id in `ids` sends heartbeat number
/// `second`, spread over its first quarter in `ids` order, and the
/// monitor ticks after each.
fn beat(
    clock: &VirtualClock,
    tx: &mut ChannelTransport,
    mon: &mut PhiMonitor,
    ids: &[u32],
    second: u64,
) {
    for (k, &id) in ids.iter().enumerate() {
        clock.set(Timestamp::from_millis(
            second * 1000 + 250 * k as u64 / ids.len() as u64,
        ));
        tx.send(&plain_frame(id, second)).unwrap();
        mon.tick().unwrap();
    }
}

#[test]
fn reused_slots_serve_readers_and_survive_a_checkpoint_into_other_shards() {
    let clock = VirtualClock::new();
    // Both shards get filled to the last slot, so that a later watch can
    // only succeed in a slot an unwatch vacated.
    let tight = ShardConfig {
        shards: 2,
        slots_per_shard: 4,
    };
    let (mut tx, mut mon) = phi_monitor(&clock, tight);
    let mut ids: Vec<u32> = Vec::new();
    let mut next_id = 0u32;
    while ids.len() < 8 {
        if mon.watch(ProcessId::new(next_id)).is_ok() {
            ids.push(next_id);
        }
        next_id += 1;
    }
    for second in 1..=12 {
        beat(&clock, &mut tx, &mut mon, &ids, second);
    }

    // In each shard one peer leaves and a fresh id takes over its slot.
    let reader = mon.reader();
    let mut gone = Vec::new();
    for shard in 0..2 {
        let at = ids
            .iter()
            .position(|&id| mon.shard_of(ProcessId::new(id)) == shard)
            .unwrap();
        let old = ids.remove(at);
        while mon.shard_of(ProcessId::new(next_id)) != shard {
            next_id += 1;
        }
        assert!(mon.watch(ProcessId::new(next_id)).is_err(), "shard is full");
        assert!(mon.unwatch(ProcessId::new(old)).is_some());
        assert_eq!(mon.watch(ProcessId::new(next_id)), Ok(true));
        // From the unwatch on, and until a publish: nobody answers here.
        assert_eq!(reader.level(ProcessId::new(old)), None);
        assert_eq!(reader.level(ProcessId::new(next_id)), None);
        ids.push(next_id);
        gone.push(old);
        next_id += 1;
    }
    for second in 13..=24 {
        beat(&clock, &mut tx, &mut mon, &ids, second);
    }

    // At the publish instant the lock-free side and the detectors agree.
    clock.set(Timestamp::from_millis(24_700));
    mon.tick().unwrap();
    let exact = mon.snapshot();
    assert_eq!(reader.snapshot(), exact);
    assert!(exact.windows(2).all(|w| w[0].0 < w[1].0), "ascending ids");
    let mut watched = ids.clone();
    watched.sort_unstable();
    let published: Vec<u32> = exact.iter().map(|r| r.0.as_u32()).collect();
    assert_eq!(published, watched, "no vacant row, no unwatched id");
    for &id in &ids {
        let p = ProcessId::new(id);
        assert_eq!(reader.level(p), mon.level(p), "peer {id}");
    }
    for &id in &gone {
        assert_eq!(reader.level(ProcessId::new(id)), None);
    }

    // Checkpoint, then restore into a monitor with another shard count.
    let mut ckpt = Checkpointer::new(MemSink::new(), CheckpointConfig::default());
    assert_eq!(mon.checkpoint(&mut ckpt).unwrap().peers, ids.len());
    let restored = ckpt.restore(&clock).unwrap();
    let roomy = ShardConfig {
        shards: 3,
        slots_per_shard: 8,
    };
    let (mut tx2, mut twin) = phi_monitor(&clock, roomy);
    let import = twin.restore(&restored.peers);
    assert_eq!(import.watched, ids.len() as u64);
    assert_eq!(import.capacity_rejected, 0);
    clock.set(Timestamp::from_millis(25_400));
    for &id in &ids {
        let p = ProcessId::new(id);
        let (was, is) = (mon.level(p).unwrap(), twin.level(p).unwrap());
        assert!(
            (was.value() - is.value()).abs() <= 1e-9,
            "peer {id}: {was:?} vs {is:?}"
        );
        assert_eq!(
            twin.reader().level(p).map(|l| l.value().is_finite()),
            Some(true)
        );
    }
    // The restored watermarks still reject what was already seen.
    for &id in &ids {
        for seq in [24, 20, 25] {
            tx2.send(&plain_frame(id, seq)).unwrap();
        }
    }
    assert_eq!(twin.tick().unwrap().accepted, ids.len());
    let stats = twin.stats().totals;
    let n = ids.len() as u64;
    assert_eq!((stats.duplicate, stats.stale, stats.accepted), (n, n, n));
}
