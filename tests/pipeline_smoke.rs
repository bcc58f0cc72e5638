//! Tier-1 smoke test of the monitor pipeline, through the `accrual_fd`
//! facade: one seeded wire-v2 frame schedule — fresh, duplicate, stale,
//! unwatched and corrupt frames — goes to the inline executor
//! (`ShardedMonitor`) and to the threaded one (a 2-worker
//! `ParallelShardEngine`). Both must account for every frame in exactly
//! one outcome counter and publish identical reader snapshots.

use accrual_fd::prelude::*;
use accrual_fd::runtime::{
    ChannelTransport, DeltaEncoder, EngineConfig, Heartbeat, MonitorStats, ParallelShardEngine,
    VirtualClock, MAX_V2_FRAME,
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
        // The clock moves only while both executors are drained, so the
        // lane's per-batch stamps equal the inline per-frame stamps.
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
