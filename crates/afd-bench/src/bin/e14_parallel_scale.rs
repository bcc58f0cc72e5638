//! **E14 — parallel shard-worker engine at scale: 10 000 peers.**
//!
//! A 10 000-peer workload driven
//! through the `ParallelShardEngine`'s threaded topology — one lane
//! thread decoding through the zero-allocation `FrameBatch`
//! arena (the afd-lint `no-alloc-in-hot-path` rule enforces the
//! zero-allocation claim at the source level), SPSC rings, and one
//! φ-detector worker thread per shard. Swept over worker counts:
//!
//! 1. **Pipeline throughput** — heartbeats fully absorbed into detector
//!    state per second of wall time, including each round's epoch
//!    publish (the dominant per-round worker cost, and the part that
//!    parallelizes).
//! 2. **Reader query latency** — per-query p50/p99 of lock-free
//!    `SnapshotReader::level` lookups, timed individually, while the
//!    engine is live.
//! 3. **Loss accounting** — ring evictions and channel drops must both
//!    be zero: the bench is sized so backpressure never fires, proving
//!    the counters are quiet on the happy path.
//!
//! On hosts with ≥ 4 cores the sweep asserts real scaling (4 workers ≥
//! 2× 1 worker; the relaxed `--smoke` variant asserts multi-worker is
//! at least not slower, within scheduling tolerance). Single-core hosts
//! report the numbers without asserting scaling.
//!
//! Detector time is virtual (one round = one virtual second); wall time
//! comes from `afd_runtime::SystemClock`, the sanctioned monotonic
//! entry point.

use afd_bench::experiment::{cell, Table};
use afd_core::process::ProcessId;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::phi::PhiAccrual;
use afd_runtime::{
    ChannelTransport, Clock, EngineConfig, Heartbeat, ParallelShardEngine, SystemClock, Transport,
    VirtualClock,
};

const PEERS: u32 = 10_000;

struct Sizes {
    rounds: u64,
    worker_counts: &'static [usize],
    reader_queries: usize,
}

struct Measurement {
    workers: usize,
    throughput_hb_s: f64,
    p50_query_ns: f64,
    p99_query_ns: f64,
    ring_dropped: u64,
    channel_dropped: u64,
}

fn wall(clock: &SystemClock, since: Timestamp) -> f64 {
    clock.now().saturating_duration_since(since).as_secs_f64()
}

fn frame(sender: u32, seq: u64) -> Vec<u8> {
    Heartbeat {
        sender: ProcessId::new(sender),
        seq,
        sent_at: Timestamp::from_nanos(seq),
    }
    .encode()
    .to_vec()
}

fn run_one(workers: usize, sizes: &Sizes, wall_clock: &SystemClock) -> Measurement {
    let clock = VirtualClock::new();
    let (mut tx, rx) = ChannelTransport::pair();
    let mut engine = ParallelShardEngine::new(
        rx,
        clock.clone(),
        EngineConfig {
            workers,
            slots_per_shard: (PEERS as usize).div_ceil(workers) * 2,
            // Big enough that a whole round fits even if one worker is
            // descheduled for the entire round: drops would be honest
            // backpressure, but they'd muddy the scaling comparison.
            ring_capacity: 16_384,
            // One epoch publish per virtual-second round.
            publish_every: Duration::from_millis(500),
        },
        |_| PhiAccrual::with_defaults(),
    );
    for id in 0..PEERS {
        engine
            .watch(ProcessId::new(id))
            .expect("sized for all peers");
    }
    let reader = engine.reader();
    engine.start().expect("fresh engine");

    let start = wall_clock.now();
    for round in 1..=sizes.rounds {
        clock.set(Timestamp::from_secs(round));
        for id in 0..PEERS {
            tx.send(&frame(id, round)).expect("in-process send");
        }
        // Round barrier: every frame of this round absorbed into
        // detector state before the clock moves again.
        let want = u64::from(PEERS) * round;
        while engine.stats().totals.accepted < want {
            assert!(
                wall(wall_clock, start) < 120.0,
                "engine stalled at {:?}",
                engine.stats()
            );
            std::thread::yield_now();
        }
    }
    let elapsed = wall(wall_clock, start);
    let accepted = engine.stats().totals.accepted;
    assert_eq!(accepted, u64::from(PEERS) * sizes.rounds);

    // Per-query latency distribution through the live published epoch.
    let mut lat_ns: Vec<f64> = Vec::with_capacity(sizes.reader_queries);
    for q in 0..sizes.reader_queries as u64 {
        let p = ProcessId::new((q.wrapping_mul(2_654_435_761) % u64::from(PEERS)) as u32);
        let t0 = wall_clock.now();
        let level = reader.level(p);
        lat_ns.push(wall(wall_clock, t0) * 1e9);
        assert!(level.is_some(), "every watched peer published");
    }
    lat_ns.sort_by(f64::total_cmp);
    let pct = |f: f64| lat_ns[((lat_ns.len() - 1) as f64 * f) as usize];

    let ring_dropped = engine.stats().ring_dropped;
    engine.shutdown().expect("clean worker shutdown");
    let channel_dropped = engine.transport().map_or(0, ChannelTransport::rx_dropped);

    Measurement {
        workers,
        throughput_hb_s: accepted as f64 / elapsed.max(1e-9),
        p50_query_ns: pct(0.50),
        p99_query_ns: pct(0.99),
        ring_dropped,
        channel_dropped,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes = if smoke {
        Sizes {
            rounds: 3,
            worker_counts: &[1, 4],
            reader_queries: 20_000,
        }
    } else {
        Sizes {
            rounds: 12,
            worker_counts: &[1, 2, 4, 8],
            reader_queries: 200_000,
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let wall_clock = SystemClock::new();
    let total = wall_clock.now();

    let mut table = Table::new(
        format!(
            "E14: parallel engine at {PEERS} peers, {} rounds per worker count ({cores} cores)",
            sizes.rounds
        ),
        &[
            "workers",
            "throughput (hb/s)",
            "query p50 (ns)",
            "query p99 (ns)",
            "ring drops",
            "channel drops",
        ],
    );
    let mut results = Vec::new();
    for &workers in sizes.worker_counts {
        let m = run_one(workers, &sizes, &wall_clock);
        table.push_row(vec![
            m.workers.to_string(),
            cell(m.throughput_hb_s, 0),
            cell(m.p50_query_ns, 0),
            cell(m.p99_query_ns, 0),
            m.ring_dropped.to_string(),
            m.channel_dropped.to_string(),
        ]);
        results.push(m);
    }
    println!("{table}");

    for m in &results {
        assert_eq!(m.ring_dropped, 0, "{} workers: ring overflowed", m.workers);
        assert_eq!(
            m.channel_dropped, 0,
            "{} workers: channel overflowed",
            m.workers
        );
    }

    // Scaling assertions only where the hardware can express scaling.
    let tp = |w: usize| {
        results
            .iter()
            .find(|m| m.workers == w)
            .map(|m| m.throughput_hb_s)
    };
    if cores >= 4 {
        if let (Some(one), Some(four)) = (tp(1), tp(4)) {
            if smoke {
                assert!(
                    four >= one * 0.7,
                    "4 workers slower than 1 beyond tolerance: {four:.0} vs {one:.0} hb/s"
                );
            } else {
                assert!(
                    four >= one * 2.0,
                    "4 workers under 2x of 1 worker: {four:.0} vs {one:.0} hb/s"
                );
            }
        }
    } else {
        println!("({cores} core(s): scaling assertions skipped)");
    }

    println!(
        "e14 total: {:.2} s{}",
        wall(&wall_clock, total),
        if smoke { " (smoke)" } else { "" }
    );
}
