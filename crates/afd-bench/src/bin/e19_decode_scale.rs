//! **E19 — decode fast-path scaling: the flat intern slab under sweep.**
//!
//! The `WireDecoder`'s intern table is a dense, generation-tagged
//! `InternSlab` with a last-entry hot cache, arrival clocks are read
//! once per batch, and lane routing publishes per-destination groups
//! through `push_batch`. This bench times the shipping decoder and
//! profiles the batched pipeline end to end:
//!
//! **Part A — decode microbench.** The decoder consumes pre-encoded
//! streams swept over wire mix (pure v1, 50/50 mixed, pure v2) ×
//! intern-table occupancy (25% / 100% of capacity) × arrival ordering
//! (peers interleaved round-robin — the e18 sender-process pattern,
//! hot-cache hostile — or per-peer bursts, the paced-sender pattern the
//! hot cache is built for). Reported as ns/frame per config.
//! `tests/intern_equiv.rs` holds the slab to a map-backed oracle.
//!
//! **Part B — engine lane sweep.** A `ParallelShardEngine` in
//! multi-lane mode drains the same peer population through 1/2/4
//! `ChannelTransport` lanes (pre-filled losslessly at exact bounded
//! capacity), recording the per-stage wall profile — decode, ring
//! route, detector update — as ns/frame with batch stamping and
//! grouped `push_batch` publish live.

use afd_bench::experiment::{cell, Table};
use afd_core::process::ProcessId;
use afd_core::time::Timestamp;
use afd_detectors::simple::SimpleAccrual;
use afd_runtime::{
    ChannelTransport, Clock, DeltaEncoder, EngineConfig, Heartbeat, MultiUdpTransport,
    NullTransport, ParallelShardEngine, SystemClock, Transport, WireDecoder, MAX_V2_FRAME,
};

const RESYNC_EVERY: u32 = 64;
const WORKERS: usize = 4;
const LANE_SWEEP: [usize; 3] = [1, 2, 4];

struct Sizes {
    peers: u32,
    rounds: u64,
    /// Part B re-drives this many peers through the engine per lane
    /// count; stage costs are per-frame, so smoke scale suffices.
    engine_peers: u32,
    engine_rounds: u64,
}

fn wall(clock: &SystemClock, since: Timestamp) -> f64 {
    clock.now().saturating_duration_since(since).as_secs_f64()
}

// ---- Part A: stream construction and the decode sweep ----

#[derive(Clone, Copy)]
enum Mix {
    V1,
    Mixed,
    V2,
}

#[derive(Clone, Copy)]
enum Ordering {
    /// Round-robin over peers: consecutive frames are different senders
    /// (the e18 sender-process pattern, hot-cache hostile).
    Interleaved,
    /// All of one peer's frames back to back (the paced-burst pattern
    /// the hot cache is built for).
    Burst,
}

/// A pre-encoded frame stream: one arena, frame bounds alongside.
struct Stream {
    arena: Vec<u8>,
    bounds: Vec<(u32, u32)>,
}

impl Stream {
    fn frames(&self) -> impl Iterator<Item = &[u8]> {
        self.bounds
            .iter()
            .map(|&(at, len)| &self.arena[at as usize..(at + len) as usize])
    }
}

fn peer_uses_v2(mix: Mix, id: u32) -> bool {
    match mix {
        Mix::V1 => false,
        Mix::Mixed => id.is_multiple_of(2),
        Mix::V2 => true,
    }
}

fn heartbeat(id: u32, round: u64) -> Heartbeat {
    Heartbeat {
        sender: ProcessId::new(id),
        seq: round,
        sent_at: Timestamp::from_nanos(round * 1_000_000_000 + u64::from(id)),
    }
}

/// Encodes `active` peers × `rounds` heartbeats in the given ordering.
/// v2 peers carry encoder state across rounds (intern frame first, then
/// minimal-width deltas), exactly like the live senders.
fn build_stream(mix: Mix, ordering: Ordering, active: u32, rounds: u64) -> Stream {
    let mut arena = Vec::with_capacity(active as usize * rounds as usize * 16);
    let mut bounds = Vec::with_capacity(active as usize * rounds as usize);
    let mut buf = [0u8; MAX_V2_FRAME];
    let mut push = |arena: &mut Vec<u8>, frame: &[u8]| {
        bounds.push((arena.len() as u32, frame.len() as u32));
        arena.extend_from_slice(frame);
    };
    match ordering {
        Ordering::Burst => {
            for id in 0..active {
                if peer_uses_v2(mix, id) {
                    let mut enc = DeltaEncoder::new(
                        ProcessId::new(id),
                        id,
                        std::time::Duration::from_secs(1),
                        RESYNC_EVERY,
                    );
                    for round in 1..=rounds {
                        let n = enc.encode(&heartbeat(id, round), &mut buf);
                        push(&mut arena, &buf[..n]);
                    }
                } else {
                    for round in 1..=rounds {
                        push(&mut arena, &heartbeat(id, round).encode());
                    }
                }
            }
        }
        Ordering::Interleaved => {
            let mut encoders: Vec<Option<DeltaEncoder>> = (0..active)
                .map(|id| {
                    peer_uses_v2(mix, id).then(|| {
                        DeltaEncoder::new(
                            ProcessId::new(id),
                            id,
                            std::time::Duration::from_secs(1),
                            RESYNC_EVERY,
                        )
                    })
                })
                .collect();
            for round in 1..=rounds {
                for id in 0..active {
                    match &mut encoders[id as usize] {
                        Some(enc) => {
                            let n = enc.encode(&heartbeat(id, round), &mut buf);
                            push(&mut arena, &buf[..n]);
                        }
                        None => push(&mut arena, &heartbeat(id, round).encode()),
                    }
                }
            }
        }
    }
    Stream { arena, bounds }
}

/// Times the decoder over `stream`, returning `(frames, ns/frame)`; a
/// clean stream must be accepted whole, with no intern turned away.
fn time_decode(clock: &SystemClock, stream: &Stream, capacity: usize) -> f64 {
    // Warm the arena so the timed pass isn't charged for paging the
    // stream in.
    let mut warm = 0u64;
    for frame in stream.frames() {
        warm = warm.wrapping_add(u64::from(*frame.last().expect("non-empty frame")));
    }
    std::hint::black_box(warm);

    let mut decoder = WireDecoder::with_capacity(capacity);
    let t0 = clock.now();
    let mut ok = 0u64;
    for frame in stream.frames() {
        if std::hint::black_box(decoder.decode(frame)).is_ok() {
            ok += 1;
        }
    }
    let elapsed = wall(clock, t0);

    let frames = stream.bounds.len() as u64;
    assert_eq!(ok, frames, "clean stream fully accepted");
    assert_eq!(decoder.interns_rejected(), 0, "table sized for every peer");
    elapsed * 1e9 / frames as f64
}

// ---- Part B: engine lane sweep over pre-filled channel lanes ----

struct LaneRun {
    lanes: usize,
    sent: u64,
    accepted: u64,
    throughput: f64,
    decode_ns_per_frame: f64,
    route_ns_per_frame: f64,
    update_ns_per_frame: f64,
}

fn lane_run(clock: &SystemClock, lanes_n: usize, peers: u32, rounds: u64) -> LaneRun {
    let mut engine = ParallelShardEngine::new(
        NullTransport,
        SystemClock::new(),
        EngineConfig {
            workers: WORKERS,
            slots_per_shard: (peers as usize).div_ceil(WORKERS) * 2,
            ring_capacity: 16_384,
            publish_every: afd_core::time::Duration::from_millis(5),
        },
        |_| SimpleAccrual::new(Timestamp::ZERO),
    );
    for id in 0..peers {
        engine
            .watch(ProcessId::new(id))
            .expect("sized for all peers");
    }

    // Pre-fill each lane's channel, bounded at the full stream size
    // (lane hashing is not perfectly even): lossless, so intake_frames
    // reaching `sent` is the complete-drain signal.
    let bound = (u64::from(peers) * rounds) as usize;
    let mut feeds = Vec::with_capacity(lanes_n);
    let mut lanes = Vec::with_capacity(lanes_n);
    for _ in 0..lanes_n {
        let (feed, lane) = ChannelTransport::pair_bounded(bound);
        feeds.push(feed);
        lanes.push(lane);
    }
    let mut encoders: Vec<DeltaEncoder> = (0..peers)
        .map(|id| {
            DeltaEncoder::new(
                ProcessId::new(id),
                id,
                std::time::Duration::from_secs(1),
                RESYNC_EVERY,
            )
        })
        .collect();
    let mut buf = [0u8; MAX_V2_FRAME];
    let mut sent = 0u64;
    for round in 1..=rounds {
        for id in 0..peers {
            let n = encoders[id as usize].encode(&heartbeat(id, round), &mut buf);
            let lane = MultiUdpTransport::lane_for(id, lanes_n);
            feeds[lane].send(&buf[..n]).expect("pre-filled under cap");
            sent += 1;
        }
    }
    for feed in &feeds {
        assert_eq!(feed.tx_dropped(), 0, "lane feed sized for full stream");
    }

    let start = clock.now();
    engine.start_lanes(lanes).expect("fresh engine");
    while engine.stats().intake_frames < sent {
        assert!(
            wall(clock, start) < 120.0,
            "lane drain stalled at {:?}",
            engine.stats()
        );
        // Quiescence polling against live intake threads.
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let elapsed = wall(clock, start);
    engine.shutdown().expect("clean shutdown");
    let stats = engine.stats();
    let accepted = stats.totals.accepted;
    assert_eq!(stats.intake_frames, sent, "every frame decoded");
    assert!(accepted > 0, "no heartbeats absorbed");
    LaneRun {
        lanes: lanes_n,
        sent,
        accepted,
        throughput: accepted as f64 / elapsed.max(1e-9),
        decode_ns_per_frame: stats.stage.decode as f64 / sent as f64,
        route_ns_per_frame: stats.stage.route as f64 / sent as f64,
        update_ns_per_frame: stats.stage.update as f64 / accepted as f64,
    }
}

fn mix_name(mix: Mix) -> &'static str {
    match mix {
        Mix::V1 => "v1",
        Mix::Mixed => "mixed",
        Mix::V2 => "v2",
    }
}

fn ordering_name(ordering: Ordering) -> &'static str {
    match ordering {
        Ordering::Interleaved => "interleaved",
        Ordering::Burst => "burst",
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes = if smoke {
        Sizes {
            peers: 100_000,
            rounds: 4,
            engine_peers: 50_000,
            engine_rounds: 3,
        }
    } else {
        Sizes {
            peers: 1_000_000,
            rounds: 4,
            engine_peers: 100_000,
            engine_rounds: 4,
        }
    };
    let clock = SystemClock::new();
    let total = clock.now();

    // Part A: the decode sweep. Capacity is the full peer population;
    // occupancy scales how many peers actually send.
    let configs = [
        (Mix::V1, Ordering::Interleaved),
        (Mix::Mixed, Ordering::Interleaved),
        (Mix::V2, Ordering::Interleaved),
        (Mix::V2, Ordering::Burst),
    ];
    let occupancies = [0.25, 1.0];
    let mut table = Table::new(
        format!(
            "E19 part A: slab decode, {} peers x {} rounds",
            sizes.peers, sizes.rounds
        ),
        &["mix", "ordering", "occupancy", "ns/frame"],
    );
    for &(mix, ordering) in &configs {
        for &occupancy in &occupancies {
            let active = ((f64::from(sizes.peers) * occupancy) as u32).max(1);
            let stream = build_stream(mix, ordering, active, sizes.rounds);
            let ns_per_frame = time_decode(&clock, &stream, sizes.peers as usize);
            table.push_row(vec![
                mix_name(mix).into(),
                ordering_name(ordering).into(),
                cell(occupancy, 2),
                cell(ns_per_frame, 1),
            ]);
        }
    }
    println!("{table}");

    // Part B: the engine lane sweep with batch stamping + push_batch.
    let mut lane_table = Table::new(
        format!(
            "E19 part B: {} peers x {} rounds through channel lanes",
            sizes.engine_peers, sizes.engine_rounds
        ),
        &[
            "lanes",
            "sent",
            "accepted",
            "hb/s",
            "decode ns/f",
            "route ns/f",
            "update ns/f",
        ],
    );
    for &lanes_n in &LANE_SWEEP {
        let run = lane_run(&clock, lanes_n, sizes.engine_peers, sizes.engine_rounds);
        lane_table.push_row(vec![
            run.lanes.to_string(),
            run.sent.to_string(),
            run.accepted.to_string(),
            cell(run.throughput, 0),
            cell(run.decode_ns_per_frame, 1),
            cell(run.route_ns_per_frame, 1),
            cell(run.update_ns_per_frame, 1),
        ]);
    }
    println!("{lane_table}");

    println!(
        "e19 total: {:.2} s{}",
        wall(&clock, total),
        if smoke { " (smoke)" } else { "" }
    );
}
