//! **E18 — million-peer UDP datapath soak over real loopback sockets.**
//!
//! Every other experiment drives in-process transports; this one puts
//! real datagrams on the wire. The parent process runs a
//! `ParallelShardEngine` in multi-lane mode — a `MultiUdpTransport`
//! fans heartbeat intake across several bound UDP sockets, one intake
//! thread per lane, lane×worker SPSC rings, one detector worker per
//! shard — and forks **sender child processes** (via
//! `std::env::current_exe()` re-entered with `--sender`) that blast the
//! compact v2 delta wire format at the lanes over loopback.
//!
//! Reported per run:
//!
//! 1. **Sustained throughput** — heartbeats absorbed into detector
//!    state per second of wall time, with the delivery ratio against
//!    what the children actually sent (UDP loss is part of the model:
//!    accrual detectors are *defined* over lossy channels, so drops are
//!    reported, not asserted away).
//! 2. **Per-stage profile** — cumulative wall-clock nanoseconds in wire
//!    decode vs ring route (lane intake threads) vs detector update
//!    (workers), the split that finds the datapath's real bottleneck.
//! 3. **Wire compression** — bytes per heartbeat on the wire vs the
//!    fixed 28-byte v1 frame, from the children's byte counts.
//! 4. **Reader latency** — p50/p99 of lock-free `SnapshotReader::level`
//!    queries against the live engine.
//! 5. **Loss accounting** — short and oversize datagram drops, ring
//!    evictions.
//!
//! Detectors are `SimpleAccrual` (O(1) state per peer) so the full run
//! holds a million peers in memory; the soak exercises the datapath,
//! not the estimator. Smoke mode sustains 100 000 peers for CI.

use std::net::SocketAddr;

use afd_bench::experiment::{cell, Table};
use afd_core::process::ProcessId;
use afd_core::time::Timestamp;
use afd_detectors::simple::SimpleAccrual;
use afd_runtime::{
    Clock, DeltaEncoder, EngineConfig, Heartbeat, MultiUdpTransport, NullTransport,
    ParallelShardEngine, SystemClock, MAX_V2_FRAME,
};

const LANES: usize = 4;
const WORKERS: usize = 4;
const SENDER_PROCS: u32 = 4;
const RESYNC_EVERY: u32 = 64;
/// Children pause briefly every `BURST` datagrams so the kernel's
/// per-socket receive buffers (a few hundred small datagrams deep)
/// don't overflow wholesale between intake drains. Sized so that even
/// aligned bursts from every child fit one lane's default rcvbuf.
const BURST: u64 = 192;

struct Sizes {
    peers: u32,
    rounds: u64,
    reader_queries: usize,
    /// Per-child pause between bursts. The full run sends 20x the smoke
    /// volume; pacing it down keeps single-digit-core hosts from
    /// drowning the intake side in kernel-buffer drops (the point is a
    /// sustained soak, not a drop-rate contest).
    child_pause_us: u64,
}

fn wall(clock: &SystemClock, since: Timestamp) -> f64 {
    clock.now().saturating_duration_since(since).as_secs_f64()
}

/// Child mode: encode `rounds` v2 heartbeats for each peer id in
/// `[id_start, id_start + id_count)` and send them at the lane each id
/// hashes to. Prints a single `bytes=<n> sent=<n>` line for the parent.
fn run_sender(args: &[String]) {
    let addrs: Vec<SocketAddr> = args[0]
        .split(',')
        .map(|s| s.parse().expect("lane addr"))
        .collect();
    let id_start: u32 = args[1].parse().expect("id_start");
    let id_count: u32 = args[2].parse().expect("id_count");
    let rounds: u64 = args[3].parse().expect("rounds");
    let pause_us: u64 = args[4].parse().expect("pause_us");
    let sock = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind sender socket");
    let mut encoders: Vec<DeltaEncoder> = (0..id_count)
        .map(|i| {
            DeltaEncoder::new(
                ProcessId::new(id_start + i),
                id_start + i,
                std::time::Duration::from_secs(1),
                RESYNC_EVERY,
            )
        })
        .collect();
    let mut bytes = 0u64;
    let mut sent = 0u64;
    let mut buf = [0u8; MAX_V2_FRAME];
    for round in 1..=rounds {
        for i in 0..id_count {
            let id = id_start + i;
            let hb = Heartbeat {
                sender: ProcessId::new(id),
                seq: round,
                // On the nominal 1 s schedule, offset per peer: deltas
                // stay at their minimal width.
                sent_at: Timestamp::from_nanos(round * 1_000_000_000 + u64::from(id)),
            };
            let n = encoders[i as usize].encode(&hb, &mut buf);
            assert!(n > 0, "encoder always fits MAX_V2_FRAME");
            let lane = MultiUdpTransport::lane_for(id, addrs.len());
            sock.send_to(&buf[..n], addrs[lane]).expect("loopback send");
            bytes += n as u64;
            sent += 1;
            if sent.is_multiple_of(BURST) {
                // Cross-process pacing in a bench child.
                std::thread::sleep(std::time::Duration::from_micros(pause_us));
            }
        }
    }
    println!("bytes={bytes} sent={sent}");
}

struct ChildReport {
    bytes: u64,
    sent: u64,
}

fn parse_child(stdout: &str) -> ChildReport {
    let mut bytes = None;
    let mut sent = None;
    for tok in stdout.split_whitespace() {
        if let Some(v) = tok.strip_prefix("bytes=") {
            bytes = v.parse().ok();
        }
        if let Some(v) = tok.strip_prefix("sent=") {
            sent = v.parse().ok();
        }
    }
    ChildReport {
        bytes: bytes.expect("child printed bytes="),
        sent: sent.expect("child printed sent="),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--sender") {
        run_sender(&args[pos + 1..]);
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let sizes = if smoke {
        Sizes {
            peers: 100_000,
            rounds: 3,
            reader_queries: 20_000,
            child_pause_us: 1_000,
        }
    } else {
        Sizes {
            peers: 1_000_000,
            rounds: 6,
            reader_queries: 100_000,
            child_pause_us: if cores >= 8 { 1_000 } else { 6_000 },
        }
    };
    let wall_clock = SystemClock::new();
    let total = wall_clock.now();

    // Engine on the system clock: stage profiles and arrival stamps are
    // real wall time. Its own transport is a parked NullTransport — all
    // heartbeats arrive on the lanes.
    let mut engine = ParallelShardEngine::new(
        NullTransport,
        SystemClock::new(),
        EngineConfig {
            workers: WORKERS,
            slots_per_shard: (sizes.peers as usize).div_ceil(WORKERS) * 2,
            ring_capacity: 16_384,
            publish_every: afd_core::time::Duration::from_millis(5),
        },
        |_| SimpleAccrual::new(Timestamp::ZERO),
    );
    for id in 0..sizes.peers {
        engine
            .watch(ProcessId::new(id))
            .expect("sized for all peers");
    }
    let reader = engine.reader();

    let multi = MultiUdpTransport::bind("127.0.0.1:0".parse().expect("loopback"), LANES)
        .expect("bind lanes");
    let udp_stats = multi.stats();
    let addrs = multi.local_addrs().expect("lane addrs");
    let addr_csv = addrs
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    engine
        .start_lanes(multi.into_lanes())
        .expect("fresh engine");

    let start = wall_clock.now();
    let exe = std::env::current_exe().expect("own binary path");
    let per_child = sizes.peers.div_ceil(SENDER_PROCS);
    let children: Vec<std::process::Child> = (0..SENDER_PROCS)
        .map(|c| {
            let id_start = c * per_child;
            let id_count = per_child.min(sizes.peers - id_start);
            std::process::Command::new(&exe)
                .arg("--sender")
                .arg(&addr_csv)
                .arg(id_start.to_string())
                .arg(id_count.to_string())
                .arg(sizes.rounds.to_string())
                .arg(sizes.child_pause_us.to_string())
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("spawn sender child")
        })
        .collect();

    let mut sent = 0u64;
    let mut wire_bytes = 0u64;
    for child in children {
        let out = child.wait_with_output().expect("child exit");
        assert!(out.status.success(), "sender child failed: {out:?}");
        let report = parse_child(&String::from_utf8_lossy(&out.stdout));
        sent += report.sent;
        wire_bytes += report.bytes;
    }

    // Quiescence: children are done; wait until the lanes stop decoding
    // new frames (two consecutive still observations, 100 ms apart).
    let mut last = u64::MAX;
    let mut still = 0;
    while still < 2 {
        assert!(
            wall(&wall_clock, start) < 300.0,
            "drain stalled at {:?}",
            engine.stats()
        );
        let frames = engine.stats().intake_frames;
        if frames == last {
            still += 1;
        } else {
            still = 0;
            last = frames;
        }
        // Quiescence polling against real child processes.
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let elapsed = wall(&wall_clock, start);
    let stats = engine.stats();
    let accepted = stats.totals.accepted;
    let delivery = accepted as f64 / sent.max(1) as f64;

    // Reader latency against the live engine.
    let mut lat_ns: Vec<f64> = Vec::with_capacity(sizes.reader_queries);
    for q in 0..sizes.reader_queries as u64 {
        let p = ProcessId::new((q.wrapping_mul(2_654_435_761) % u64::from(sizes.peers)) as u32);
        let t0 = wall_clock.now();
        let level = reader.level(p);
        lat_ns.push(wall(&wall_clock, t0) * 1e9);
        assert!(level.is_some(), "every watched peer published");
    }
    lat_ns.sort_by(f64::total_cmp);
    let pct = |f: f64| lat_ns[((lat_ns.len() - 1) as f64 * f) as usize];

    engine.shutdown().expect("clean shutdown");

    let bytes_per_hb = wire_bytes as f64 / sent.max(1) as f64;
    let v1_ratio = 28.0 / bytes_per_hb;
    let stage_total = (stats.stage.decode + stats.stage.route + stats.stage.update).max(1);

    let mut table = Table::new(
        format!(
            "E18: {} peers x {} rounds over {LANES} UDP lanes, {SENDER_PROCS} sender processes ({cores} cores)",
            sizes.peers, sizes.rounds
        ),
        &["metric", "value"],
    );
    table.push_row(vec!["sent (hb)".into(), sent.to_string()]);
    table.push_row(vec!["accepted (hb)".into(), accepted.to_string()]);
    table.push_row(vec!["delivery".into(), cell(delivery, 3)]);
    table.push_row(vec![
        "throughput (hb/s)".into(),
        cell(accepted as f64 / elapsed.max(1e-9), 0),
    ]);
    table.push_row(vec!["wire (B/hb)".into(), cell(bytes_per_hb, 2)]);
    table.push_row(vec!["v1 ratio".into(), cell(v1_ratio, 2)]);
    table.push_row(vec![
        "decode share".into(),
        cell(stats.stage.decode as f64 / stage_total as f64, 3),
    ]);
    table.push_row(vec![
        "route share".into(),
        cell(stats.stage.route as f64 / stage_total as f64, 3),
    ]);
    table.push_row(vec![
        "update share".into(),
        cell(stats.stage.update as f64 / stage_total as f64, 3),
    ]);
    table.push_row(vec!["query p50 (ns)".into(), cell(pct(0.50), 0)]);
    table.push_row(vec!["query p99 (ns)".into(), cell(pct(0.99), 0)]);
    table.push_row(vec!["ring drops".into(), stats.ring_dropped.to_string()]);
    table.push_row(vec![
        "short drops".into(),
        udp_stats.short_dropped().to_string(),
    ]);
    table.push_row(vec![
        "oversize drops".into(),
        udp_stats.oversize_dropped().to_string(),
    ]);
    println!("{table}");

    // The soak is meaningful only if the datapath actually moved scale
    // traffic and every stage was exercised and timed.
    assert!(accepted > 0, "no heartbeats absorbed");
    assert!(
        delivery >= 0.2,
        "lost more than 80% of heartbeats on loopback: {delivery:.3}"
    );
    assert!(stats.stage.decode > 0, "decode stage untimed");
    assert!(stats.stage.route > 0, "route stage untimed");
    assert!(stats.stage.update > 0, "update stage untimed");
    assert_eq!(stats.per_lane_frames.len(), LANES);
    assert!(
        v1_ratio > 1.0,
        "v2 wire should beat 28 B/hb, got {bytes_per_hb:.2}"
    );
    assert_eq!(
        udp_stats.oversize_dropped(),
        0,
        "no oversize datagrams sent"
    );

    println!(
        "e18 total: {:.2} s{}",
        wall(&wall_clock, total),
        if smoke { " (smoke)" } else { "" }
    );
}
