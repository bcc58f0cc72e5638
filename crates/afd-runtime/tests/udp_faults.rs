//! Fault injection over *real* UDP loopback sockets — no in-process
//! channel stand-ins. Corrupt, duplicated, and reordered datagrams are
//! classified (not crashed on), oversize datagrams are detected and
//! dropped rather than silently truncated into decodable frames (the
//! truncation regression), and a v2 delta-wire sender interoperates
//! with a single-shard `ShardedMonitor` across a real socket.
//!
//! UDP gives no delivery guarantee even on loopback, so every
//! expectation is polled under a deadline: the kernel queue is drained
//! until the expected counters appear or the deadline names the miss.

use std::time::{Duration as StdDuration, Instant};

use afd_core::process::ProcessId;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::simple::SimpleAccrual;
use afd_runtime::wire::MIN_FRAME;
use afd_runtime::{
    ChannelTransport, DeltaEncoder, FaultInjector, FaultPlan, FrameBatch, Heartbeat, MonitorStats,
    SenderConfig, SenderCore, ShardConfig, ShardedMonitor, Transport, UdpLane, VirtualClock,
    WireVersion, MAX_DATAGRAM,
};

const DEADLINE: StdDuration = StdDuration::from_secs(10);

/// The single-stream reading of Algorithm 4: one shard.
const SINGLE: ShardConfig = ShardConfig {
    shards: 1,
    slots_per_shard: 4,
};

/// A receive-only lane on an OS-chosen loopback port and a lane
/// connected to it: the monitor's socket and a sender's.
fn loopback_link() -> (UdpLane, UdpLane) {
    let any = "127.0.0.1:0".parse().expect("addr");
    let rx = UdpLane::bind(any).expect("bind receiver");
    let tx = UdpLane::connect(any, rx.local_addr().expect("receiver addr")).expect("bind sender");
    (tx, rx)
}

fn frame(sender: u32, seq: u64) -> [u8; afd_runtime::FRAME_LEN] {
    Heartbeat {
        sender: ProcessId::new(sender),
        seq,
        sent_at: Timestamp::from_millis(seq * 100),
    }
    .encode()
}

/// Polls `monitor` until `done(stats)` holds or the deadline passes;
/// returns the final stats either way.
fn settle<T, C, D>(
    monitor: &mut ShardedMonitor<T, C, D>,
    done: impl Fn(&MonitorStats) -> bool,
) -> MonitorStats
where
    T: Transport,
    C: afd_runtime::Clock,
    D: afd_core::accrual::AccrualFailureDetector,
{
    let deadline = Instant::now() + DEADLINE;
    loop {
        monitor.tick().expect("transport failed");
        let stats = monitor.stats().totals;
        if done(&stats) || Instant::now() >= deadline {
            return stats;
        }
        std::thread::sleep(StdDuration::from_millis(2));
    }
}

/// Drains `rx` into `batch` until it holds `want` frames or the deadline
/// passes.
fn drain_until(rx: &mut (impl Transport + ?Sized), batch: &mut FrameBatch, want: usize) {
    let deadline = Instant::now() + DEADLINE;
    while batch.len() < want && Instant::now() < deadline {
        rx.recv_batch(batch).expect("recv_batch");
        std::thread::sleep(StdDuration::from_millis(2));
    }
}

/// Corrupt, duplicated, and reordered datagrams over a real socket are
/// each counted into their own bucket and kept away from detectors.
#[test]
fn corrupt_duplicate_and_reordered_datagrams_are_classified() {
    let (mut tx, rx) = loopback_link();
    let rx_stats = rx.stats();
    let clock = VirtualClock::new();
    clock.set(Timestamp::from_secs(1));
    let mut monitor =
        ShardedMonitor::new(rx, clock, SINGLE, |_| SimpleAccrual::new(Timestamp::ZERO));
    let peer = ProcessId::new(1);
    monitor.watch(peer).unwrap();

    // In-order, then a datagram whose payload byte was flipped in
    // flight (checksum breaks), then a reordering (3 before 2), then an
    // exact duplicate of the freshest frame; last, garbage of the
    // shortest length a frame can have (the decoder's to reject) and one
    // byte shorter (a runt: the lane drops it before any decode).
    tx.send(&frame(1, 1)).expect("send seq 1");
    let mut corrupt = frame(1, 9);
    corrupt[20] ^= 0xFF;
    tx.send(&corrupt).expect("send corrupt");
    tx.send(&frame(1, 3)).expect("send seq 3");
    tx.send(&frame(1, 2)).expect("send stale seq 2");
    tx.send(&frame(1, 3)).expect("send duplicate seq 3");
    tx.send(&[0xEE; MIN_FRAME]).expect("send shortest garbage");
    tx.send(&[0xEE; MIN_FRAME - 1]).expect("send runt");

    let stats = settle(&mut monitor, |s| {
        s.accepted + s.corrupt + s.stale + s.duplicate >= 6 && rx_stats.short_dropped() >= 1
    });
    assert_eq!(stats.accepted, 2, "seq 1 and seq 3: {stats:?}");
    assert_eq!(
        stats.corrupt, 2,
        "flipped frame and shortest garbage: {stats:?}"
    );
    assert_eq!(
        rx_stats.short_dropped(),
        1,
        "the runt never reached the decoder"
    );
    assert_eq!(stats.stale, 1, "reordered seq 2: {stats:?}");
    assert_eq!(stats.duplicate, 1, "redelivered seq 3: {stats:?}");
    assert_eq!(stats.unwatched, 0, "{stats:?}");
}

/// The oversize regression, receive side: a datagram longer than
/// `MAX_DATAGRAM` whose head is a perfectly valid frame must be
/// *dropped and counted* — the pre-fix code read into a
/// `MAX_DATAGRAM`-sized buffer, so the kernel truncated the tail and
/// the head decoded as if the peer had sent it.
#[test]
fn oversize_datagrams_are_dropped_not_truncated() {
    // The transport refuses to *send* oversize frames, so smuggle the
    // datagram in from a raw socket that the receiver treats as its peer.
    let raw = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind raw");
    let raw_addr = raw.local_addr().expect("raw addr");
    let mut rx =
        UdpLane::connect("127.0.0.1:0".parse().expect("addr"), raw_addr).expect("bind receiver");
    let rx_addr = rx.local_addr().expect("receiver addr");
    let rx_stats = rx.stats();

    let mut oversize = vec![0u8; MAX_DATAGRAM + 200];
    oversize[..frame(1, 1).len()].copy_from_slice(&frame(1, 1));
    raw.send_to(&oversize, rx_addr).expect("send oversize");
    raw.send_to(&frame(1, 2), rx_addr).expect("send good");

    // Drain through a one-slot arena until the good frame arrives.
    let mut one = FrameBatch::with_capacity(1);
    let deadline = Instant::now() + DEADLINE;
    while one.is_empty() && Instant::now() < deadline {
        rx.recv_batch(&mut one).expect("recv");
        std::thread::sleep(StdDuration::from_millis(2));
    }
    assert_eq!(
        one.iter().next().map(Heartbeat::decode),
        Some(Ok(Heartbeat {
            sender: ProcessId::new(1),
            seq: 2,
            sent_at: Timestamp::from_millis(200),
        })),
        "only the in-size datagram may surface"
    );
    assert_eq!(
        rx_stats.oversize_dropped(),
        1,
        "oversize is counted, not eaten"
    );

    // Same property through a roomy arena.
    raw.send_to(&oversize, rx_addr)
        .expect("send oversize again");
    raw.send_to(&frame(1, 3), rx_addr).expect("send good again");
    let mut batch = FrameBatch::with_capacity(8);
    let deadline = Instant::now() + DEADLINE;
    let mut drained = 0usize;
    while drained == 0 && Instant::now() < deadline {
        drained = rx.recv_batch(&mut batch).expect("recv_batch");
        std::thread::sleep(StdDuration::from_millis(2));
    }
    assert_eq!(drained, 1);
    let slot = batch.iter().next().expect("one frame in the batch");
    assert_eq!(
        Heartbeat::decode(slot).map(|hb| hb.seq),
        Ok(3),
        "the truncated head of the oversize datagram must not decode"
    );
    assert_eq!(rx_stats.oversize_dropped(), 2);
    assert_eq!(rx_stats.datagrams(), 2);
    assert_eq!(rx_stats.foreign_dropped() + rx_stats.short_dropped(), 0);

    // The near miss: one byte over the bound, again headed by a valid
    // frame. It fills the probe-sized cell exactly, which is what proves
    // it oversize.
    let mut near_miss = [0u8; MAX_DATAGRAM + 1];
    near_miss[..frame(1, 4).len()].copy_from_slice(&frame(1, 4));
    raw.send_to(&near_miss, rx_addr).expect("send near miss");
    raw.send_to(&frame(1, 5), rx_addr)
        .expect("send good after it");
    batch.clear();
    drain_until(&mut rx, &mut batch, 1);
    let seqs: Vec<_> = batch
        .iter()
        .map(|f| Heartbeat::decode(f).map(|hb| hb.seq))
        .collect();
    assert_eq!(seqs, [Ok(5)], "seq 4 headed the oversize datagram");
    assert_eq!(rx_stats.oversize_dropped(), 3);
    assert_eq!(rx_stats.datagrams(), 3);

    // Send side refuses outright — the bug is named at the source.
    assert!(
        rx.send(&oversize).is_err(),
        "sender must reject frames over MAX_DATAGRAM"
    );
}

/// Every frame the wire can emit — the 40-byte v2 checkpoint, the widest
/// delta (five index bytes, an escaped ten-byte seq delta, a ten-byte
/// residual) and a v1 frame — crosses each medium byte for byte: the
/// in-process channel, and a real socket behind a fault injector with
/// nothing to inject, where no lane drop counter moves.
#[test]
fn every_wire_frame_kind_crosses_every_medium_intact() {
    let sender = ProcessId::new(u32::MAX);
    let hb = |seq, nanos| Heartbeat {
        sender,
        seq,
        sent_at: Timestamp::from_nanos(nanos),
    };
    let mut enc = DeltaEncoder::new(sender, u32::MAX, StdDuration::from_nanos(1), u32::MAX);
    let mut buf = [0u8; afd_runtime::MAX_V2_FRAME];
    let mut sent: Vec<Vec<u8>> = [hb(0, 0), hb(u64::MAX, i64::MAX as u64)]
        .iter()
        .map(|hb| {
            let n = enc.encode(hb, &mut buf);
            buf[..n].to_vec()
        })
        .collect();
    sent.push(hb(7, 700).encode().to_vec());
    let lens: Vec<usize> = sent.iter().map(Vec::len).collect();
    assert_eq!(lens, [afd_runtime::INTERN_LEN, 28, afd_runtime::FRAME_LEN]);

    // Both media keep the order of one sender's frames.
    let crosses = |tx: &mut dyn Transport, rx: &mut dyn Transport| {
        for frame in &sent {
            tx.send(frame).expect("send");
        }
        let mut batch = FrameBatch::with_capacity(8);
        drain_until(rx, &mut batch, sent.len());
        let got: Vec<Vec<u8>> = batch.iter().map(<[u8]>::to_vec).collect();
        assert_eq!(got, sent);
    };

    let (mut a, mut b) = ChannelTransport::pair();
    crosses(&mut a, &mut b);

    let (mut tx, rx) = loopback_link();
    let rx_stats = rx.stats();
    let mut rx = FaultInjector::new(rx, VirtualClock::new(), FaultPlan::default(), 1);
    crosses(&mut tx, &mut rx);
    assert_eq!(rx_stats.datagrams(), 3);
    assert_eq!(
        rx_stats.oversize_dropped() + rx_stats.short_dropped() + rx_stats.foreign_dropped(),
        0
    );
}

/// A v2 delta-wire sender heartbeating across a real UDP socket is
/// fully understood by a `ShardedMonitor`: every beat accepted, zero
/// corrupt, and strictly fewer wire bytes than v1 would have spent.
#[test]
fn v2_sender_over_real_udp_feeds_a_monitor() {
    let (mut tx, rx) = loopback_link();
    let clock = VirtualClock::new();
    let mut monitor = ShardedMonitor::new(rx, clock.clone(), SINGLE, |_| {
        SimpleAccrual::new(Timestamp::ZERO)
    });
    let peer = ProcessId::new(11);
    monitor.watch(peer).unwrap();

    let interval = Duration::from_secs(1);
    let mut sender = SenderCore::new(
        SenderConfig::new(peer, interval).with_wire(WireVersion::V2 { resync_every: 4 }),
        Timestamp::ZERO,
        7,
    );

    let rounds = 12u64;
    for s in 0..rounds {
        let now = Timestamp::from_secs(s);
        clock.set(now);
        sender.poll(now, &mut tx, |_| {}).expect("sender poll");
    }

    let stats = settle(&mut monitor, |s| s.accepted >= rounds);
    assert_eq!(stats.accepted, rounds, "{stats:?}");
    assert_eq!(stats.corrupt, 0, "{stats:?}");
    assert!(
        sender.wire_bytes() < rounds * afd_runtime::FRAME_LEN as u64,
        "v2 must undercut v1's {} bytes, spent {}",
        rounds * afd_runtime::FRAME_LEN as u64,
        sender.wire_bytes()
    );
    assert!(
        monitor.level(peer).is_some(),
        "the watched peer has a live suspicion level"
    );
}
