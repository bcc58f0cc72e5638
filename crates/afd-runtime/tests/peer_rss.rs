//! What a watched φ peer costs in resident memory once it has been heard:
//! its slot, its window's ring, its rows in the two snapshot banks and
//! the durable table, its curve-column row and its index entry. Alone in
//! its file — and so in its own process — because `VmRSS` is the whole
//! process's.

#![cfg(target_os = "linux")]

use afd_core::process::ProcessId;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::phi::{PhiAccrual, PhiConfig};
use afd_runtime::{
    ChannelTransport, DeltaEncoder, FrameBatch, Heartbeat, ShardConfig, ShardedMonitor, Transport,
    VirtualClock, MAX_V2_FRAME,
};

fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS value in kB");
    kb * 1024
}

const PEERS: u32 = 4096;
const SHARDS: usize = 4;
const HEARTBEATS: u64 = 40;
const INTERVAL: Duration = Duration::from_secs(1);

/// One heartbeat of every peer, encoded by its own sender and sent.
fn send_round(tx: &mut ChannelTransport, encoders: &mut [DeltaEncoder], seq: u64) {
    let mut buf = [0u8; MAX_V2_FRAME];
    for (id, encoder) in (1..=PEERS).zip(encoders) {
        let hb = Heartbeat {
            sender: ProcessId::new(id),
            seq,
            sent_at: Timestamp::from_nanos(seq * INTERVAL.as_nanos()),
        };
        let len = encoder.encode(&hb, &mut buf);
        tx.send(&buf[..len])
            .expect("the monitor holds the other end");
    }
}

#[test]
fn a_heard_phi_peer_stays_within_its_byte_budget() {
    let (mut tx, mut rx) = ChannelTransport::pair();
    let mut encoders: Vec<DeltaEncoder> = (1..=PEERS)
        .map(|id| DeltaEncoder::new(ProcessId::new(id), id, INTERVAL.into(), 64))
        .collect();
    // A round's worth of frames through the channel before the first
    // reading, so that its queue has grown to hold a round and what grows
    // after is the monitor's. Self-contained frames: the encoders' first
    // frames, their intern frames, are for the monitor's decoder.
    for id in 1..=PEERS {
        let hb = Heartbeat {
            sender: ProcessId::new(id),
            seq: 0,
            sent_at: Timestamp::ZERO,
        };
        tx.send(&hb.encode()).expect("the receiving end is here");
    }
    let mut batch = FrameBatch::with_capacity(512);
    loop {
        batch.clear();
        if rx.recv_batch(&mut batch).expect("the channel is open") == 0 {
            break;
        }
    }
    drop(batch);

    let before = vm_rss_bytes();
    let clock = VirtualClock::new();
    let config = ShardConfig {
        shards: SHARDS,
        slots_per_shard: 2 * PEERS as usize / SHARDS,
    };
    let phi = PhiConfig {
        window_size: 32,
        ..PhiConfig::default()
    };
    let mut mon = ShardedMonitor::new(rx, clock.clone(), config, move |_| {
        PhiAccrual::new(phi).expect("valid phi config")
    });
    for id in 1..=PEERS {
        assert_eq!(mon.watch(ProcessId::new(id)), Ok(true));
    }
    let mut accepted = 0;
    for seq in 1..=HEARTBEATS {
        send_round(&mut tx, &mut encoders, seq);
        clock.set(Timestamp::from_nanos(seq * INTERVAL.as_nanos()));
        accepted += mon.tick().expect("the channel is open").accepted;
    }
    assert_eq!(accepted, PEERS as usize * HEARTBEATS as usize);
    let reader = mon.reader();
    assert!((1..=PEERS).all(|id| reader.level(ProcessId::new(id)).is_some()));

    // 128 B of slot, 272 of window ring with its allocator header, 32 in
    // the two banks, 64 in the durable table, 32 in the curve column,
    // ≈ 16 of index, and ≈ 90 of the decoder's intern entry and the
    // intake stage's buffers: 630 B a peer in a release build, 639 in a
    // debug one, which also writes the index table's untouched tail. It
    // was 781 (debug 802) when a slot was 216 B and every durable row sat
    // in both banks.
    let per_peer = vm_rss_bytes().saturating_sub(before) / u64::from(PEERS);
    eprintln!("resident growth: {per_peer} B a heard φ peer");
    assert!(
        per_peer <= 660,
        "a heard φ peer made {per_peer} bytes resident"
    );
}
