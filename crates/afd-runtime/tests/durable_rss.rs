//! A shard's snapshot grows with its slab, not its capacity: a monitor
//! declared for a million peers and watching one must not make a million
//! rows, or an index for them, resident. Alone in its file — and so in
//! its own process — because `VmRSS` is the whole process's.

#![cfg(target_os = "linux")]

use afd_core::process::ProcessId;
use afd_core::time::Timestamp;
use afd_detectors::phi::PhiAccrual;
use afd_runtime::{
    ChannelTransport, Heartbeat, ShardConfig, ShardedMonitor, Transport, VirtualClock,
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

#[test]
fn a_million_slot_monitor_with_one_peer_keeps_its_snapshot_unallocated() {
    const SLOTS: usize = 1 << 20;
    let before = vm_rss_bytes();
    let clock = VirtualClock::new();
    let (mut tx, rx) = ChannelTransport::pair();
    let config = ShardConfig {
        shards: 1,
        slots_per_shard: SLOTS,
    };
    let mut mon = ShardedMonitor::new(rx, clock.clone(), config, |_| PhiAccrual::with_defaults());
    let peer = ProcessId::new(7);
    mon.watch(peer).unwrap();
    let hb = Heartbeat {
        sender: peer,
        seq: 1,
        sent_at: Timestamp::from_secs(1),
    };
    tx.send(&hb.encode()).unwrap();
    clock.set(Timestamp::from_secs(1));
    assert_eq!(mon.tick().unwrap().accepted, 1);
    assert!(mon.reader().level(peer).is_some());
    // What stays capacity-sized is each bank's chunk table, 16 bytes a
    // chunk of 256 rows: 64 KB a bank. The one peer's rows are one chunk a
    // bank, and its index entry sits in the sixteen the index holds in
    // itself. Rows laid out to the capacity would be 144 MB, an index of
    // twice the capacity 16 MB.
    let grown = vm_rss_bytes().saturating_sub(before);
    assert!(
        grown <= 4 << 20,
        "a {SLOTS}-slot monitor with one peer made {grown} bytes resident"
    );
}
