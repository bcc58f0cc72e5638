//! A shard's durable rows grow with its slab, not its capacity: a
//! monitor declared for a million peers and watching one must not make a
//! million rows resident. Alone in its file — and so in its own process —
//! because `VmRSS` is the whole process's.

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
fn a_million_slot_monitor_with_one_peer_keeps_its_durable_rows_unallocated() {
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
    // What stays capacity-sized is the id and level columns of both banks
    // and the slot index: 48 MB, resident or not as the optimiser folds
    // their fill. Seven durable words a row in two banks would add 112 MB.
    let grown = vm_rss_bytes().saturating_sub(before);
    assert!(
        grown <= 64 << 20,
        "a {SLOTS}-slot monitor with one peer made {grown} bytes resident"
    );
}
