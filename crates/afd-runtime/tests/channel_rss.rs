//! A channel holds what is in flight, not its bound: a default pair
//! whose backlog never passes 128 frames must not make its 16 384-cell
//! bound resident, however many frames go through it. Alone in its file
//! — and so in its own process — because `VmRSS` is the whole process's.

#![cfg(target_os = "linux")]

use afd_runtime::{ChannelTransport, FrameBatch, Transport};

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
fn a_default_pair_keeps_what_its_backlog_needed() {
    const BURSTS: u32 = 8192;
    const BURST: u32 = 128;
    let before = vm_rss_bytes();
    let (mut tx, mut rx) = ChannelTransport::pair();
    let mut batch = FrameBatch::with_capacity(512);
    // A million frames walk the queue's head 64 times round a 16 384-cell
    // buffer; a queue reserved at its bound makes all 1 088 KB resident.
    for burst in 0..BURSTS {
        for i in 0..BURST {
            tx.send(&(burst * BURST + i).to_le_bytes()).unwrap();
        }
        batch.clear();
        assert_eq!(rx.recv_batch(&mut batch).unwrap(), BURST as usize);
        let last = batch.iter().last().unwrap();
        assert_eq!(last, (burst * BURST + BURST - 1).to_le_bytes());
    }
    assert_eq!(tx.tx_dropped(), 0);
    assert_eq!(rx.rx_depth(), 0);
    // The 512-cell arena is 34 KB and the grown queue 8.5 KB.
    let grown = vm_rss_bytes().saturating_sub(before);
    assert!(
        grown <= 128 << 10,
        "{BURSTS} bursts of {BURST} frames through a default pair made {grown} bytes resident"
    );
}
