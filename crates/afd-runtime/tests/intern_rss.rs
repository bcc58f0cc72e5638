//! The intern slab reserves address space, not memory: building a large
//! one must not make its pages resident. Alone in its file — and so in
//! its own process — because `VmRSS` is the whole process's.

#![cfg(target_os = "linux")]

use afd_runtime::intern::{InternEntry, InternSlab};

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
fn a_four_million_slot_slab_is_not_resident_until_used() {
    const SLOTS: usize = 1 << 22; // 128 MB of rows
    let before = vm_rss_bytes();
    let mut slab = InternSlab::new(SLOTS);
    // Use both ends, so the table is really there and really that long.
    for idx in [0, SLOTS as u32 - 1] {
        let entry = InternEntry {
            sender: idx,
            ckpt_seq: 1,
            ckpt_sent_at_nanos: 2,
            interval_nanos: 3,
        };
        assert!(slab.insert(idx, entry));
        assert_eq!(slab.get(idx), Some(entry));
    }
    assert_eq!(slab.get(SLOTS as u32 / 2), None);
    let grown = vm_rss_bytes().saturating_sub(before);
    assert!(
        grown < 8 << 20,
        "a {SLOTS}-slot slab made {grown} bytes resident before use"
    );
}
