//! **E15 — durability: checkpoint cost, restore cost, cold-start QoS gap.**
//!
//! Four measurements back the crash-safety claims in DESIGN.md §7f:
//!
//! 1. **Checkpoint cost** — a `ShardedMonitor` with a full watch set
//!    dumps its durable state (seq/replay + detector moments) through
//!    [`afd_runtime::Checkpointer`] into a `MemSink`, repeatedly, so the
//!    steady-state (generation-GC'd) dump cost and byte volume are
//!    visible. The dump reads the published epoch snapshots, so the
//!    intake path is never blocked.
//! 2. **Restore cost** — decode + checksum-verify the newest complete
//!    generation, then bulk-import it into a fresh monitor.
//! 3. **Cold-start QoS gap** — after a simulated crash+restart, a
//!    *restored* monitor and a *cold* monitor (same peers, empty
//!    detectors) run side by side against a reference that never
//!    crashed. Mean |phi − phi_ref| per offset shows the restored
//!    replica answers at pre-crash quality immediately while the cold
//!    one has to re-learn its arrival statistics.
//! 4. **Corruption quarantine** — one segment is bit-flipped through
//!    [`afd_runtime::FaultySink`]; restore must reject exactly that
//!    segment and import the rest.
//!
//! Wall time is read through `afd_runtime::SystemClock` — the one
//! sanctioned monotonic-clock entry point (the root `clippy.toml` bans
//! `Instant::now` elsewhere). Detector time is virtual.
//!
//! `--smoke` shrinks the peer count so CI can run the full
//! checkpoint → corrupt → restore → recover pipeline in seconds.

use afd_bench::experiment::{cell, Table};
use afd_core::process::ProcessId;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;
use afd_detectors::phi::PhiAccrual;
use afd_runtime::{
    ChannelTransport, CheckpointConfig, Checkpointer, Clock, FaultySink, FaultySinkPlan, Heartbeat,
    MemSink, ShardConfig, ShardedMonitor, SnapshotReader, SystemClock, Transport, VirtualClock,
};

const SHARDS: usize = 8;
const WARM_ROUNDS: u64 = 12;
const QOS_SAMPLE: u32 = 64;

struct Sizes {
    peers: u32,
    checkpoints: u32,
}

type PhiMonitor = ShardedMonitor<ChannelTransport, VirtualClock, PhiAccrual>;

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

fn phi_monitor(rx: ChannelTransport, clock: &VirtualClock, peers: u32) -> PhiMonitor {
    let mut mon = ShardedMonitor::new(
        rx,
        clock.clone(),
        ShardConfig {
            shards: SHARDS,
            slots_per_shard: (peers as usize).div_ceil(SHARDS) * 2,
        },
        |_| PhiAccrual::with_defaults(),
    );
    for id in 0..peers {
        mon.watch(ProcessId::new(id)).expect("sized for all peers");
    }
    mon
}

/// One heartbeat round at virtual second `round` for every peer.
fn beat_round(
    tx: &mut ChannelTransport,
    mon: &mut PhiMonitor,
    clock: &VirtualClock,
    round: u64,
    peers: u32,
) {
    clock.set(Timestamp::from_secs(round));
    // The channel holds 16 Ki frames per direction (overflow drops the
    // oldest), so interleave sends with draining ticks.
    let mut accepted = 0usize;
    for id in 0..peers {
        tx.send(&frame(id, round)).expect("in-process send");
        if (id + 1) % 8_192 == 0 {
            accepted += mon.tick().expect("in-process transport").accepted;
        }
    }
    loop {
        let report = mon.tick().expect("in-process transport");
        if report.accepted == 0 {
            break;
        }
        accepted += report.accepted;
    }
    assert_eq!(accepted, peers as usize);
}

/// Mean |phi − phi_ref| over a fixed sample of peers, read from the
/// snapshots both monitors published mid-gap.
fn mean_phi_error(mon: &SnapshotReader, reference: &SnapshotReader, peers: u32) -> f64 {
    let sample = QOS_SAMPLE.min(peers);
    let mut err = 0.0f64;
    for k in 0..sample {
        let p = ProcessId::new(k * (peers / sample).max(1));
        let want = reference.level(p).expect("watched").value();
        let got = mon.level(p).map_or(0.0, SuspicionLevel::value);
        err += (got - want).abs();
    }
    err / f64::from(sample)
}

/// Checkpoint + restore cost against an in-memory sink.
fn durability_cost(sizes: &Sizes, wall_clock: &SystemClock) -> (Table, Checkpointer<MemSink>) {
    let peers = sizes.peers;
    let clock = VirtualClock::new();
    let (mut tx, rx) = ChannelTransport::pair();
    let mut mon = phi_monitor(rx, &clock, peers);
    for round in 1..=WARM_ROUNDS {
        beat_round(&mut tx, &mut mon, &clock, round, peers);
    }

    let mut ckpt = Checkpointer::new(MemSink::new(), CheckpointConfig::default());
    let start = wall_clock.now();
    let mut bytes = 0usize;
    let mut last_generation = 0u64;
    for _ in 0..sizes.checkpoints {
        let report = mon.checkpoint(&mut ckpt).expect("MemSink cannot fail");
        assert_eq!(report.peers, peers as usize);
        assert_eq!(report.segments, SHARDS);
        bytes += report.bytes;
        last_generation = report.generation;
    }
    let dump_secs = wall(wall_clock, start);
    let retained = ckpt.sink().len();

    let start = wall_clock.now();
    let restored = ckpt.restore(&clock).expect("MemSink cannot fail");
    let decode_secs = wall(wall_clock, start);
    assert_eq!(restored.generation, Some(last_generation));
    assert_eq!(restored.peers.len(), peers as usize);
    assert_eq!(restored.segments_rejected, 0);

    let (_tx2, rx2) = ChannelTransport::pair();
    let mut fresh = ShardedMonitor::new(
        rx2,
        clock.clone(),
        ShardConfig {
            shards: SHARDS,
            slots_per_shard: (peers as usize).div_ceil(SHARDS) * 2,
        },
        |_| PhiAccrual::with_defaults(),
    );
    let start = wall_clock.now();
    let import = fresh.restore(&restored.peers);
    let import_secs = wall(wall_clock, start);
    assert_eq!(import.watched, u64::from(peers));
    assert_eq!(import.seeded, u64::from(peers));
    assert_eq!(import.capacity_rejected, 0);

    let per_dump = dump_secs / f64::from(sizes.checkpoints);
    let dump_peers_s = f64::from(peers) / per_dump.max(1e-9);
    let restore_secs = decode_secs + import_secs;
    let restore_peers_s = f64::from(peers) / restore_secs.max(1e-9);
    let bytes_per_dump = bytes / sizes.checkpoints as usize;

    let mut table = Table::new(
        format!(
            "E15a: durability cost at {peers} peers / {SHARDS} shards, {} checkpoints",
            sizes.checkpoints
        ),
        &[
            "dump (ms)",
            "dump (peers/s)",
            "bytes/dump",
            "decode (ms)",
            "import (ms)",
            "restore (peers/s)",
            "sink objects retained",
        ],
    );
    table.push_row(vec![
        cell(per_dump * 1e3, 2),
        cell(dump_peers_s, 0),
        bytes_per_dump.to_string(),
        cell(decode_secs * 1e3, 2),
        cell(import_secs * 1e3, 2),
        cell(restore_peers_s, 0),
        retained.to_string(),
    ]);
    (table, ckpt)
}

/// Post-restart QoS: restored vs. cold monitor against an uncrashed
/// reference, over offsets after the restart instant.
fn qos_recovery(mut ckpt: Checkpointer<MemSink>, peers: u32) -> Table {
    // A fresh virtual clock, re-advanced through the same warm rounds the
    // checkpointed monitor saw, so the restored seeds' absolute
    // timestamps line up. (Reusing the cost phase's clock would mean
    // driving it backwards, which VirtualClock forbids.)
    let clock = &VirtualClock::new();

    // Reference incarnation: never crashed, keeps its learned windows.
    let (mut ref_tx, ref_rx) = ChannelTransport::pair();
    let mut reference = phi_monitor(ref_rx, clock, peers);
    for round in 1..=WARM_ROUNDS {
        beat_round(&mut ref_tx, &mut reference, clock, round, peers);
    }

    // Restored incarnation: imports the checkpoint taken at the same
    // virtual instant the reference reached.
    let restored_peers = ckpt.restore(clock).expect("MemSink cannot fail").peers;
    let (mut warm_tx, warm_rx) = ChannelTransport::pair();
    let mut warm = ShardedMonitor::new(
        warm_rx,
        clock.clone(),
        ShardConfig {
            shards: SHARDS,
            slots_per_shard: (peers as usize).div_ceil(SHARDS) * 2,
        },
        |_| PhiAccrual::with_defaults(),
    );
    warm.restore(&restored_peers);

    // Cold incarnation: same watch set, empty detectors — what a restart
    // without durable state looks like.
    let (mut cold_tx, cold_rx) = ChannelTransport::pair();
    let mut cold = phi_monitor(cold_rx, clock, peers);

    let mut table = Table::new(
        format!(
            "E15b: phi error vs uncrashed reference after restart ({QOS_SAMPLE} sampled peers)"
        ),
        &["offset (s)", "restored |err|", "cold |err|"],
    );
    let mut first = None;
    let mut last = None;
    for offset in [0u64, 5, 15, 30, 60] {
        // All incarnations receive the identical post-restart beats.
        for round in (WARM_ROUNDS + last.map_or(0, |(o, _, _): (u64, f64, f64)| o) + 1)
            ..=(WARM_ROUNDS + offset)
        {
            beat_round(&mut ref_tx, &mut reference, clock, round, peers);
            beat_round(&mut warm_tx, &mut warm, clock, round, peers);
            beat_round(&mut cold_tx, &mut cold, clock, round, peers);
        }
        // Query just before the next beat is due: with a tight cadence,
        // phi mid-gap is ~0 everywhere (no signal); at 99.9% of the mean
        // gap the reference's learned distribution is discriminating.
        // Staying below the next round's timestamp keeps the shared
        // virtual clock monotonic.
        clock.set(Timestamp::from_secs_f64(
            (WARM_ROUNDS + offset) as f64 + 0.999,
        ));
        for mon in [&mut reference, &mut warm, &mut cold] {
            mon.tick().expect("in-process transport");
        }
        let warm_err = mean_phi_error(&warm.reader(), &reference.reader(), peers);
        let cold_err = mean_phi_error(&cold.reader(), &reference.reader(), peers);
        table.push_row(vec![
            offset.to_string(),
            format!("{warm_err:.3e}"),
            format!("{cold_err:.3e}"),
        ]);
        first.get_or_insert((offset, warm_err, cold_err));
        last = Some((offset, warm_err, cold_err));
    }

    // The headline claims: restored answers at pre-crash quality on the
    // first query; cold start does not, and only converges with time.
    let (_, warm0, cold0) = first.expect("at least one offset");
    let (_, _, cold_last) = last.expect("at least one offset");
    assert!(
        warm0 < 1e-9,
        "restored phi should match the reference immediately, got {warm0:.3e}"
    );
    assert!(
        cold0 > 1e-3,
        "cold start should show a QoS gap at offset 0, got {cold0:.3e}"
    );
    assert!(
        cold_last < cold0,
        "cold start should converge toward the reference: {cold0:.3e} -> {cold_last:.3e}"
    );
    table
}

/// A bit-flipped segment is quarantined; the rest of the generation is
/// imported.
fn corruption_quarantine(peers: u32) -> Table {
    let clock = VirtualClock::new();
    let (mut tx, rx) = ChannelTransport::pair();
    let mut mon = phi_monitor(rx, &clock, peers);
    for round in 1..=WARM_ROUNDS {
        beat_round(&mut tx, &mut mon, &clock, round, peers);
    }

    let plan = FaultySinkPlan::new().with_bit_flip(1.0);
    let sink = FaultySink::new(MemSink::new(), plan, 0xE15).with_filter("-s3.afds");
    let mut ckpt = Checkpointer::new(sink, CheckpointConfig::default());
    mon.checkpoint(&mut ckpt).expect("sink accepts writes");

    let restored = ckpt.restore(&clock).expect("sink reads back");
    assert_eq!(restored.segments_rejected, 1, "exactly the flipped segment");
    assert!(
        restored.peers.len() < peers as usize && !restored.peers.is_empty(),
        "survivors imported: {}",
        restored.peers.len()
    );

    let mut table = Table::new(
        "E15c: corruption quarantine (1 of 8 segments bit-flipped)".to_string(),
        &["segments rejected", "peers restored", "peers lost"],
    );
    let lost = peers as usize - restored.peers.len();
    table.push_row(vec![
        restored.segments_rejected.to_string(),
        restored.peers.len().to_string(),
        lost.to_string(),
    ]);
    table
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes = if smoke {
        Sizes {
            peers: 5_000,
            checkpoints: 3,
        }
    } else {
        Sizes {
            peers: 20_000,
            checkpoints: 10,
        }
    };
    let wall_clock = SystemClock::new();
    let total = wall_clock.now();

    let (cost_table, ckpt) = durability_cost(&sizes, &wall_clock);
    println!("{cost_table}");
    println!("{}", qos_recovery(ckpt, sizes.peers));
    println!("{}", corruption_quarantine(sizes.peers));

    println!(
        "e15 total: {:.2} s{}",
        wall(&wall_clock, total),
        if smoke { " (smoke)" } else { "" }
    );
}
