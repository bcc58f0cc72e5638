//! Acceptance tests for the compact v2 delta wire format: exact
//! encoder→decoder roundtrips on randomized jittered schedules, v1/v2
//! interop through one decoder (and through one `ShardedMonitor` fed by
//! mixed-version senders), and the slot-reuse regression — a long frame
//! followed by a shorter one through the same intake slot must never
//! decode by reading the previous occupant's stale arena tail.

use afd_core::process::ProcessId;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::simple::SimpleAccrual;
use afd_runtime::wire::MIN_FRAME;
use afd_runtime::{
    ChannelTransport, DeltaEncoder, FrameBatch, Heartbeat, SenderConfig, SenderCore, ShardConfig,
    ShardedMonitor, VirtualClock, WireDecoder, WireError, WireVersion, FRAME_LEN, INTERN_LEN,
    MAX_V2_FRAME,
};
use proptest::prelude::*;

const INTERVAL_NANOS: u64 = 100_000_000;

/// One heartbeat of a randomized sender schedule: how many sequence
/// numbers it jumps (0 = the normal +1) and how far its send time
/// strays from the nominal 100 ms cadence.
#[derive(Debug, Clone, Copy)]
struct Step {
    gap: u64,
    jitter_nanos: i64,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = proptest::FnStrategy::new(|rng: &mut TestRng| Step {
        gap: rng.below(4),
        // ±10 ms of jitter around the nominal cadence — far beyond what
        // a single-byte residual can express, so multi-byte varints and
        // both residual signs are exercised.
        jitter_nanos: rng.below(20_000_001) as i64 - 10_000_000,
    });
    prop::collection::vec(step, 1..150)
}

fn heartbeat(sender: ProcessId, seq: u64, jitter_nanos: i64) -> Heartbeat {
    let nominal = (seq as i64).saturating_mul(INTERVAL_NANOS as i64);
    Heartbeat {
        sender,
        seq,
        sent_at: Timestamp::from_nanos(nominal.saturating_add(jitter_nanos).max(0) as u64),
    }
}

proptest! {
    /// On any schedule of sequence gaps and timestamp jitter, and any
    /// resync cadence, every v2 frame decodes back to exactly the
    /// heartbeat that went in — intern frames and deltas alike.
    #[test]
    fn v2_roundtrips_exactly_on_jittered_schedules(steps in steps(), resync in 1u32..9) {
        let sender = ProcessId::new(42);
        let mut enc = DeltaEncoder::new(
            sender,
            sender.as_u32(),
            std::time::Duration::from_nanos(INTERVAL_NANOS),
            resync,
        );
        let mut dec = WireDecoder::new();
        let mut buf = [0u8; MAX_V2_FRAME];
        let mut seq = 0u64;
        for step in steps {
            seq += 1 + step.gap;
            let hb = heartbeat(sender, seq, step.jitter_nanos);
            let n = enc.encode(&hb, &mut buf);
            prop_assert!(n > 0, "encoder refused a well-formed heartbeat");
            // A frame is the 40-byte intern frame or a delta that its
            // length alone tells apart from one.
            prop_assert!(n == INTERN_LEN || (MIN_FRAME..=33).contains(&n), "{} bytes", n);
            let got = dec.decode(&buf[..n]);
            prop_assert_eq!(got, Ok(hb));
        }
    }

    /// The seq delta rides the tag byte below 127 and a varint of its
    /// own from there on: both sides of that edge and of every varint
    /// width, under any residual, decode back exactly.
    #[test]
    fn v2_roundtrips_across_the_seq_delta_escape(
        which in 0usize..6,
        ckpt_seq in 0u64..1_000,
        jitter_nanos in -10_000_000i64..10_000_000,
    ) {
        let seq_delta = [1, 126, 127, 128, 1 << 14, u64::from(u32::MAX)][which];
        let sender = ProcessId::new(42);
        let mut enc = DeltaEncoder::new(
            sender,
            sender.as_u32(),
            std::time::Duration::from_nanos(INTERVAL_NANOS),
            u32::MAX,
        );
        let mut dec = WireDecoder::new();
        let mut buf = [0u8; MAX_V2_FRAME];
        let ckpt = heartbeat(sender, ckpt_seq, 0);
        let n = enc.encode(&ckpt, &mut buf);
        prop_assert_eq!(n, INTERN_LEN);
        prop_assert_eq!(dec.decode(&buf[..n]), Ok(ckpt));
        let hb = heartbeat(sender, ckpt_seq + seq_delta, jitter_nanos);
        let n = enc.encode(&hb, &mut buf);
        prop_assert!((MIN_FRAME..=33).contains(&n), "{} bytes", n);
        prop_assert_eq!(buf[0] & 0x80, 0x80, "a delta's tag has the high bit set");
        prop_assert_eq!(buf[0] & 0x7f == 0x7f, seq_delta >= 127);
        prop_assert_eq!(dec.decode(&buf[..n]), Ok(hb));
    }

    /// Slot-reuse regression: after a long frame occupied an intake
    /// slot, a shorter (truncated) frame written into the same slot
    /// must fail to decode — never succeed by reading the previous
    /// frame's stale bytes past the declared length.
    #[test]
    fn truncated_frame_in_reused_slot_never_reads_stale_tail(cut in 1usize..40) {
        let sender = ProcessId::new(7);
        let mut enc = DeltaEncoder::new(
            sender,
            sender.as_u32(),
            std::time::Duration::from_nanos(INTERVAL_NANOS),
            4,
        );
        let mut buf = [0u8; MAX_V2_FRAME];
        let hb = heartbeat(sender, 1, 0);
        let n = enc.encode(&hb, &mut buf);
        prop_assert_eq!(n, INTERN_LEN);

        // Occupy the slot with the full intern frame; it decodes fine.
        let mut batch = FrameBatch::with_capacity(1);
        let mut dec = WireDecoder::new();
        prop_assert!(batch.push(&buf[..n]));
        {
            let frame = batch.iter().next().expect("slot holds the frame");
            prop_assert_eq!(dec.decode(frame), Ok(hb));
        }

        // Reuse the slot for a truncated prefix of the same frame. The
        // arena past `cut` still holds the old tail — decode sees only
        // the declared length and must reject, not resurrect `hb`.
        let cut = cut.min(n - 1);
        batch.clear();
        prop_assert!(batch.push(&buf[..cut]));
        let frame = batch.iter().next().expect("slot holds the short frame");
        prop_assert_eq!(frame.len(), cut);
        prop_assert!(
            dec.decode(frame).is_err(),
            "truncated {cut}-byte frame decoded by reading the stale slot tail"
        );
    }
}

/// Exact-length enforcement on the delta path: bytes past the checksum
/// are an error (a reused slot's tail is untrusted), and a frame cut
/// before its checksum is short, not a different valid frame.
#[test]
fn delta_frames_reject_trailing_and_missing_bytes() {
    let sender = ProcessId::new(9);
    let mut enc = DeltaEncoder::new(
        sender,
        sender.as_u32(),
        std::time::Duration::from_nanos(INTERVAL_NANOS),
        64,
    );
    let mut dec = WireDecoder::new();
    let mut buf = [0u8; MAX_V2_FRAME];

    let n = enc.encode(&heartbeat(sender, 1, 0), &mut buf);
    assert_eq!(dec.decode(&buf[..n]), Ok(heartbeat(sender, 1, 0)));

    let n = enc.encode(&heartbeat(sender, 2, 5_000), &mut buf);
    assert!(n < INTERN_LEN, "second frame should be a compact delta");

    // Stale bytes after the checksum — exactly what a reused arena slot
    // would leave if lengths were not enforced.
    let mut extended = [0xEEu8; MAX_V2_FRAME];
    extended[..n].copy_from_slice(&buf[..n]);
    assert_eq!(
        dec.decode(&extended[..n + 3]),
        Err(WireError::TrailingBytes)
    );

    // Cut before the checksum: short, never a bogus decode.
    assert_eq!(dec.decode(&buf[..n - 2]), Err(WireError::ShortFrame));

    // The intact frame still decodes after both rejections.
    assert_eq!(dec.decode(&buf[..n]), Ok(heartbeat(sender, 2, 5_000)));
}

/// One decoder on one socket accepts any interleaving of v1 and v2
/// frames, and v1 frames remain decodable by the legacy
/// [`Heartbeat::decode`] path — the fallback story for pre-v2 peers.
#[test]
fn one_decoder_accepts_interleaved_v1_and_v2_frames() {
    let v1_peer = ProcessId::new(1);
    let v2_peer = ProcessId::new(2);
    let mut enc = DeltaEncoder::new(
        v2_peer,
        v2_peer.as_u32(),
        std::time::Duration::from_nanos(INTERVAL_NANOS),
        3,
    );
    let mut dec = WireDecoder::new();
    let mut buf = [0u8; MAX_V2_FRAME];

    for seq in 1u64..=10 {
        let v1_hb = heartbeat(v1_peer, seq, -1_000);
        let v1_frame = v1_hb.encode();
        assert_eq!(dec.decode(&v1_frame), Ok(v1_hb));
        // A v1-only receiver still understands the v1 sender.
        assert_eq!(Heartbeat::decode(&v1_frame), Ok(v1_hb));
        assert_eq!(v1_frame.len(), FRAME_LEN);

        let v2_hb = heartbeat(v2_peer, seq, 1_000);
        let n = enc.encode(&v2_hb, &mut buf);
        assert_eq!(dec.decode(&buf[..n]), Ok(v2_hb));
    }
}

/// A delta arriving before its intern frame (receiver restart, first
/// contact) bounces with `UnknownIntern` instead of guessing; the
/// sender's next checkpoint heals the gap.
#[test]
fn delta_before_intern_bounces_until_resync() {
    let sender = ProcessId::new(5);
    let mut enc = DeltaEncoder::new(
        sender,
        sender.as_u32(),
        std::time::Duration::from_nanos(INTERVAL_NANOS),
        64,
    );
    let mut warm = WireDecoder::new();
    let mut buf = [0u8; MAX_V2_FRAME];

    let n = enc.encode(&heartbeat(sender, 1, 0), &mut buf);
    assert_eq!(warm.decode(&buf[..n]), Ok(heartbeat(sender, 1, 0)));
    let n = enc.encode(&heartbeat(sender, 2, 0), &mut buf);

    // A decoder that never saw the intern frame (fresh restart).
    let mut cold = WireDecoder::new();
    assert_eq!(
        cold.decode(&buf[..n]),
        Err(WireError::UnknownIntern(sender.as_u32()))
    );

    // The warm decoder, with its table intact, accepts the same bytes.
    assert_eq!(warm.decode(&buf[..n]), Ok(heartbeat(sender, 2, 0)));
}

/// A v1 sender and a v2 sender share one transport into one
/// `ShardedMonitor`: every heartbeat from both is accepted, nothing is
/// miscounted as corrupt, and the v2 sender moved strictly fewer bytes.
#[test]
fn mixed_version_senders_share_one_monitor() {
    let (mut tx, rx) = ChannelTransport::pair();
    let clock = VirtualClock::new();
    let single = ShardConfig {
        shards: 1,
        slots_per_shard: 2,
    };
    let mut monitor = ShardedMonitor::new(rx, clock.clone(), single, |_| {
        SimpleAccrual::new(Timestamp::ZERO)
    });
    let p1 = ProcessId::new(1);
    let p2 = ProcessId::new(2);
    monitor.watch(p1).unwrap();
    monitor.watch(p2).unwrap();

    let interval = Duration::from_secs(1);
    let mut v1 = SenderCore::new(SenderConfig::new(p1, interval), Timestamp::ZERO, 1);
    let mut v2 = SenderCore::new(
        SenderConfig::new(p2, interval).with_wire(WireVersion::V2 { resync_every: 8 }),
        Timestamp::ZERO,
        2,
    );

    let rounds = 16u64;
    let mut accepted = 0usize;
    for s in 0..rounds {
        let now = Timestamp::from_secs(s);
        clock.set(now);
        v1.poll(now, &mut tx, |_| {}).expect("v1 send");
        v2.poll(now, &mut tx, |_| {}).expect("v2 send");
        accepted += monitor.tick().expect("monitor tick").accepted;
    }

    assert_eq!(accepted as u64, 2 * rounds);
    let stats = monitor.stats().totals;
    assert_eq!(stats.corrupt, 0);
    assert_eq!(stats.stale, 0);
    assert_eq!(stats.duplicate, 0);
    assert!(
        v2.wire_bytes() * 2 < v1.wire_bytes(),
        "v2 moved {} bytes vs v1's {} — expected a >2x cut",
        v2.wire_bytes(),
        v1.wire_bytes()
    );
}
