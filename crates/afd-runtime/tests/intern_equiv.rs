//! Observable equivalence of the slab-backed [`WireDecoder`] and the
//! PR 9 `HashMap`-backed decoder it replaced.
//!
//! The oracle below *is* the old implementation — same checksums, same
//! bounded-table semantics (reject new indices once the map is full) —
//! reimplemented against `HashMap<u32, Entry>`, with its own copy of the
//! frame layout (tag byte, escape value) rather than the crate's
//! constants. The
//! proptests drive both decoders through arbitrary v1/v2 frame mixes
//! (jittered schedules, sequence gaps, index clobbering, bit flips,
//! truncations, trailing bytes, hand-built deltas with bogus checksums)
//! and demand identical observables after every single frame: the
//! decode result, `interned()`, and `interns_rejected()`.
//!
//! The one *intentional* divergence is the shape of the capacity bound:
//! the slab stores exactly indices `0..capacity`, where the map stored
//! any index until it held `capacity` entries. Under the dense
//! identity-index convention (intern index = sender id, below the
//! capacity) the two are indistinguishable — every index generated here
//! stays in `[0, capacity)`, and the dedicated boundary test pins the
//! slab's behavior on the first index past the edge.

use std::collections::HashMap;

use afd_core::process::ProcessId;
use afd_core::time::Timestamp;
use afd_runtime::varint;
use afd_runtime::{DeltaEncoder, Heartbeat, WireDecoder, WireError, INTERN_LEN, MAX_V2_FRAME};
use proptest::prelude::*;

/// High bit of a delta frame's tag byte.
const DELTA_TAG: u8 = 0x80;
/// Low seven bits of the tag meaning "varint seq delta follows the index".
const SEQ_DELTA_ESCAPE: u8 = 0x7f;

const INTERVAL_NANOS: u64 = 100_000_000;
/// Small enough that clobbering and full-table states are common.
const CAP: usize = 8;

// ---- the PR 9 decoder, verbatim semantics over a HashMap ----

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash ^ (hash >> 32)) as u32
}

fn fnv16_bound(payload: &[u8], sender: u32) -> u16 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in payload.iter().chain(sender.to_le_bytes().iter()) {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let folded = (hash ^ (hash >> 32)) as u32;
    (folded ^ (folded >> 16)) as u16
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    sender: u32,
    ckpt_seq: u64,
    ckpt_sent_at_nanos: u64,
    interval_nanos: u64,
}

struct OracleDecoder {
    table: HashMap<u32, Entry>,
    capacity: usize,
    interns_rejected: u64,
}

impl OracleDecoder {
    fn new(capacity: usize) -> Self {
        OracleDecoder {
            table: HashMap::new(),
            capacity: capacity.max(1),
            interns_rejected: 0,
        }
    }

    fn decode(&mut self, frame: &[u8]) -> Result<Heartbeat, WireError> {
        match frame.first() {
            None => Err(WireError::ShortFrame),
            Some(&tag) if tag & DELTA_TAG != 0 => self.decode_delta(frame),
            Some(_) => {
                if frame.len() < 4 {
                    return Err(WireError::ShortFrame);
                }
                if frame[0..2] != *b"AF" {
                    return Err(WireError::BadMagic);
                }
                match frame[2] {
                    1 => Heartbeat::decode(frame),
                    2 => self.decode_intern(frame),
                    v => Err(WireError::BadVersion(v)),
                }
            }
        }
    }

    fn decode_intern(&mut self, frame: &[u8]) -> Result<Heartbeat, WireError> {
        let frame: &[u8; INTERN_LEN] = frame.try_into().map_err(|_| {
            if frame.len() < INTERN_LEN {
                WireError::ShortFrame
            } else {
                WireError::TrailingBytes
            }
        })?;
        if frame[3] != 1 {
            return Err(WireError::BadKind(frame[3]));
        }
        let expected = u32::from_le_bytes([frame[36], frame[37], frame[38], frame[39]]);
        if fnv1a(&frame[..36]) != expected {
            return Err(WireError::ChecksumMismatch);
        }
        let intern_idx = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        let sender = u32::from_le_bytes([frame[8], frame[9], frame[10], frame[11]]);
        let seq = u64::from_le_bytes(frame[12..20].try_into().expect("8 bytes"));
        let nanos = u64::from_le_bytes(frame[20..28].try_into().expect("8 bytes"));
        let interval = u64::from_le_bytes(frame[28..36].try_into().expect("8 bytes"));
        let entry = Entry {
            sender,
            ckpt_seq: seq,
            ckpt_sent_at_nanos: nanos,
            interval_nanos: interval,
        };
        // The old double probe, bound by table fullness.
        if self.table.contains_key(&intern_idx) || self.table.len() < self.capacity {
            self.table.insert(intern_idx, entry);
        } else {
            self.interns_rejected += 1;
        }
        Ok(Heartbeat {
            sender: ProcessId::new(sender),
            seq,
            sent_at: Timestamp::from_nanos(nanos),
        })
    }

    fn decode_delta(&mut self, frame: &[u8]) -> Result<Heartbeat, WireError> {
        let mut at = 1usize;
        let (idx, n) = varint::decode_u64(&frame[at..]).map_err(|_| WireError::ShortFrame)?;
        at += n;
        let intern_idx = u32::try_from(idx).map_err(|_| WireError::InternOutOfRange(idx))?;
        let mut seq_delta = u64::from(frame[0] & !DELTA_TAG);
        if seq_delta == u64::from(SEQ_DELTA_ESCAPE) {
            let (wide, n) = varint::decode_u64(&frame[at..]).map_err(|_| WireError::ShortFrame)?;
            seq_delta = wide;
            at += n;
        }
        let (residual, n) = varint::decode_i64(&frame[at..]).map_err(|_| WireError::ShortFrame)?;
        at += n;
        match frame.len() {
            l if l < at + 2 => return Err(WireError::ShortFrame),
            l if l > at + 2 => return Err(WireError::TrailingBytes),
            _ => {}
        }
        let entry = *self
            .table
            .get(&intern_idx)
            .ok_or(WireError::UnknownIntern(intern_idx))?;
        let expected = u16::from_le_bytes([frame[at], frame[at + 1]]);
        if fnv16_bound(&frame[..at], entry.sender) != expected {
            return Err(WireError::ChecksumMismatch);
        }
        let predicted = entry
            .ckpt_sent_at_nanos
            .wrapping_add(seq_delta.wrapping_mul(entry.interval_nanos));
        Ok(Heartbeat {
            sender: ProcessId::new(entry.sender),
            seq: entry.ckpt_seq.wrapping_add(seq_delta),
            sent_at: Timestamp::from_nanos(predicted.wrapping_add(residual as u64)),
        })
    }
}

// ---- frame-mix generation ----

#[derive(Debug, Clone, Copy)]
enum Mutation {
    Flip { at: usize, bit: u8 },
    Cut { keep: usize },
    Extend { extra: usize },
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// The next heartbeat of `sender`'s v2 stream (encoder state is
    /// carried across ops, so interns, deltas, resyncs, and clobbers
    /// all happen on the senders' own schedule).
    V2 {
        sender: u32,
        gap: u64,
        jitter: i64,
        mutate: Option<Mutation>,
    },
    /// A plain v1 frame interleaved on the same socket.
    V1 {
        sender: u32,
        seq: u64,
        mutate: Option<Mutation>,
    },
    /// A hand-built delta with an arbitrary (usually wrong) checksum —
    /// unknown-index and checksum-mismatch paths on demand.
    Raw {
        idx: u32,
        seq_delta: u64,
        residual: i64,
        sum: u16,
    },
}

fn mutation(rng: &mut TestRng) -> Option<Mutation> {
    // Mutate roughly one frame in five.
    if rng.below(5) != 0 {
        return None;
    }
    Some(match rng.below(3) {
        0 => Mutation::Flip {
            at: rng.below(64) as usize,
            bit: rng.below(8) as u8,
        },
        1 => Mutation::Cut {
            keep: rng.below(64) as usize,
        },
        _ => Mutation::Extend {
            extra: 1 + rng.below(3) as usize,
        },
    })
}

fn op() -> impl Strategy<Value = Op> {
    // Senders span twice the index space, so two senders share each
    // intern index and clobbering is routine. Indices stay in
    // [0, CAP): the domain where slab and map bounds coincide.
    proptest::FnStrategy::new(|rng: &mut TestRng| match rng.below(9) {
        0..=5 => Op::V2 {
            sender: rng.below(2 * CAP as u64) as u32,
            // Mostly small steps; one in eight jumps far enough that a
            // slow-resync sender's seq delta leaves the tag byte.
            gap: if rng.below(8) == 0 {
                rng.below(400)
            } else {
                rng.below(4)
            },
            jitter: rng.below(20_000_001) as i64 - 10_000_000,
            mutate: mutation(rng),
        },
        6 | 7 => Op::V1 {
            sender: rng.below(2 * CAP as u64) as u32,
            seq: rng.below(1000),
            mutate: mutation(rng),
        },
        _ => Op::Raw {
            idx: rng.below(CAP as u64) as u32,
            seq_delta: [rng.below(16), 126, 127, 128, 1 << 14][rng.below(5) as usize],
            residual: rng.below(100_000) as i64 - 50_000,
            sum: rng.below(1 << 16) as u16,
        },
    })
}

/// Per-sender v2 stream state, lazily built as ops arrive.
struct Streams {
    encoders: HashMap<u32, (DeltaEncoder, u64)>,
}

impl Streams {
    fn new() -> Self {
        Streams {
            encoders: HashMap::new(),
        }
    }

    /// Encodes `sender`'s next heartbeat into `buf`, returning the
    /// frame length.
    fn next_frame(&mut self, sender: u32, gap: u64, jitter: i64, buf: &mut [u8]) -> usize {
        let (enc, seq) = self.encoders.entry(sender).or_insert_with(|| {
            (
                DeltaEncoder::new(
                    ProcessId::new(sender),
                    sender % CAP as u32,
                    std::time::Duration::from_nanos(INTERVAL_NANOS),
                    1 + sender % 5,
                ),
                0,
            )
        });
        *seq += 1 + gap;
        let nominal = (*seq as i64).saturating_mul(INTERVAL_NANOS as i64);
        let hb = Heartbeat {
            sender: ProcessId::new(sender),
            seq: *seq,
            sent_at: Timestamp::from_nanos(nominal.saturating_add(jitter).max(0) as u64),
        };
        enc.encode(&hb, buf)
    }
}

fn build_frame(streams: &mut Streams, op: Op, buf: &mut [u8; 80]) -> usize {
    match op {
        Op::V2 {
            sender,
            gap,
            jitter,
            mutate,
        } => {
            let n = streams.next_frame(sender, gap, jitter, buf);
            apply(buf, n, mutate)
        }
        Op::V1 {
            sender,
            seq,
            mutate,
        } => {
            let hb = Heartbeat {
                sender: ProcessId::new(sender),
                seq,
                sent_at: Timestamp::from_nanos(seq.wrapping_mul(INTERVAL_NANOS)),
            };
            let frame = hb.encode();
            buf[..frame.len()].copy_from_slice(&frame);
            apply(buf, frame.len(), mutate)
        }
        Op::Raw {
            idx,
            seq_delta,
            residual,
            sum,
        } => {
            let inline = seq_delta < u64::from(SEQ_DELTA_ESCAPE);
            buf[0] = DELTA_TAG
                | if inline {
                    seq_delta as u8
                } else {
                    SEQ_DELTA_ESCAPE
                };
            let mut at = 1usize;
            at += varint::encode_u64(u64::from(idx), &mut buf[at..]).expect("fits");
            if !inline {
                at += varint::encode_u64(seq_delta, &mut buf[at..]).expect("fits");
            }
            at += varint::encode_i64(residual, &mut buf[at..]).expect("fits");
            buf[at..at + 2].copy_from_slice(&sum.to_le_bytes());
            at + 2
        }
    }
}

fn apply(buf: &mut [u8; 80], n: usize, mutate: Option<Mutation>) -> usize {
    match mutate {
        None => n,
        Some(Mutation::Flip { at, bit }) => {
            buf[at % n] ^= 1 << bit;
            n
        }
        Some(Mutation::Cut { keep }) => keep % n,
        Some(Mutation::Extend { extra }) => {
            for b in &mut buf[n..n + extra] {
                *b = 0xEE;
            }
            n + extra
        }
    }
}

/// Feeds one frame to both decoders and demands identical observables.
fn step(dec: &mut WireDecoder, oracle: &mut OracleDecoder, frame: &[u8]) {
    let got = dec.decode(frame);
    let want = oracle.decode(frame);
    prop_assert_eq!(got, want, "decode diverged on {:02x?}", frame);
    prop_assert_eq!(dec.interned(), oracle.table.len(), "interned() diverged");
    prop_assert_eq!(
        dec.interns_rejected(),
        oracle.interns_rejected,
        "interns_rejected diverged"
    );
}

proptest! {
    /// On any v1/v2 mix — clean, clobbered, flipped, truncated,
    /// extended, or hand-forged — the slab decoder and the old map
    /// decoder agree on every accept, every error, and every counter,
    /// after every frame.
    #[test]
    fn slab_decoder_is_observably_the_hashmap_decoder(ops in prop::collection::vec(op(), 1..250)) {
        let mut dec = WireDecoder::with_capacity(CAP);
        let mut oracle = OracleDecoder::new(CAP);
        let mut streams = Streams::new();
        let mut buf = [0u8; 80];
        for op in ops {
            let n = build_frame(&mut streams, op, &mut buf);
            step(&mut dec, &mut oracle, &buf[..n]);
        }
    }

    /// A mid-stream receiver restart: `WireDecoder::reset` must behave
    /// exactly like standing up a fresh map decoder — stale deltas
    /// bounce, re-interns heal, counters keep agreeing. (The rejected
    /// counter is cumulative across the reset by contract, so the
    /// oracle's is carried over.)
    #[test]
    fn reset_is_observably_a_fresh_decoder(
        before in prop::collection::vec(op(), 1..120),
        after in prop::collection::vec(op(), 1..120),
    ) {
        let mut dec = WireDecoder::with_capacity(CAP);
        let mut oracle = OracleDecoder::new(CAP);
        let mut streams = Streams::new();
        let mut buf = [0u8; 80];
        for op in before {
            let n = build_frame(&mut streams, op, &mut buf);
            step(&mut dec, &mut oracle, &buf[..n]);
        }
        dec.reset();
        let rejected_so_far = oracle.interns_rejected;
        oracle = OracleDecoder::new(CAP);
        oracle.interns_rejected = rejected_so_far;
        // Sender encoder state is *not* reset: their in-flight deltas
        // now reference interns the receiver forgot, on both sides.
        for op in after {
            let n = build_frame(&mut streams, op, &mut buf);
            step(&mut dec, &mut oracle, &buf[..n]);
        }
    }
}

/// The slab's capacity edge, pinned: the last in-range index is
/// remembered, the first out-of-range index decodes as a heartbeat but
/// is counted as rejected, and its deltas bounce as unknown.
#[test]
fn capacity_boundary_rejects_only_past_the_edge() {
    let cap = 4u32;
    let mut dec = WireDecoder::with_capacity(cap as usize);
    let mut buf = [0u8; MAX_V2_FRAME];
    for idx in [cap - 1, cap] {
        let mut enc = DeltaEncoder::new(
            ProcessId::new(idx),
            idx,
            std::time::Duration::from_nanos(INTERVAL_NANOS),
            8,
        );
        let hb = Heartbeat {
            sender: ProcessId::new(idx),
            seq: 1,
            sent_at: Timestamp::from_nanos(1_000),
        };
        let n = enc.encode(&hb, &mut buf);
        assert_eq!(n, INTERN_LEN);
        // Either way the checkpoint heartbeat itself is delivered.
        assert_eq!(dec.decode(&buf[..n]), Ok(hb));
        let hb2 = Heartbeat {
            sender: ProcessId::new(idx),
            seq: 2,
            sent_at: Timestamp::from_nanos(INTERVAL_NANOS + 1_000),
        };
        let n2 = enc.encode(&hb2, &mut buf);
        assert!(n2 < INTERN_LEN, "second frame is a delta");
        if idx < cap {
            assert_eq!(dec.decode(&buf[..n2]), Ok(hb2), "in-range index works");
        } else {
            assert_eq!(
                dec.decode(&buf[..n2]),
                Err(WireError::UnknownIntern(idx)),
                "index past the edge was never remembered"
            );
        }
    }
    assert_eq!(dec.interned(), 1);
    assert_eq!(dec.interns_rejected(), 1);
}
