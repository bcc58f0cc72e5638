//! The heartbeat wire formats.
//!
//! **v1** is a fixed 28-byte frame with an FNV-1a checksum, so that a
//! corrupted datagram is *detected and dropped* instead of poisoning a
//! detector's inter-arrival window. The format carries everything
//! Algorithm 4 needs: who sent the heartbeat, its sequence number (for
//! the stale-heartbeat filter of lines 8–10), and the sender-side send
//! time.
//!
//! **v2** is the compact delta format for million-peer intake. A sender
//! periodically emits a 40-byte [`INTERN`](INTERN_LEN) checkpoint frame
//! (which both registers `intern index → (sender id, checkpoint seq,
//! checkpoint send time, nominal interval)` at the receiver and counts
//! as a heartbeat itself) and encodes every other heartbeat as a delta
//! frame:
//!
//! ```text
//! tag  ++  varint intern_idx  ++  [varint seq_delta]  ++  zigzag residual  ++  FNV-16
//! ```
//!
//! The tag byte's high bit ([`DELTA_TAG`]) marks a delta — v1 and intern
//! frames start with `b'A'` = 0x41, high bit clear — and its low seven
//! bits carry the seq delta from the checkpoint when that is below
//! [`SEQ_DELTA_ESCAPE`] (it nearly always is: a sender re-interns every
//! `resync_every` frames); the value 127 means the seq delta follows the
//! index as a varint of its own. The *residual* is the send time against
//! the checkpoint's arithmetic prediction `ckpt_sent_at + seq_delta ×
//! interval` — near zero for a periodic sender, so the typical frame is
//! 5–7 bytes against v1's 28 (≥ 4× smaller; see the `wire_v2`
//! integration tests). No delta is longer than 33 bytes, so none can be
//! taken for a 40-byte intern frame by its length.
//!
//! Deltas are relative to the last *checkpoint*, never the previous
//! frame, so any subset of frames may be lost, duplicated, or reordered
//! and each survivor still decodes on its own. A 16-bit folded FNV
//! checksum covers the frame bytes **concatenated with the sender id
//! from the receiver's intern table entry**, which binds the frame to
//! the identity it was encoded against: if a table slot is clobbered by
//! a different sender re-interning the same index, the old sender's
//! in-flight deltas fail the checksum and are dropped rather than
//! misattributed. Receivers that don't know an index (restart, table
//! overflow, pre-handshake) reject the delta with
//! [`WireError::UnknownIntern`]; the sender's periodic re-intern
//! ([`DeltaEncoder`]'s `resync_every`) heals the gap. Unknown peers can
//! keep sending plain v1 frames — [`WireDecoder`] accepts both formats
//! on the same socket, dispatching on the leading bytes.
//!
//! Decoding is strict about lengths in both formats: a frame whose
//! declared structure needs more bytes than were actually received is
//! rejected ([`WireError::ShortFrame`]), and one with bytes left over
//! after the checksum is rejected ([`WireError::TrailingBytes`]) — a
//! reused intake slot can never leak a previous datagram's tail into a
//! decoded heartbeat.

use std::error::Error;
use std::fmt;

use afd_core::process::ProcessId;
use afd_core::time::Timestamp;

use crate::intern::{InternEntry, InternSlab};
use crate::transport::MAX_DATAGRAM;
use crate::varint;

/// Frame length in bytes: magic(2) + version(1) + kind(1) + sender(4) +
/// seq(8) + sent_at(8) + checksum(4).
pub const FRAME_LEN: usize = 28;

/// Length in bytes of a v2 intern/checkpoint frame: magic(2) +
/// version(1) + kind(1) + intern_idx(4) + sender(4) + seq(8) +
/// sent_at(8) + interval(8) + checksum(4).
pub const INTERN_LEN: usize = 40;

/// Worst-case v2 frame length (the fixed intern frame; a delta frame
/// with all varints at maximum width is 33 bytes). Size send buffers to
/// `MAX_V2_FRAME.max(FRAME_LEN)` to hold any frame either version emits.
pub const MAX_V2_FRAME: usize = INTERN_LEN;

// The transports carry frames of at most `MAX_DATAGRAM` bytes — their
// cells, arenas and queues are sized by it — so every frame this module
// emits has to fit. A longer frame is a change to that bound first.
const _: () = assert!(MAX_V2_FRAME <= MAX_DATAGRAM && FRAME_LEN <= MAX_DATAGRAM);

/// High bit of a frame's first byte: set on a v2 delta frame, clear on
/// `b'A'` (0x41, the v1 / intern magic), so a one-bit peek dispatches the
/// format. The other seven bits of a delta's first byte are its seq delta.
pub const DELTA_TAG: u8 = 0x80;

/// Value of a delta tag's low seven bits meaning "the seq delta does not
/// fit here; it follows the intern index as a varint".
pub const SEQ_DELTA_ESCAPE: u8 = 0x7f;

/// Shortest frame any wire version can produce: a delta with one-byte
/// varints (tag + 2 varints + 2 checksum bytes). Anything shorter is
/// droppable without decoding.
pub const MIN_FRAME: usize = 5;

const MAGIC: [u8; 2] = *b"AF";
const VERSION: u8 = 1;
const VERSION_DELTA: u8 = 2;
const KIND_HEARTBEAT: u8 = 0;
const KIND_INTERN: u8 = 1;

/// One heartbeat message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// The sending (monitored) process.
    pub sender: ProcessId,
    /// Monotone per-sender sequence number.
    pub seq: u64,
    /// Send time on the sender's clock.
    pub sent_at: Timestamp,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The frame is not exactly [`FRAME_LEN`] bytes.
    BadLength(usize),
    /// The magic bytes are wrong (not a heartbeat frame at all).
    BadMagic,
    /// The version byte is unknown.
    BadVersion(u8),
    /// The message-kind byte is unknown.
    BadKind(u8),
    /// The checksum does not match the payload (bit corruption).
    ChecksumMismatch,
    /// The frame's declared structure needs more bytes than were
    /// received — a truncated datagram or a stale-tail read attempt.
    ShortFrame,
    /// Bytes remain after the frame's checksum: the declared payload is
    /// shorter than the received datagram, so the tail is untrusted.
    TrailingBytes,
    /// A delta frame referenced an intern index this receiver has not
    /// seen; the sender's periodic re-intern will heal it.
    UnknownIntern(u32),
    /// A delta frame's intern index does not even fit in `u32` (the
    /// raw varint value is carried) — no intern table can contain it,
    /// so this is encoder corruption or garbage, not a healable miss.
    InternOutOfRange(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadLength(n) => write!(f, "frame is {n} bytes, expected {FRAME_LEN}"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unknown frame version {v}"),
            WireError::BadKind(k) => write!(f, "unknown message kind {k}"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::ShortFrame => write!(f, "frame declares more bytes than received"),
            WireError::TrailingBytes => write!(f, "frame has trailing bytes past its payload"),
            WireError::UnknownIntern(idx) => write!(f, "delta references unknown intern {idx}"),
            WireError::InternOutOfRange(raw) => {
                write!(f, "delta intern index {raw} exceeds u32 space")
            }
        }
    }
}

impl Error for WireError {}

/// FNV-1a over `bytes`, truncated to 32 bits.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash ^ (hash >> 32)) as u32
}

/// 16-bit delta-frame checksum: FNV-1a over the frame payload followed
/// by the sender id (little-endian), folded to 16 bits. Including the
/// sender id — which travels in the intern table, *not* in the delta
/// frame — binds each delta to the identity it was encoded against.
fn fnv16_bound(payload: &[u8], sender: u32) -> u16 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in payload.iter().chain(sender.to_le_bytes().iter()) {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let folded = (hash ^ (hash >> 32)) as u32;
    (folded ^ (folded >> 16)) as u16
}

impl Heartbeat {
    /// Encodes the heartbeat into its fixed-size frame.
    pub fn encode(&self) -> [u8; FRAME_LEN] {
        let mut buf = [0u8; FRAME_LEN];
        buf[0..2].copy_from_slice(&MAGIC);
        buf[2] = VERSION;
        buf[3] = KIND_HEARTBEAT;
        buf[4..8].copy_from_slice(&self.sender.as_u32().to_le_bytes());
        buf[8..16].copy_from_slice(&self.seq.to_le_bytes());
        buf[16..24].copy_from_slice(&self.sent_at.as_nanos().to_le_bytes());
        let sum = fnv1a(&buf[..24]);
        buf[24..28].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decodes a frame, verifying structure and checksum.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if the frame is malformed or corrupted.
    pub fn decode(frame: &[u8]) -> Result<Heartbeat, WireError> {
        // Pinning the length in the type up front makes every later read a
        // compile-time-bounded array index — no fallible slice-to-array
        // conversions left in the body.
        let frame: &[u8; FRAME_LEN] = frame
            .try_into()
            .map_err(|_| WireError::BadLength(frame.len()))?;
        if frame[0..2] != MAGIC {
            return Err(WireError::BadMagic);
        }
        if frame[2] != VERSION {
            return Err(WireError::BadVersion(frame[2]));
        }
        if frame[3] != KIND_HEARTBEAT {
            return Err(WireError::BadKind(frame[3]));
        }
        let expected = u32::from_le_bytes([frame[24], frame[25], frame[26], frame[27]]);
        if fnv1a(&frame[..24]) != expected {
            return Err(WireError::ChecksumMismatch);
        }
        let sender = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        let seq = u64::from_le_bytes([
            frame[8], frame[9], frame[10], frame[11], frame[12], frame[13], frame[14], frame[15],
        ]);
        let nanos = u64::from_le_bytes([
            frame[16], frame[17], frame[18], frame[19], frame[20], frame[21], frame[22], frame[23],
        ]);
        Ok(Heartbeat {
            sender: ProcessId::new(sender),
            seq,
            sent_at: Timestamp::from_nanos(nanos),
        })
    }
}

/// The checkpoint a [`DeltaEncoder`] is currently encoding against.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    seq: u64,
    sent_at_nanos: u64,
}

/// Sender-side v2 encoder: emits an intern/checkpoint frame every
/// `resync_every` heartbeats (and whenever the delta would not be
/// expressible) and compact delta frames in between.
///
/// Stateful but allocation-free: `encode` writes into a caller buffer
/// of at least [`MAX_V2_FRAME`] bytes.
#[derive(Debug)]
pub struct DeltaEncoder {
    sender: ProcessId,
    intern_idx: u32,
    interval_nanos: u64,
    resync_every: u32,
    ckpt: Option<Checkpoint>,
    since_ckpt: u32,
}

impl DeltaEncoder {
    /// Creates an encoder for `sender` claiming intern index
    /// `intern_idx` (by convention the sender's own id, which keeps the
    /// index space collision-free), predicting send times with
    /// `nominal_interval` and re-interning every `resync_every` frames
    /// (floored at 1; 1 means every frame is a checkpoint).
    pub fn new(
        sender: ProcessId,
        intern_idx: u32,
        nominal_interval: std::time::Duration,
        resync_every: u32,
    ) -> Self {
        DeltaEncoder {
            sender,
            intern_idx,
            interval_nanos: u64::try_from(nominal_interval.as_nanos()).unwrap_or(u64::MAX),
            resync_every: resync_every.max(1),
            ckpt: None,
            since_ckpt: 0,
        }
    }

    /// Encodes `hb` into `buf`, returning the frame length. Chooses an
    /// intern frame when due (first frame, every `resync_every`-th, or
    /// a sequence regression) and a delta otherwise.
    ///
    /// Returns 0 — and encodes nothing — if `buf` is shorter than
    /// [`MAX_V2_FRAME`] or `hb.sender` is not this encoder's sender;
    /// both are caller bugs surfaced as a value.
    pub fn encode(&mut self, hb: &Heartbeat, buf: &mut [u8]) -> usize {
        if buf.len() < MAX_V2_FRAME || hb.sender != self.sender {
            return 0;
        }
        let delta_ok = match self.ckpt {
            Some(ckpt) if self.since_ckpt < self.resync_every => hb.seq >= ckpt.seq,
            _ => false,
        };
        if !delta_ok {
            return self.encode_intern(hb, buf);
        }
        // `delta_ok` guarantees ckpt is Some; re-match to keep the
        // borrow local instead of unwrapping.
        let Some(ckpt) = self.ckpt else {
            return self.encode_intern(hb, buf);
        };
        let seq_delta = hb.seq - ckpt.seq;
        let expected = ckpt
            .sent_at_nanos
            .wrapping_add(seq_delta.wrapping_mul(self.interval_nanos));
        let residual = hb.sent_at.as_nanos().wrapping_sub(expected) as i64;
        let inline = seq_delta < u64::from(SEQ_DELTA_ESCAPE);
        buf[0] = DELTA_TAG
            | if inline {
                seq_delta as u8
            } else {
                SEQ_DELTA_ESCAPE
            };
        let mut at = 1usize;
        // Buffer is MAX_V2_FRAME (40) ≥ 1 + 3×10 + 2 worst case, so the
        // encodes cannot fail; treat None defensively as a resync.
        at += match varint::encode_u64(u64::from(self.intern_idx), &mut buf[at..]) {
            Some(n) => n,
            None => return self.encode_intern(hb, buf),
        };
        if !inline {
            at += match varint::encode_u64(seq_delta, &mut buf[at..]) {
                Some(n) => n,
                None => return self.encode_intern(hb, buf),
            };
        }
        at += match varint::encode_i64(residual, &mut buf[at..]) {
            Some(n) => n,
            None => return self.encode_intern(hb, buf),
        };
        let sum = fnv16_bound(&buf[..at], self.sender.as_u32());
        buf[at..at + 2].copy_from_slice(&sum.to_le_bytes());
        self.since_ckpt += 1;
        at + 2
    }

    /// Forgets the checkpoint, so the next frame is an intern frame — for
    /// a sender that knows its last frame never left: a delta is only
    /// decodable against a checkpoint the receiver was sent.
    pub(crate) fn forget_checkpoint(&mut self) {
        self.ckpt = None;
    }

    /// Emits the 40-byte intern/checkpoint frame for `hb` and rebases
    /// future deltas on it.
    fn encode_intern(&mut self, hb: &Heartbeat, buf: &mut [u8]) -> usize {
        buf[0..2].copy_from_slice(&MAGIC);
        buf[2] = VERSION_DELTA;
        buf[3] = KIND_INTERN;
        buf[4..8].copy_from_slice(&self.intern_idx.to_le_bytes());
        buf[8..12].copy_from_slice(&self.sender.as_u32().to_le_bytes());
        buf[12..20].copy_from_slice(&hb.seq.to_le_bytes());
        buf[20..28].copy_from_slice(&hb.sent_at.as_nanos().to_le_bytes());
        buf[28..36].copy_from_slice(&self.interval_nanos.to_le_bytes());
        let sum = fnv1a(&buf[..36]);
        buf[36..40].copy_from_slice(&sum.to_le_bytes());
        self.ckpt = Some(Checkpoint {
            seq: hb.seq,
            sent_at_nanos: hb.sent_at.as_nanos(),
        });
        self.since_ckpt = 1;
        INTERN_LEN
    }
}

/// Receiver-side decoder for any mix of v1 and v2 frames on one socket.
///
/// Dispatches on the leading bytes: [`DELTA_TAG`] set → delta, `"AF"` +
/// version byte → v1 heartbeat or v2 intern frame. The intern table is
/// a flat [`InternSlab`] indexed directly by the intern index — one
/// bounds check and one load per delta, no hashing — and it is bounded:
/// intern frames whose index falls outside `0..capacity` still decode
/// as heartbeats but are not remembered (counted by
/// [`interns_rejected`](WireDecoder::interns_rejected)), so their
/// deltas bounce with [`WireError::UnknownIntern`] until the peer falls
/// back to v1. Under the dense identity-index convention (senders
/// intern their own id, ids below the capacity) this is the same bound
/// a map-backed table enforces by fullness — see the `intern` module
/// docs and the `intern_equiv` proptest.
#[derive(Debug)]
pub struct WireDecoder {
    table: InternSlab,
    interns_rejected: u64,
}

/// Default intern-table capacity — sized for the million-peer target.
pub const DEFAULT_INTERN_CAPACITY: usize = 1 << 20;

impl Default for WireDecoder {
    fn default() -> Self {
        WireDecoder::new()
    }
}

impl WireDecoder {
    /// Creates a decoder with the default intern capacity
    /// ([`DEFAULT_INTERN_CAPACITY`]).
    pub fn new() -> Self {
        WireDecoder::with_capacity(DEFAULT_INTERN_CAPACITY)
    }

    /// Creates a decoder remembering intern indices `0..capacity`
    /// (floored at 1). The whole table is allocated here — decoding
    /// never allocates.
    pub fn with_capacity(capacity: usize) -> Self {
        WireDecoder {
            table: InternSlab::new(capacity),
            interns_rejected: 0,
        }
    }

    /// Live intern-table entries.
    pub fn interned(&self) -> usize {
        self.table.len()
    }

    /// Intern frames accepted as heartbeats but not remembered because
    /// their index fell outside the table's bound.
    pub fn interns_rejected(&self) -> u64 {
        self.interns_rejected
    }

    /// Forgets every intern entry in O(1) — the restart path for a
    /// decoder being reused across runs (a generation bump in the slab,
    /// not a million-slot sweep). Deltas bounce with
    /// [`WireError::UnknownIntern`] until their senders re-intern, just
    /// as after a real receiver restart. The
    /// [`interns_rejected`](Self::interns_rejected) counter is
    /// cumulative and survives the reset.
    pub fn reset(&mut self) {
        self.table.reset();
    }

    /// Decodes one received frame of either wire version.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if the frame is malformed, corrupted,
    /// truncated relative to its declared structure, carries trailing
    /// bytes, or references an unknown intern index.
    pub fn decode(&mut self, frame: &[u8]) -> Result<Heartbeat, WireError> {
        match frame.first() {
            None => Err(WireError::ShortFrame),
            Some(&tag) if tag & DELTA_TAG != 0 => self.decode_delta(tag, frame),
            Some(_) => {
                if frame.len() < 4 {
                    return Err(WireError::ShortFrame);
                }
                if frame[0..2] != MAGIC {
                    return Err(WireError::BadMagic);
                }
                match frame[2] {
                    VERSION => Heartbeat::decode(frame),
                    VERSION_DELTA => self.decode_intern(frame),
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
        if frame[3] != KIND_INTERN {
            return Err(WireError::BadKind(frame[3]));
        }
        let expected = u32::from_le_bytes([frame[36], frame[37], frame[38], frame[39]]);
        if fnv1a(&frame[..36]) != expected {
            return Err(WireError::ChecksumMismatch);
        }
        let intern_idx = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        let sender = u32::from_le_bytes([frame[8], frame[9], frame[10], frame[11]]);
        let seq = u64::from_le_bytes([
            frame[12], frame[13], frame[14], frame[15], frame[16], frame[17], frame[18], frame[19],
        ]);
        let nanos = u64::from_le_bytes([
            frame[20], frame[21], frame[22], frame[23], frame[24], frame[25], frame[26], frame[27],
        ]);
        let interval = u64::from_le_bytes([
            frame[28], frame[29], frame[30], frame[31], frame[32], frame[33], frame[34], frame[35],
        ]);
        let entry = InternEntry {
            sender,
            ckpt_seq: seq,
            ckpt_sent_at_nanos: nanos,
            interval_nanos: interval,
        };
        // Single probe: the slab's insert is the bounds check. In-range
        // indices always store (fill or overwrite); out-of-bound ones
        // are the table's capacity rejection.
        if !self.table.insert(intern_idx, entry) {
            self.interns_rejected += 1;
        }
        Ok(Heartbeat {
            sender: ProcessId::new(sender),
            seq,
            sent_at: Timestamp::from_nanos(nanos),
        })
    }

    fn decode_delta(&mut self, tag: u8, frame: &[u8]) -> Result<Heartbeat, WireError> {
        let mut at = 1usize; // past the tag
        let (idx, n) = varint::decode_u64(&frame[at..]).map_err(|_| WireError::ShortFrame)?;
        at += n;
        // An index beyond u32 space can never have been interned: that
        // is corruption, not a healable miss, and the error carries the
        // raw value rather than masquerading as index `u32::MAX`.
        let intern_idx = u32::try_from(idx).map_err(|_| WireError::InternOutOfRange(idx))?;
        let seq_delta = match tag & !DELTA_TAG {
            SEQ_DELTA_ESCAPE => {
                let (wide, n) =
                    varint::decode_u64(&frame[at..]).map_err(|_| WireError::ShortFrame)?;
                at += n;
                wide
            }
            inline => u64::from(inline),
        };
        let (residual, n) = varint::decode_i64(&frame[at..]).map_err(|_| WireError::ShortFrame)?;
        at += n;
        // The declared structure must end in exactly the two checksum
        // bytes — no more (stale tail), no fewer (truncation).
        match frame.len() {
            l if l < at + 2 => return Err(WireError::ShortFrame),
            l if l > at + 2 => return Err(WireError::TrailingBytes),
            _ => {}
        }
        let entry = self
            .table
            .get(intern_idx)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn hb() -> Heartbeat {
        Heartbeat {
            sender: ProcessId::new(7),
            seq: 42,
            sent_at: Timestamp::from_millis(1234),
        }
    }

    #[test]
    fn roundtrip() {
        let frame = hb().encode();
        assert_eq!(Heartbeat::decode(&frame), Ok(hb()));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let frame = hb().encode();
        for i in 0..FRAME_LEN {
            for bit in 0..8 {
                let mut bad = frame;
                bad[i] ^= 1 << bit;
                assert!(
                    Heartbeat::decode(&bad).is_err(),
                    "flip of byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn structural_errors_are_distinguished() {
        assert_eq!(Heartbeat::decode(&[0u8; 5]), Err(WireError::BadLength(5)));
        let mut f = hb().encode();
        f[0] = b'X';
        assert_eq!(Heartbeat::decode(&f), Err(WireError::BadMagic));
        let mut f = hb().encode();
        f[2] = 9;
        assert_eq!(Heartbeat::decode(&f), Err(WireError::BadVersion(9)));
    }

    // ---- v2 delta format ----

    use std::time::Duration;

    const INTERVAL: Duration = Duration::from_millis(100);

    fn v2_pair(resync_every: u32) -> (DeltaEncoder, WireDecoder) {
        let enc = DeltaEncoder::new(ProcessId::new(7), 7, INTERVAL, resync_every);
        (enc, WireDecoder::new())
    }

    fn hb_at(seq: u64, nanos: u64) -> Heartbeat {
        Heartbeat {
            sender: ProcessId::new(7),
            seq,
            sent_at: Timestamp::from_nanos(nanos),
        }
    }

    #[test]
    fn v2_first_frame_is_intern_then_deltas() {
        let (mut enc, mut dec) = v2_pair(64);
        let mut buf = [0u8; MAX_V2_FRAME];
        let step = INTERVAL.as_nanos() as u64;
        for seq in 0..10u64 {
            let hb = hb_at(seq, 1_000 + seq * step);
            let n = enc.encode(&hb, &mut buf);
            if seq == 0 {
                assert_eq!(n, INTERN_LEN);
            } else {
                assert_eq!(n, MIN_FRAME, "a perfectly periodic delta is the minimum");
                assert_eq!(buf[0], DELTA_TAG | seq as u8);
            }
            assert_eq!(dec.decode(&buf[..n]), Ok(hb), "seq {seq}");
        }
        assert_eq!(dec.interned(), 1);
    }

    #[test]
    fn v2_roundtrips_jittered_and_irregular_timestamps() {
        let (mut enc, mut dec) = v2_pair(8);
        let mut buf = [0u8; MAX_V2_FRAME];
        let step = INTERVAL.as_nanos() as u64;
        // Deterministic jitter, including a long pause and an early send.
        let jitters: [i64; 6] = [0, 999_983, -731_029, 45_000_000, -90_000_000, 1];
        let mut nanos = 5_000_000u64;
        for (i, j) in jitters.iter().enumerate() {
            nanos = nanos.wrapping_add(step).wrapping_add_signed(*j);
            let hb = hb_at(i as u64, nanos);
            let n = enc.encode(&hb, &mut buf);
            assert_eq!(dec.decode(&buf[..n]), Ok(hb), "frame {i}");
        }
    }

    /// Seq deltas on both sides of the tag's seven bits and of every
    /// varint width the escape can take.
    const SEQ_DELTAS: [u64; 8] = [0, 1, 126, 127, 128, 1 << 14, u32::MAX as u64, u64::MAX];

    #[test]
    fn v2_seq_delta_rides_the_tag_until_it_needs_the_escape() {
        let step = INTERVAL.as_nanos() as u64;
        for delta in SEQ_DELTAS {
            // resync_every = MAX: the encoder never re-interns on its own.
            let (mut enc, mut dec) = v2_pair(u32::MAX);
            let mut buf = [0u8; MAX_V2_FRAME];
            let n = enc.encode(&hb_at(0, 1_000), &mut buf);
            assert_eq!(dec.decode(&buf[..n]), Ok(hb_at(0, 1_000)));
            let hb = hb_at(delta, 1_000u64.wrapping_add(delta.wrapping_mul(step)));
            let n = enc.encode(&hb, &mut buf);
            assert_eq!(dec.decode(&buf[..n]), Ok(hb), "seq delta {delta}");
            let wide = match delta {
                0..=126 => 0,
                _ => varint::encode_u64(delta, &mut [0u8; 10]).unwrap(),
            };
            assert_eq!(n, MIN_FRAME + wide, "seq delta {delta}");
            let low = if wide == 0 {
                delta as u8
            } else {
                SEQ_DELTA_ESCAPE
            };
            assert_eq!(buf[0], DELTA_TAG | low, "seq delta {delta}");
            assert_ne!(n, INTERN_LEN, "a delta must never pass for an intern frame");
        }
    }

    #[test]
    fn previous_delta_layout_is_rejected_not_misread() {
        // The layout this one replaced: 0xAD, idx, seq delta, residual,
        // FNV-16 over all of it and the sender. Its magic has the high bit
        // set, so it parses as a delta whose seq delta (0x2D) sits in the
        // tag — and then always has one varint too many before the end.
        let (mut enc, mut dec) = v2_pair(64);
        let mut buf = [0u8; MAX_V2_FRAME];
        let n = enc.encode(&hb_at(0, 1_000), &mut buf);
        dec.decode(&buf[..n]).unwrap();
        for (delta, residual) in [(1u64, 0i64), (45, 0), (45, 70_000), (300, -5)] {
            let mut old = [0u8; MAX_V2_FRAME];
            old[0] = 0xAD;
            let mut at = 1;
            at += varint::encode_u64(7, &mut old[at..]).unwrap();
            at += varint::encode_u64(delta, &mut old[at..]).unwrap();
            at += varint::encode_i64(residual, &mut old[at..]).unwrap();
            let sum = fnv16_bound(&old[..at], 7);
            old[at..at + 2].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                dec.decode(&old[..at + 2]),
                Err(WireError::TrailingBytes),
                "old-layout frame (delta {delta}, residual {residual})"
            );
        }
    }

    #[test]
    fn v2_resync_reinterns_on_schedule() {
        let (mut enc, mut dec) = v2_pair(4);
        let mut buf = [0u8; MAX_V2_FRAME];
        let mut interns = 0usize;
        for seq in 0..12u64 {
            let hb = hb_at(seq, seq * 1_000_000);
            let n = enc.encode(&hb, &mut buf);
            if n == INTERN_LEN {
                interns += 1;
            }
            assert_eq!(dec.decode(&buf[..n]), Ok(hb));
        }
        assert_eq!(interns, 3, "resync_every=4 over 12 frames");
    }

    #[test]
    fn v2_delta_before_intern_is_rejected_not_misread() {
        let (mut enc, mut dec) = v2_pair(64);
        let mut buf = [0u8; MAX_V2_FRAME];
        enc.encode(&hb_at(0, 1_000), &mut buf); // intern, never delivered
        let n = enc.encode(&hb_at(1, 2_000), &mut buf);
        assert_eq!(dec.decode(&buf[..n]), Err(WireError::UnknownIntern(7)));
    }

    #[test]
    fn v2_every_delta_byte_flip_is_detected() {
        let (mut enc, mut dec) = v2_pair(64);
        let mut buf = [0u8; MAX_V2_FRAME];
        let n = enc.encode(&hb_at(0, 1_000), &mut buf);
        assert!(dec.decode(&buf[..n]).is_ok());
        let n = enc.encode(&hb_at(5, 501_000_123), &mut buf);
        let good = dec.decode(&buf[..n]).unwrap();
        for i in 0..n {
            for bit in 0..8 {
                let mut bad = buf;
                bad[i] ^= 1 << bit;
                // A flip must never be silently accepted as the original.
                assert_ne!(
                    dec.decode(&bad[..n]),
                    Ok(good),
                    "flip of byte {i} bit {bit} decoded as the original"
                );
            }
        }
    }

    #[test]
    fn v2_intern_clobber_invalidates_old_senders_deltas() {
        // Two senders claim the same intern index; after B re-interns it,
        // A's in-flight delta must fail the bound checksum, not decode as B.
        let mut a = DeltaEncoder::new(ProcessId::new(1), 9, INTERVAL, 64);
        let mut b = DeltaEncoder::new(ProcessId::new(2), 9, INTERVAL, 64);
        let mut dec = WireDecoder::new();
        let mut buf = [0u8; MAX_V2_FRAME];
        let n = a.encode(
            &Heartbeat {
                sender: ProcessId::new(1),
                seq: 0,
                sent_at: Timestamp::from_nanos(1_000),
            },
            &mut buf,
        );
        dec.decode(&buf[..n]).unwrap();
        let mut a_delta = [0u8; MAX_V2_FRAME];
        let a_n = a.encode(
            &Heartbeat {
                sender: ProcessId::new(1),
                seq: 3,
                sent_at: Timestamp::from_nanos(300_001_000),
            },
            &mut a_delta,
        );
        let n = b.encode(
            &Heartbeat {
                sender: ProcessId::new(2),
                seq: 100,
                sent_at: Timestamp::from_nanos(7_000),
            },
            &mut buf,
        );
        dec.decode(&buf[..n]).unwrap(); // clobbers index 9
        assert_eq!(
            dec.decode(&a_delta[..a_n]),
            Err(WireError::ChecksumMismatch)
        );
    }

    #[test]
    fn v2_trailing_and_missing_bytes_are_rejected() {
        let (mut enc, mut dec) = v2_pair(64);
        let mut buf = [0u8; MAX_V2_FRAME + 4];
        let n = enc.encode(&hb_at(0, 1_000), &mut buf);
        assert_eq!(dec.decode(&buf[..n - 1]), Err(WireError::ShortFrame));
        assert_eq!(dec.decode(&buf[..n + 1]), Err(WireError::TrailingBytes));
        assert!(dec.decode(&buf[..n]).is_ok(), "exact intern decodes");
        let n2 = enc.encode(&hb_at(3, 300_001_000), &mut buf);
        for cut in 1..n2 {
            assert_eq!(
                dec.decode(&buf[..cut]),
                Err(WireError::ShortFrame),
                "cut at {cut}"
            );
        }
        assert_eq!(dec.decode(&buf[..n2 + 3]), Err(WireError::TrailingBytes));
        assert_eq!(dec.decode(&[]), Err(WireError::ShortFrame));
    }

    #[test]
    fn v2_decoder_accepts_interleaved_v1_frames() {
        let (mut enc, mut dec) = v2_pair(64);
        let mut buf = [0u8; MAX_V2_FRAME];
        let n = enc.encode(&hb_at(0, 1_000), &mut buf);
        assert!(dec.decode(&buf[..n]).is_ok());
        let legacy = hb(); // a different, v1-only peer
        assert_eq!(dec.decode(&legacy.encode()), Ok(legacy));
        let n = enc.encode(&hb_at(1, 100_001_000), &mut buf);
        assert_eq!(dec.decode(&buf[..n]), Ok(hb_at(1, 100_001_000)));
    }

    #[test]
    fn v2_intern_table_capacity_is_bounded() {
        let mut dec = WireDecoder::with_capacity(2);
        let mut buf = [0u8; MAX_V2_FRAME];
        for id in 0..4u32 {
            let mut enc = DeltaEncoder::new(ProcessId::new(id), id, INTERVAL, 64);
            let hb = Heartbeat {
                sender: ProcessId::new(id),
                seq: 0,
                sent_at: Timestamp::from_nanos(1_000),
            };
            let n = enc.encode(&hb, &mut buf);
            // Overflowing interns still deliver their heartbeat.
            assert_eq!(dec.decode(&buf[..n]), Ok(hb));
        }
        assert_eq!(dec.interned(), 2);
        assert_eq!(dec.interns_rejected(), 2);
    }

    #[test]
    fn out_of_u32_intern_index_is_distinct_from_a_real_max_miss() {
        let mut dec = WireDecoder::new();

        // Hand-built delta whose intern-index varint exceeds u32 space:
        // no table could ever contain it, so the decoder reports the
        // raw value instead of masquerading as index u32::MAX.
        let raw = u64::from(u32::MAX) + 1;
        let mut buf = [0u8; MAX_V2_FRAME];
        buf[0] = DELTA_TAG | 1;
        let mut at = 1;
        at += varint::encode_u64(raw, &mut buf[at..]).unwrap();
        at += varint::encode_i64(0, &mut buf[at..]).unwrap();
        assert_eq!(
            dec.decode(&buf[..at + 2]),
            Err(WireError::InternOutOfRange(raw))
        );

        // The largest *valid* index is an ordinary healable miss and
        // must still say so — before the fix both cases collapsed into
        // UnknownIntern(u32::MAX).
        let mut buf = [0u8; MAX_V2_FRAME];
        buf[0] = DELTA_TAG | 1;
        let mut at = 1;
        at += varint::encode_u64(u64::from(u32::MAX), &mut buf[at..]).unwrap();
        at += varint::encode_i64(0, &mut buf[at..]).unwrap();
        assert_eq!(
            dec.decode(&buf[..at + 2]),
            Err(WireError::UnknownIntern(u32::MAX))
        );
    }

    #[test]
    fn reset_forgets_interns_until_the_sender_resyncs() {
        let (mut enc, mut dec) = v2_pair(3);
        let mut buf = [0u8; MAX_V2_FRAME];
        let n = enc.encode(&hb_at(0, 1_000), &mut buf);
        assert_eq!(n, INTERN_LEN);
        assert!(dec.decode(&buf[..n]).is_ok());
        let n = enc.encode(&hb_at(1, 100_001_000), &mut buf);
        assert!(n < INTERN_LEN);
        assert!(dec.decode(&buf[..n]).is_ok());
        assert_eq!(dec.interned(), 1);

        // Restart: the table empties in O(1); in-flight deltas bounce.
        dec.reset();
        assert_eq!(dec.interned(), 0);
        let n2 = enc.encode(&hb_at(2, 200_001_000), &mut buf);
        assert!(n2 < INTERN_LEN, "third frame of resync_every=3 is a delta");
        assert_eq!(dec.decode(&buf[..n2]), Err(WireError::UnknownIntern(7)));
        // The sender's next checkpoint re-registers the index and heals
        // the stream, exactly as after a real receiver restart.
        let n3 = enc.encode(&hb_at(3, 300_001_000), &mut buf);
        assert_eq!(n3, INTERN_LEN);
        assert_eq!(dec.decode(&buf[..n3]), Ok(hb_at(3, 300_001_000)));
        assert_eq!(dec.interned(), 1);
        let n4 = enc.encode(&hb_at(4, 400_001_000), &mut buf);
        assert!(n4 < INTERN_LEN);
        assert_eq!(dec.decode(&buf[..n4]), Ok(hb_at(4, 400_001_000)));
    }

    #[test]
    fn v2_seq_regression_forces_reintern() {
        let (mut enc, mut dec) = v2_pair(64);
        let mut buf = [0u8; MAX_V2_FRAME];
        let n = enc.encode(&hb_at(10, 1_000), &mut buf);
        assert_eq!(n, INTERN_LEN);
        dec.decode(&buf[..n]).unwrap();
        // A sender restart resets seq below the checkpoint: a delta
        // cannot express it, so the encoder must emit a fresh intern.
        let n = enc.encode(&hb_at(2, 9_000), &mut buf);
        assert_eq!(n, INTERN_LEN);
        assert_eq!(dec.decode(&buf[..n]), Ok(hb_at(2, 9_000)));
    }

    #[test]
    fn v2_steady_state_is_at_least_3x_smaller_than_v1() {
        let (mut enc, mut dec) = v2_pair(64);
        let mut buf = [0u8; MAX_V2_FRAME];
        let step = INTERVAL.as_nanos() as u64;
        let jitter = [0i64, 733_211, -612_007, 91_373, -1_004_551];
        let mut total = 0usize;
        let frames = 1_000u64;
        for seq in 0..frames {
            // A periodic sender jitters around its schedule; it does not
            // random-walk away from it.
            let nanos = (1_000 + seq * step).wrapping_add_signed(jitter[(seq % 5) as usize]);
            let hb = hb_at(seq, nanos);
            let n = enc.encode(&hb, &mut buf);
            assert_eq!(dec.decode(&buf[..n]), Ok(hb));
            total += n;
        }
        let v1_total = frames as usize * FRAME_LEN;
        assert!(
            total * 3 <= v1_total,
            "v2 used {total} bytes for {frames} frames; v1 would use {v1_total} (ratio {:.2})",
            v1_total as f64 / total as f64
        );
    }
}
