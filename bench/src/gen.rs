//! The load generator's own state: a seeded random source, the fleet of
//! senders, and the frame buffer an epoch is encoded into before it is
//! sent. The same seed gives the same inputs.

use crate::sut::{Encoder, INTERN_FRAME, MAX_FRAME};

/// SplitMix64: small, seedable, and good enough to shuffle peers.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Frames of one epoch, encoded back to back.
#[derive(Debug, Default)]
pub struct Burst {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Burst {
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    pub fn push(&mut self, frame: &[u8]) {
        self.bytes.extend_from_slice(frame);
        self.ends.push(self.bytes.len());
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn frames(&self) -> impl Iterator<Item = &[u8]> {
        let mut start = 0usize;
        self.ends.iter().map(move |&end| {
            let frame = &self.bytes[start..end];
            start = end;
            frame
        })
    }
}

/// Largest jitter put on a heartbeat's send time, as a share of the
/// interval: small, so the v2 residual stays a two- or three-byte varint.
const JITTER_ONE_IN: u64 = 1000;

#[derive(Debug)]
struct Sender {
    id: u32,
    enc: Encoder,
    seq: u64,
    /// The frame before the newest one.
    prev: [u8; MAX_FRAME],
    prev_len: usize,
    /// The newest frame.
    last: [u8; MAX_FRAME],
    last_len: usize,
}

impl Sender {
    fn new(id: u32, resync_every: u32, interval_ns: u64) -> Self {
        Sender {
            id,
            enc: Encoder::new(id, resync_every, interval_ns),
            seq: 0,
            prev: [0; MAX_FRAME],
            prev_len: 0,
            last: [0; MAX_FRAME],
            last_len: 0,
        }
    }
}

/// The monitored processes, as the generator sees them: one v2 encoder and
/// one sequence counter per slot. Slot numbers are stable; the id in a
/// slot changes when the churn workload replaces a peer.
#[derive(Debug)]
pub struct Fleet {
    senders: Vec<Sender>,
    resync_every: u32,
    interval_ns: u64,
    rng: Rng,
    /// Bytes of every frame encoded, replays included.
    pub wire_bytes: u64,
    /// Heartbeats encoded, replays excluded.
    pub heartbeats: u64,
    /// Replayed frames handed out.
    pub replays: u64,
}

impl Fleet {
    pub fn new(ids: &[u32], resync_every: u32, interval_ns: u64, seed: u64) -> Self {
        Fleet {
            senders: ids
                .iter()
                .map(|&id| Sender::new(id, resync_every, interval_ns))
                .collect(),
            resync_every,
            interval_ns,
            rng: Rng::new(seed),
            wire_bytes: 0,
            heartbeats: 0,
            replays: 0,
        }
    }

    pub fn id(&self, slot: usize) -> u32 {
        self.senders[slot].id
    }

    /// The sequence number of the newest heartbeat `slot` sent.
    pub fn seq(&self, slot: usize) -> u64 {
        self.senders[slot].seq
    }

    /// Encodes the next heartbeat of `slot` and appends it to `out`: the
    /// send time is the nominal schedule plus seeded jitter.
    pub fn beat(&mut self, slot: usize, out: &mut Burst) {
        let jitter = self.rng.below(self.interval_ns / JITTER_ONE_IN + 1);
        let s = &mut self.senders[slot];
        s.seq += 1;
        s.prev = s.last;
        s.prev_len = s.last_len;
        let sent_at = s.seq * self.interval_ns + jitter;
        s.last_len = s.enc.encode(s.seq, sent_at, &mut s.last);
        assert!(s.last_len > 0, "encoder refused its own sender's heartbeat");
        out.push(&s.last[..s.last_len]);
        self.wire_bytes += s.last_len as u64;
        self.heartbeats += 1;
    }

    /// Appends a byte-for-byte replay of `slot`'s newest frame: the monitor
    /// must count it as a duplicate.
    pub fn replay_newest(&mut self, slot: usize, out: &mut Burst) {
        let s = &self.senders[slot];
        out.push(&s.last[..s.last_len]);
        self.wire_bytes += s.last_len as u64;
        self.replays += 1;
    }

    /// Appends a replay of the frame before `slot`'s newest one, which the
    /// monitor must count as stale. Only sound when the newest frame is a
    /// delta — then both frames decode against the same checkpoint; across
    /// a re-intern the old delta would decode against the new checkpoint.
    /// Returns `false`, appending nothing, when it is not sound.
    pub fn replay_previous(&mut self, slot: usize, out: &mut Burst) -> bool {
        let s = &self.senders[slot];
        if s.prev_len == 0 || s.last_len == INTERN_FRAME {
            return false;
        }
        out.push(&s.prev[..s.prev_len]);
        self.wire_bytes += s.prev_len as u64;
        self.replays += 1;
        true
    }

    /// Puts a new peer into `slot`; returns the id that left.
    pub fn replace(&mut self, slot: usize, id: u32) -> u32 {
        let old = self.senders[slot].id;
        self.senders[slot] = Sender::new(id, self.resync_every, self.interval_ns);
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let ids: Vec<u32> = (1..=16).collect();
        let run = |seed| {
            let mut fleet = Fleet::new(&ids, 4, 100_000_000, seed);
            let mut out = Burst::default();
            for round in 0..6 {
                for slot in 0..ids.len() {
                    if (slot + round) % 3 != 0 {
                        fleet.beat(slot, &mut out);
                    }
                }
            }
            let frames: Vec<Vec<u8>> = out.frames().map(<[u8]>::to_vec).collect();
            (frames, fleet.wire_bytes, fleet.heartbeats)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn burst_hands_back_the_frames_it_was_given() {
        let mut b = Burst::default();
        b.push(&[1, 2, 3]);
        b.push(&[4]);
        b.push(&[5, 6]);
        let got: Vec<&[u8]> = b.frames().collect();
        assert_eq!(got, vec![&[1u8, 2, 3][..], &[4][..], &[5, 6][..]]);
        assert_eq!(b.len(), 3);
        b.clear();
        assert_eq!(b.frames().count(), 0);
    }

    #[test]
    fn stale_replays_are_refused_across_a_reintern() {
        // resync_every 2: frames alternate intern, delta, intern, delta …
        let mut fleet = Fleet::new(&[9], 2, 100_000_000, 1);
        let mut out = Burst::default();
        fleet.beat(0, &mut out); // intern: no previous frame at all
        assert!(!fleet.replay_previous(0, &mut out));
        fleet.beat(0, &mut out); // delta against that intern
        assert!(fleet.replay_previous(0, &mut out));
        fleet.beat(0, &mut out); // re-intern: the old delta is now unsound
        assert!(!fleet.replay_previous(0, &mut out));
        assert_eq!(fleet.heartbeats, 3);
        assert_eq!(fleet.replays, 1);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
