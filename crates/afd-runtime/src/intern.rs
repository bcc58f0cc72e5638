//! Dense, generation-tagged intern table for the v2 decode fast path.
//!
//! The receiver-side intern table maps a delta frame's `intern_idx` to
//! the checkpoint it decodes against — one lookup per delta frame, on the
//! hottest path in the system, where a hash and a probe per frame would
//! dominate intake. By convention the index space is *dense* — senders
//! claim their own id as the intern index (see
//! [`DeltaEncoder`](crate::wire::DeltaEncoder)) — so the table is a flat
//! slab indexed directly by `intern_idx`:
//!
//! - **probe = one bounds check + one 32-byte row load** — no hashing, no
//!   collision chains, one cache line: the row carries its own liveness
//!   tag beside the sender id, so there is no side array to consult;
//! - **zero allocation after construction, and no resident memory before
//!   use** — the row array is sized up front from the capacity, but as a
//!   *zeroed* allocation (`vec![[0u64; 4]; n]`), which the allocator
//!   satisfies with untouched pages: what [`InternSlab::new`] reserves is
//!   address space (32 MB at the default capacity), and a page becomes
//!   resident when the first intern frame lands in it. A decoder that
//!   serves 4 096 peers holds 128 KB of table, not 32 MB;
//! - **O(1) reset** — restarting a decoder bumps a generation counter
//!   instead of touching a million rows; a row is live only if its tag is
//!   the current generation (tag 0, the zeroed state, is never current;
//!   the rare u32 generation wrap falls back to an explicit clear);
//! - **last-entry hot cache** — a paced-sender burst lands several
//!   deltas from one sender back to back, so the previous hit answers
//!   the next probe without touching the (multi-megabyte) slab at all.
//!
//! The table is bounded by index, not by count: the slab stores exactly
//! the indices `0..capacity`, so an index at or past capacity is rejected
//! (and counted by the caller) — the guarantee a bounded map gives by
//! refusing inserts when full. Under the dense identity-index convention
//! the two are observably identical — an in-range index can never hit the
//! fullness rejection in either — and the `intern_equiv` proptest in
//! `tests/` holds the slab-backed
//! [`WireDecoder`](crate::wire::WireDecoder) to a map-backed reference,
//! frame for frame.

/// One receiver-side intern table entry: the checkpoint a sender's
/// delta frames decode against, registered by an intern frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternEntry {
    /// The sender id bound into every delta checksum for this index.
    pub sender: u32,
    /// Sequence number of the checkpoint heartbeat.
    pub ckpt_seq: u64,
    /// Send time of the checkpoint heartbeat, in nanoseconds.
    pub ckpt_sent_at_nanos: u64,
    /// The sender's nominal heartbeat interval, in nanoseconds, used to
    /// predict delta send times arithmetically.
    pub interval_nanos: u64,
}

/// A flat intern table: one `[u64; 4]` row per intern index, indexed
/// directly, generation-tagged for O(1) [`reset`](InternSlab::reset), with
/// a one-entry hot cache.
///
/// Indices `0..capacity` always insert (first fill or overwrite);
/// indices at or past capacity are rejected — the slab's form of the
/// bounded-table guarantee. See the module docs for why this matches
/// a map's fullness bound under the dense-index convention.
#[derive(Debug)]
pub struct InternSlab {
    /// Row `i`: `[generation << 32 | sender, ckpt_seq, ckpt_sent_at_nanos,
    /// interval_nanos]`. Plain integers and not a struct so that the
    /// allocation can be requested zeroed (see the module docs); a zeroed
    /// row has generation 0 and is therefore vacant.
    rows: Box<[[u64; 4]]>,
    /// The generation rows are live in; never 0.
    generation: u32,
    live: usize,
    /// The last entry hit or inserted: a paced-sender burst probes the
    /// same index repeatedly, and this answers without a slab load.
    hot: Option<(u32, InternEntry)>,
}

/// The generation `row` was last written in; 0 if never.
#[inline]
fn written_in(row: &[u64; 4]) -> u32 {
    (row[0] >> 32) as u32
}

impl InternSlab {
    /// Creates a slab holding intern indices `0..capacity` (floored at
    /// 1). All storage is allocated here; no later call allocates.
    pub fn new(capacity: usize) -> Self {
        InternSlab {
            // lint:allow(no-alloc-in-hot-path, one-time construction)
            rows: vec![[0u64; 4]; capacity.max(1)].into_boxed_slice(),
            generation: 1,
            live: 0,
            hot: None,
        }
    }

    /// The index bound: the slab stores exactly indices `0..capacity`.
    pub fn capacity(&self) -> usize {
        self.rows.len()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no entry is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Looks up `idx`, refreshing the hot cache on a slab hit. Returns
    /// `None` for vacant and out-of-capacity indices alike — neither
    /// has an entry to decode against.
    #[inline]
    pub fn get(&mut self, idx: u32) -> Option<InternEntry> {
        if let Some((hot_idx, entry)) = self.hot {
            if hot_idx == idx {
                return Some(entry);
            }
        }
        let row = self.rows.get(idx as usize)?;
        if written_in(row) != self.generation {
            return None;
        }
        let entry = InternEntry {
            sender: row[0] as u32,
            ckpt_seq: row[1],
            ckpt_sent_at_nanos: row[2],
            interval_nanos: row[3],
        };
        self.hot = Some((idx, entry));
        Some(entry)
    }

    /// Inserts (or overwrites) the entry for `idx`, returning `false` —
    /// and storing nothing — if `idx` is at or past capacity. In-range
    /// inserts never fail: the slot for every in-range index exists by
    /// construction.
    #[inline]
    pub fn insert(&mut self, idx: u32, entry: InternEntry) -> bool {
        let generation = self.generation;
        let Some(row) = self.rows.get_mut(idx as usize) else {
            return false;
        };
        if written_in(row) != generation {
            self.live += 1;
        }
        *row = [
            u64::from(generation) << 32 | u64::from(entry.sender),
            entry.ckpt_seq,
            entry.ckpt_sent_at_nanos,
            entry.interval_nanos,
        ];
        self.hot = Some((idx, entry));
        true
    }

    /// Retires every entry in O(1) by advancing the generation: stale
    /// rows keep their bytes but no longer match, so the next `get`
    /// misses and the next `insert` refills them. Only on the
    /// (effectively unreachable) u32 generation wrap does reset pay for
    /// an explicit clear, to keep ancient tags from false-matching.
    pub fn reset(&mut self) {
        self.hot = None;
        self.live = 0;
        match self.generation.checked_add(1) {
            Some(g) => self.generation = g,
            None => {
                for row in self.rows.iter_mut() {
                    row[0] = 0;
                }
                self.generation = 1;
            }
        }
    }

    /// Test hook: jump to a specific generation to exercise the wrap.
    /// Invalidates the hot cache like every real generation change.
    #[cfg(test)]
    fn set_generation(&mut self, generation: u32) {
        self.generation = generation;
        self.hot = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(sender: u32) -> InternEntry {
        InternEntry {
            sender,
            ckpt_seq: u64::from(sender) * 10,
            ckpt_sent_at_nanos: u64::from(sender) * 100,
            interval_nanos: 1_000,
        }
    }

    #[test]
    fn insert_get_overwrite() {
        let mut slab = InternSlab::new(8);
        assert!(slab.is_empty());
        assert_eq!(slab.get(3), None);
        assert!(slab.insert(3, entry(30)));
        assert_eq!(slab.get(3), Some(entry(30)));
        assert_eq!(slab.len(), 1);
        // Overwrite does not double-count.
        assert!(slab.insert(3, entry(31)));
        assert_eq!(slab.get(3), Some(entry(31)));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.get(4), None);
    }

    #[test]
    fn out_of_capacity_indices_are_rejected() {
        let mut slab = InternSlab::new(4);
        assert!(slab.insert(3, entry(3)), "last in-range index");
        assert!(!slab.insert(4, entry(4)), "first out-of-range index");
        assert!(!slab.insert(u32::MAX, entry(9)));
        assert_eq!(slab.get(4), None);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.capacity(), 4);
    }

    #[test]
    fn capacity_floors_at_one() {
        let mut slab = InternSlab::new(0);
        assert_eq!(slab.capacity(), 1);
        assert!(slab.insert(0, entry(1)));
        assert!(!slab.insert(1, entry(2)));
    }

    #[test]
    fn every_in_range_index_fits_simultaneously() {
        let mut slab = InternSlab::new(200);
        for i in 0..200u32 {
            assert!(slab.insert(i, entry(i)));
        }
        assert_eq!(slab.len(), 200);
        for i in 0..200u32 {
            assert_eq!(slab.get(i), Some(entry(i)));
        }
    }

    #[test]
    fn reset_retires_everything_and_slots_refill() {
        let mut slab = InternSlab::new(128);
        for i in 0..100u32 {
            slab.insert(i, entry(i));
        }
        slab.reset();
        assert!(slab.is_empty());
        for i in 0..100u32 {
            assert_eq!(slab.get(i), None, "stale slot {i} survived reset");
        }
        // Refill after reset behaves like a fresh slab.
        assert!(slab.insert(7, entry(70)));
        assert_eq!(slab.get(7), Some(entry(70)));
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn hot_cache_tracks_overwrites_and_reset() {
        let mut slab = InternSlab::new(8);
        slab.insert(2, entry(20));
        assert_eq!(slab.get(2), Some(entry(20)));
        // The hot cache must serve the *new* value after an overwrite.
        slab.insert(2, entry(21));
        assert_eq!(slab.get(2), Some(entry(21)));
        slab.reset();
        assert_eq!(slab.get(2), None, "hot cache leaked across reset");
    }

    #[test]
    fn generation_wrap_clears_stale_tags() {
        let mut slab = InternSlab::new(8);
        slab.insert(1, entry(1));
        slab.set_generation(u32::MAX);
        // Generation u32::MAX never wrote slot 1, so it reads vacant.
        assert_eq!(slab.get(1), None);
        slab.insert(2, entry(2));
        slab.reset(); // wraps: explicit clear, back to generation 1
        assert_eq!(slab.get(1), None, "gen-1 tag from before the wrap matched");
        assert_eq!(slab.get(2), None);
        assert!(slab.is_empty());
        slab.insert(1, entry(11));
        assert_eq!(slab.get(1), Some(entry(11)));
    }
}
