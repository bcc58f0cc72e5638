//! The snapshot protocol: how a shard's one writer publishes suspicion
//! levels that any number of readers take without a lock.
//!
//! This is the boundary of the paper's Fig. 2: the shard's thread
//! publishes (the pipeline that feeds it is [`shard`](crate::shard)'s),
//! and each application reads through a [`SnapshotReader`] clone.
//!
//! # One seqlock
//!
//! Every word a reader loads is stored inside a `SeqLock::write`, and
//! every read runs in a `SeqLock::try_read`, which discards an attempt a
//! write overlapped. The writer is wait-free and readers are
//! obstruction-free; everything is plain atomics, no locks, no unsafe
//! code, and the fences sit in those two functions only. The rings of
//! [`ring`](crate::ring) run each slot on the same lock.
//!
//! # Stable slots
//!
//! A watched peer lives in one *slot* of its shard's slab from `watch`
//! to `unwatch`, and the slot's position is the peer's row in both
//! snapshot banks. An `unwatch` vacates the slot and the next `watch`
//! reuses the most recently vacated one, so a membership change touches
//! one slot and no other peer's row ever moves. Each `ShardCell`
//! carries one open-addressed id→slot table (`SlotIndex`) that the
//! three layers share: accept probes it to find the entry, publish
//! writes the rows of the slab it indexes, a reader probes it to find the
//! row.
//!
//! # Epoch snapshots
//!
//! Each shard owns a `ShardCell`: two banks of atomics (one row per
//! slot: peer id, suspicion level as `f64` bits, durable words) plus a
//! `front` selector. The id and level columns are flat and as long as
//! the shard's capacity, so a point read is one index probe and two
//! loads; the durable rows come a chunk at a time (see *What a publish
//! writes*). The publishing thread fills the *back* bank inside its
//! seqlock's write section, then flips `front`. Readers load `front` and
//! read that bank inside its seqlock, retrying on a straddle.
//!
//! A point read ([`SnapshotReader::level`]) takes two steps. It probes
//! the index for the peer's slot — under the index's own seqlock,
//! because an `unwatch` closes the gap it leaves by moving later entries
//! of the probe sequence back, and a reader that raced the move could
//! otherwise walk past a key that is there; it retries instead. Then,
//! under the front bank's seqlock, it checks that the row *holds that
//! peer's id* before it takes the level. The index says where a peer
//! lives now and the bank what was there at the last publish, and the id
//! check is what reconciles the two: a slot that changed hands since the
//! publish answers `None`, never the previous tenant's level. The
//! previous tenant may be the peer itself: a peer unwatched and watched
//! again before the next publish takes back the slot it just left, and the
//! id check alone would pass it the level of the detector that was
//! dropped. So an `unwatch` does not wait for a publish to retire the row:
//! the shard's thread stores the vacant id into it in *both* banks there
//! and then, inside each bank's write section (*the re-watch rule*). So a
//! peer that is watched but not yet published reads `None` — whoever held
//! the slot before, itself included — an unwatched peer reads `None` and
//! is gone from [`SnapshotReader::snapshot`] and the checkpointer's view
//! from the `unwatch` on, and a peer that stays watched never reads
//! `None`.
//!
//! # What a publish writes
//!
//! A peer's row is its id, its suspicion level and seven durable words
//! (detector seed, sequence watermark) for the checkpointer. A publish
//! writes them in two passes.
//!
//! **The durable bank.** The seven words are one contiguous 56-byte
//! record, so a row is stored or loaded in one or two cache lines. Records
//! come in chunks of 256 that the slab's growth allocates: `watch`, the
//! one place a row is born — an import and both executors go through it
//! — gives the new row's chunk to both banks when the slab first reaches
//! it. Only the chunk table is allocated with the cell, so a shard
//! declared for many more peers than it watches pays for the rows it has
//! used and not for its capacity; a chunk stays after an `unwatch`,
//! because the free list reuses its rows. The id and level columns stay
//! flat: they are what a point read touches, and a chunk lookup on that
//! path would put one more dependent load on every query.
//!
//! **The changed-slot pass.** The id and the durable words change only
//! when the slot changes hands, an arrival is accepted, a peer is
//! imported, or a caller borrows the detector mutably — so each such
//! change marks *that slot* for the next two publishes, one into each
//! bank: the back bank missed the previous publish, and what a publish
//! writes is therefore the union of this and the previous publish's
//! changed slots. For every other slot the bank still holds, from two
//! publishes ago, exactly the row a rewrite would produce, and `save_seed`
//! and the eight stores are skipped: the pass reads the mark and moves on.
//! A vacated slot costs it one branch; its rows already hold `VACANT` —
//! an id outside the `u32` id space, which `read_all`/`read_durable` skip
//! — since the `unwatch`.
//!
//! **The level pass.** The level is a function of the query time
//! (`sl_qp(t)`, §3 Definition 1), so every publish re-evaluates every
//! slot's — from the shard's *curve column*, not from the detectors: the
//! [`LevelCurve`] each detector's `level_curve` returned when its slot
//! last changed (the changed-slot pass refreshes it at the first of the
//! two publishes a change is owed), run through [`LevelCurve::at_block`]
//! eight rows at a time straight into the bank's level words, touching no
//! slot. A detector with no curve returns `None`: its row holds the zero
//! curve, its slot is *listed*, and the listed slots are asked
//! `suspicion_level(now)` one by one after the column. A vacant row holds
//! the zero curve too, and nobody reads its level.
//!
//! Nothing makes a publish rewrite every row: the `incremental_publish`
//! proptest holds the front bank to a full recomputation, bit for bit,
//! through slot reuse — for a shard whose rows all have curves, one whose
//! rows have none and one whose rows change sides — and checks that a
//! `watch` or `unwatch` marks one slot.
//!
//! Published levels are as of the last publish, so a reader's view lags
//! real time by at most one tick interval; callers that need exact-`now`
//! values use the `&mut` paths
//! ([`ShardedMonitor::level`](crate::shard::ShardedMonitor::level) /
//! [`ShardedMonitor::snapshot`](crate::shard::ShardedMonitor::snapshot)),
//! which evaluate detectors directly.

use std::fmt;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use afd_core::accrual::{DetectorSeed, LevelCurve};
use afd_core::process::ProcessId;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;

/// 2⁶⁴/φ, the multiplier of a Fibonacci hash.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fibonacci-hashes a process id onto a shard index. A multiplicative
/// hash (rather than `id % shards`) keeps sequentially assigned ids from
/// striding into the same shard when the shard count shares a factor
/// with the id allocation pattern.
#[inline]
pub(crate) fn shard_index(process: ProcessId, shards: usize) -> usize {
    let h = u64::from(process.as_u32()).wrapping_mul(FIBONACCI);
    ((h >> 32) as usize) % shards.max(1)
}

/// A sequence lock over plain atomics: its one writer holds the word odd
/// while it stores, and a read that saw the word odd, or changed, is
/// discarded.
#[derive(Default)]
pub(crate) struct SeqLock(AtomicU64);

impl SeqLock {
    /// Runs the single writer's `stores` with the word odd.
    pub(crate) fn write<R>(&self, stores: impl FnOnce() -> R) -> R {
        // Enter: mark odd, then fence so the stores cannot be observed
        // before the mark. Plain stores suffice — there is one writer.
        // `| 1` rather than `+ 1`: `stores` that unwound (a detector
        // panicked) left the word odd, and the next write must not flip
        // it to even while it stores.
        let writing = self.0.load(Ordering::Relaxed) | 1;
        self.0.store(writing, Ordering::Relaxed);
        fence(Ordering::Release);
        let out = stores();
        // Exit (even again): release-orders every store before the mark
        // readers synchronize with.
        self.0.store(writing.wrapping_add(1), Ordering::Release);
        out
    }

    /// One read attempt: what `loads` returned, or `None` if a write
    /// overlapped it.
    pub(crate) fn try_read<R>(&self, loads: impl FnOnce() -> R) -> Option<R> {
        let before = self.0.load(Ordering::Acquire);
        if before & 1 == 1 {
            return None;
        }
        let out = loads();
        // Acquire fence keeps the loads above the re-check.
        fence(Ordering::Acquire);
        (self.0.load(Ordering::Relaxed) == before).then_some(out)
    }
}

/// Adds `n` to a counter that one thread writes and any thread reads. A
/// plain load and store is exact when there is one writer, and costs no
/// read-modify-write.
#[inline]
pub(crate) fn bump(counter: &AtomicU64, n: u64) {
    counter.store(
        counter.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

/// Bit in [`PeerDurable::flags`]: the detector produced a seed.
const DURABLE_HAS_SEED: u64 = 1;
/// Bit in [`PeerDurable::flags`]: the seed carries a last-heartbeat time.
const DURABLE_HAS_LAST_HB: u64 = 1 << 1;
/// Bit in [`PeerDurable::flags`]: a highest sequence number was recorded.
const DURABLE_HAS_SEQ: u64 = 1 << 2;

/// The durable state of one published peer, flattened to seven `u64`
/// words so it can cross the epoch-snapshot banks as plain atomics (and
/// land byte-for-byte in a checkpoint segment record).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PeerDurable {
    /// `DURABLE_*` presence bits.
    pub(crate) flags: u64,
    /// Highest heartbeat sequence accepted (replay-rejection state).
    pub(crate) highest_seq: u64,
    /// Last heartbeat arrival, in nanoseconds.
    pub(crate) last_hb_nanos: u64,
    /// Inter-arrival samples in the detector window.
    pub(crate) samples: u64,
    /// Window mean, as `f64` bits.
    pub(crate) mean_bits: u64,
    /// Window population variance, as `f64` bits.
    pub(crate) var_bits: u64,
    /// Auxiliary detector counter (see [`DetectorSeed::heartbeats_seen`]).
    pub(crate) heartbeats_seen: u64,
}

impl PeerDurable {
    /// Flattens a detector seed plus replay state into one record.
    pub(crate) fn from_state(seed: Option<DetectorSeed>, highest_seq: Option<u64>) -> Self {
        let mut d = PeerDurable {
            highest_seq: highest_seq.unwrap_or(0),
            ..PeerDurable::default()
        };
        if highest_seq.is_some() {
            d.flags |= DURABLE_HAS_SEQ;
        }
        if let Some(seed) = seed {
            d.flags |= DURABLE_HAS_SEED;
            if let Some(last) = seed.last_heartbeat {
                d.flags |= DURABLE_HAS_LAST_HB;
                d.last_hb_nanos = last.as_nanos();
            }
            d.samples = seed.samples;
            d.mean_bits = seed.mean.to_bits();
            d.var_bits = seed.population_variance.to_bits();
            d.heartbeats_seen = seed.heartbeats_seen;
        }
        d
    }

    /// The seven words in field order: a bank row, and a checkpoint
    /// record after its peer id.
    pub(crate) fn words(&self) -> [u64; 7] {
        [
            self.flags,
            self.highest_seq,
            self.last_hb_nanos,
            self.samples,
            self.mean_bits,
            self.var_bits,
            self.heartbeats_seen,
        ]
    }

    /// The record whose [`words`](Self::words) these are.
    pub(crate) fn from_words(words: [u64; 7]) -> Self {
        let [flags, highest_seq, last_hb_nanos, samples, mean_bits, var_bits, heartbeats_seen] =
            words;
        PeerDurable {
            flags,
            highest_seq,
            last_hb_nanos,
            samples,
            mean_bits,
            var_bits,
            heartbeats_seen,
        }
    }

    /// The detector seed carried by this record, if any.
    pub(crate) fn seed(&self) -> Option<DetectorSeed> {
        if self.flags & DURABLE_HAS_SEED == 0 {
            return None;
        }
        let has_last = self.flags & DURABLE_HAS_LAST_HB != 0;
        Some(DetectorSeed {
            last_heartbeat: has_last.then(|| Timestamp::from_nanos(self.last_hb_nanos)),
            samples: self.samples,
            mean: f64::from_bits(self.mean_bits),
            population_variance: f64::from_bits(self.var_bits),
            heartbeats_seen: self.heartbeats_seen,
        })
    }

    /// The recorded highest sequence number, if any.
    pub(crate) fn highest(&self) -> Option<u64> {
        (self.flags & DURABLE_HAS_SEQ != 0).then_some(self.highest_seq)
    }
}

/// Durable rows a [`DurableBank`] chunk holds: a power of two, so a row's
/// chunk and its place in it are a shift and a mask.
pub(crate) const CHUNK: usize = 256;

/// One durable row: a [`PeerDurable`]'s seven words, contiguous, so a
/// store or a load touches one or two cache lines and not seven.
pub(crate) type DurableRow = [AtomicU64; 7];

/// The durable rows of a [`Bank`], a chunk of [`CHUNK`] at a time as the
/// slab first reaches one ([`cover`](Self::cover)): only the chunk table,
/// 16 bytes a chunk, is allocated up front (see *The durable bank*).
struct DurableBank {
    chunks: Box<[OnceLock<Box<[DurableRow; CHUNK]>>]>,
}

impl DurableBank {
    fn new(slots: usize) -> Self {
        DurableBank {
            chunks: (0..slots.div_ceil(CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// Allocates the chunk holding row `i`, unless an earlier row did.
    /// Only the shard's thread calls it, from `watch`, before any publish
    /// can write the row.
    fn cover(&self, i: usize) {
        self.chunks[i / CHUNK]
            .get_or_init(|| Box::new(std::array::from_fn(|_| DurableRow::default())));
    }

    /// Row `i`, if its chunk has been allocated.
    #[inline]
    fn row(&self, i: usize) -> Option<&DurableRow> {
        Some(&self.chunks[i / CHUNK].get()?[i % CHUNK])
    }

    /// Plain store of one record; callers hold the bank's seqlock odd.
    /// The row's chunk exists: `watch` covered it before any publish could
    /// reach the row.
    fn store(&self, i: usize, d: &PeerDurable) {
        let Some(row) = self.row(i) else {
            debug_assert!(false, "`watch` did not cover row {i}'s chunk");
            return;
        };
        for (cell, word) in row.iter().zip(d.words()) {
            cell.store(word, Ordering::Relaxed);
        }
    }

    /// Plain load of one record; callers re-verify the seqlock afterwards.
    /// A row without a chunk reads as the empty record: a read can only
    /// meet one while a publish overlaps it, and the seqlock discards it —
    /// a row a publish wrote was covered before that publish began.
    fn load(&self, i: usize) -> PeerDurable {
        let Some(row) = self.row(i) else {
            return PeerDurable::default();
        };
        PeerDurable::from_words(row.each_ref().map(|cell| cell.load(Ordering::Relaxed)))
    }

    /// Chunks allocated so far.
    #[cfg(test)]
    fn chunks_allocated(&self) -> usize {
        self.chunks.iter().filter(|c| c.get().is_some()).count()
    }
}

/// The id a vacated row holds: outside the `u32` id space, so no lookup
/// matches it and the copying reads skip it.
const VACANT: u64 = u64::MAX;

/// One bank of a [`ShardCell`]: one published row per slab slot plus the
/// seqlock word guarding them. A writer reaches a bank only through
/// [`ShardCell::publish`], inside the bank's write section.
pub(crate) struct Bank {
    seq: SeqLock,
    /// Rows in use: the slab's length at the publish.
    len: AtomicUsize,
    /// Publish timestamp, in nanoseconds.
    published_at: AtomicU64,
    /// Peer ids by slot, [`VACANT`] where the slot is empty.
    peers: Vec<AtomicU64>,
    /// Suspicion levels as `f64` bit patterns, parallel to `peers`.
    levels: Vec<AtomicU64>,
    /// Durable per-peer rows, parallel to `peers`, allocated as the slab
    /// grows.
    durable: DurableBank,
}

impl Bank {
    fn new(slots: usize) -> Self {
        Bank {
            seq: SeqLock::default(),
            len: AtomicUsize::new(0),
            published_at: AtomicU64::new(0),
            peers: (0..slots).map(|_| AtomicU64::new(VACANT)).collect(),
            levels: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            durable: DurableBank::new(slots),
        }
    }

    /// Writes row `row`'s tenant and its durable record.
    #[inline]
    pub(crate) fn store_row(&self, row: usize, id: ProcessId, durable: &PeerDurable) {
        self.peers[row].store(u64::from(id.as_u32()), Ordering::Relaxed);
        self.durable.store(row, durable);
    }

    /// Writes the level at `now` of every row `blocks` covers.
    #[inline]
    pub(crate) fn store_levels(&self, blocks: &[[LevelCurve; LevelCurve::BLOCK]], now: Timestamp) {
        let rows = self.levels.chunks(LevelCurve::BLOCK);
        for (block, levels) in blocks.iter().zip(rows) {
            for (level, value) in levels.iter().zip(LevelCurve::at_block(block, now)) {
                level.store(value.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// Writes row `row`'s level.
    #[inline]
    pub(crate) fn store_level(&self, row: usize, level: SuspicionLevel) {
        self.levels[row].store(level.value().to_bits(), Ordering::Relaxed);
    }

    /// The epoch this bank was published at; callers re-verify the seqlock.
    fn published_at(&self) -> Timestamp {
        Timestamp::from_nanos(self.published_at.load(Ordering::Relaxed))
    }

    /// The live rows among the first `len`: slot, peer and level. Callers
    /// re-verify the seqlock.
    fn live_rows(
        &self,
        len: usize,
    ) -> impl Iterator<Item = (usize, ProcessId, SuspicionLevel)> + '_ {
        let rows = self.peers.iter().zip(&self.levels).take(len).enumerate();
        rows.filter_map(|(slot, (peer, level))| {
            let id = u32::try_from(peer.load(Ordering::Relaxed)).ok()?;
            let level = f64::from_bits(level.load(Ordering::Relaxed));
            Some((slot, ProcessId::new(id), SuspicionLevel::clamped(level)))
        })
    }
}

/// The id→slot table of one shard: open addressing with linear probing
/// over plain atomics, at most half full. The shard's thread writes it
/// under a seqlock of its own, because a removal moves entries (see
/// *Epoch snapshots*).
struct SlotIndex {
    seq: SeqLock,
    /// `id << 32 | slot + 1`; zero is an empty entry. The length is a
    /// power of two.
    entries: Vec<AtomicU64>,
    /// `64 − log2(entries.len())`: a home bucket is the *top* bits of the
    /// Fibonacci product. [`shard_index`] consumed its bits 32 and up, so
    /// every id of a shard agrees on those, and a table that reused them
    /// would crowd the shard's peers into a fraction of its buckets.
    shift: u32,
}

impl SlotIndex {
    /// A table for up to `slots` peers: at least twice as many entries.
    fn new(slots: usize) -> Self {
        debug_assert!(
            slots < u32::MAX as usize,
            "an entry packs slot + 1 into 32 bits"
        );
        let len = (2 * slots).next_power_of_two().max(2);
        SlotIndex {
            seq: SeqLock::default(),
            entries: (0..len).map(|_| AtomicU64::new(0)).collect(),
            shift: 64 - len.trailing_zeros(),
        }
    }

    fn home(&self, id: u64) -> usize {
        (id.wrapping_mul(FIBONACCI) >> self.shift) as usize
    }

    /// Walks `id`'s probe sequence to its entry (`Ok`: position and slot)
    /// or to the first empty entry (`Err`: its position). The walk is
    /// bounded by the table so a reader racing the writer cannot spin on
    /// entries that keep moving under it; its seqlock discards the result.
    fn probe(&self, id: u64) -> Result<(usize, usize), usize> {
        let mask = self.entries.len() - 1;
        let mut at = self.home(id);
        for _ in 0..=mask {
            let entry = self.entries[at].load(Ordering::Relaxed);
            if entry == 0 {
                break;
            }
            if entry >> 32 == id {
                return Ok((at, (entry as u32 - 1) as usize));
            }
            at = (at + 1) & mask;
        }
        Err(at)
    }

    /// The slot `process` lives in, if it is watched.
    #[inline]
    fn lookup(&self, process: ProcessId) -> Option<usize> {
        let id = u64::from(process.as_u32());
        loop {
            if let Some(found) = self.seq.try_read(|| self.probe(id)) {
                return found.ok().map(|(_, slot)| slot);
            }
            std::hint::spin_loop();
        }
    }

    /// Maps `process`, which must not be in the table, to `slot`. The
    /// table has an empty entry for it: it holds one entry per live slot
    /// and is twice the slab's capacity.
    fn insert(&self, process: ProcessId, slot: usize) {
        let id = u64::from(process.as_u32());
        self.seq.write(|| {
            if let Err(at) = self.probe(id) {
                self.entries[at].store(id << 32 | (slot as u64 + 1), Ordering::Relaxed);
            }
        });
    }

    /// Unmaps `process`, returning the slot it lived in.
    fn remove(&self, process: ProcessId) -> Option<usize> {
        let (at, slot) = self.probe(u64::from(process.as_u32())).ok()?;
        let mask = self.entries.len() - 1;
        self.seq.write(|| {
            // Backward-shift delete: an entry further along the run may
            // fill the hole iff its home bucket is not past the hole —
            // otherwise a probe for it would stop at the hole.
            let mut hole = at;
            let mut next = (at + 1) & mask;
            loop {
                let entry = self.entries[next].load(Ordering::Relaxed);
                if entry == 0 {
                    break;
                }
                let from_home = next.wrapping_sub(self.home(entry >> 32)) & mask;
                if from_home >= (next.wrapping_sub(hole) & mask) {
                    self.entries[hole].store(entry, Ordering::Relaxed);
                    hole = next;
                }
                next = (next + 1) & mask;
            }
            self.entries[hole].store(0, Ordering::Relaxed);
        });
        Some(slot)
    }
}

/// A double-buffered epoch snapshot plus the index into it: the shard's
/// thread publishes into the back bank and flips `front`; readers verify
/// the seqlock around their reads and retry on a straddle.
pub(crate) struct ShardCell {
    front: AtomicUsize,
    banks: [Bank; 2],
    slot_of: SlotIndex,
}

impl ShardCell {
    pub(crate) fn new(slots: usize) -> Self {
        ShardCell {
            front: AtomicUsize::new(0),
            banks: [Bank::new(slots), Bank::new(slots)],
            slot_of: SlotIndex::new(slots),
        }
    }

    /// Rows one bank can hold — the shard's watch capacity.
    pub(crate) fn slots(&self) -> usize {
        self.banks[0].peers.len()
    }

    /// The slot `process` lives in, if it is watched: one index probe.
    #[inline]
    pub(crate) fn slot(&self, process: ProcessId) -> Option<usize> {
        self.slot_of.lookup(process)
    }

    /// Moves `process`, which is not watched, into row `slot`: gives the
    /// row durable storage in both banks, unless an earlier row's growth
    /// did, and maps the peer to it. The row answers from the next
    /// publish on.
    pub(crate) fn occupy(&self, process: ProcessId, slot: usize) {
        for bank in &self.banks {
            bank.durable.cover(slot);
        }
        self.slot_of.insert(process, slot);
    }

    /// Unmaps `process` and stores the vacant id into its row in both
    /// banks, each inside its write section (the re-watch rule), returning
    /// the row. A reader led back to the row by a later `watch` of the
    /// same peer finds it vacated: the lookup that finds the new entry has
    /// acquired the index's write section, which came after these.
    pub(crate) fn vacate(&self, process: ProcessId) -> Option<usize> {
        let slot = self.slot_of.remove(process)?;
        for bank in &self.banks {
            bank.seq
                .write(|| bank.peers[slot].store(VACANT, Ordering::Relaxed));
        }
        Some(slot)
    }

    /// Publishes a new front bank: `fill` writes rows straight into the
    /// back bank and returns how many are in use. Rows it leaves alone
    /// keep what the previous publish *into this bank* — two publishes
    /// ago — wrote there. Single writer: the thread that owns the shard.
    pub(crate) fn publish(&self, at: Timestamp, fill: impl FnOnce(&Bank) -> usize) {
        let back = (self.front.load(Ordering::Relaxed) & 1) ^ 1;
        let bank = &self.banks[back];
        bank.seq.write(|| {
            let n = fill(bank).min(bank.peers.len());
            bank.len.store(n, Ordering::Relaxed);
            bank.published_at.store(at.as_nanos(), Ordering::Relaxed);
        });
        self.front.store(back, Ordering::Release);
    }

    /// Runs `read` against a consistent front bank, retrying while a
    /// publish straddles the attempt.
    fn with_consistent<R>(&self, mut read: impl FnMut(&Bank, usize) -> R) -> R {
        loop {
            let bank = &self.banks[self.front.load(Ordering::Acquire) & 1];
            let attempt = bank.seq.try_read(|| {
                let len = bank.len.load(Ordering::Relaxed).min(bank.peers.len());
                read(bank, len)
            });
            if let Some(out) = attempt {
                return out;
            }
            std::hint::spin_loop();
        }
    }

    /// The published level of `process`: the index names its slot, and
    /// the row answers only if the last publish wrote it for this peer.
    pub(crate) fn lookup(&self, process: ProcessId) -> Option<SuspicionLevel> {
        let slot = self.slot_of.lookup(process)?;
        let id = u64::from(process.as_u32());
        self.with_consistent(|bank, len| {
            if slot < len && bank.peers[slot].load(Ordering::Relaxed) == id {
                let bits = bank.levels[slot].load(Ordering::Relaxed);
                Some(SuspicionLevel::clamped(f64::from_bits(bits)))
            } else {
                None
            }
        })
    }

    /// Copies every published live row's peer and level, in slot order.
    pub(crate) fn read_all(&self, out: &mut Vec<(ProcessId, SuspicionLevel)>) -> Timestamp {
        self.with_consistent(|bank, len| {
            out.clear();
            out.extend(bank.live_rows(len).map(|(_, p, level)| (p, level)));
            bank.published_at()
        })
    }

    /// Copies every published live row's durable record, in slot order,
    /// returning the epoch it was published at. Consistency comes from
    /// the same seqlock as [`read_all`](Self::read_all): the records are
    /// those of one publish — less the peers unwatched since — never a
    /// mix of two epochs.
    pub(crate) fn read_durable(&self, out: &mut Vec<(ProcessId, PeerDurable)>) -> Timestamp {
        self.with_consistent(|bank, len| {
            out.clear();
            out.extend(
                bank.live_rows(len)
                    .map(|(slot, p, _)| (p, bank.durable.load(slot))),
            );
            bank.published_at()
        })
    }

    /// The epoch of the front bank.
    fn published_at(&self) -> Timestamp {
        self.with_consistent(|bank, _| bank.published_at())
    }

    /// The epoch plus level and durable record of every live row, all
    /// from one consistent read.
    #[cfg(test)]
    pub(crate) fn read_rows(&self) -> (Timestamp, Vec<(ProcessId, SuspicionLevel, PeerDurable)>) {
        self.with_consistent(|bank, len| {
            let rows = bank
                .live_rows(len)
                .map(|(slot, p, level)| (p, level, bank.durable.load(slot)))
                .collect();
            (bank.published_at(), rows)
        })
    }

    /// Durable chunks allocated so far, per bank.
    #[cfg(test)]
    pub(crate) fn chunks_allocated(&self) -> [usize; 2] {
        self.banks.each_ref().map(|b| b.durable.chunks_allocated())
    }

    /// Where the index keeps `process`: its slot, and how many entries
    /// past its home bucket the entry sits.
    #[cfg(test)]
    pub(crate) fn displacement(&self, process: ProcessId) -> Option<(usize, usize)> {
        let (index, id) = (&self.slot_of, u64::from(process.as_u32()));
        let (at, slot) = index.probe(id).ok()?;
        Some((
            slot,
            at.wrapping_sub(index.home(id)) & (index.entries.len() - 1),
        ))
    }
}

/// A cloneable, lock-free view of the last published epoch snapshots.
///
/// Readers never block the tick writer and never take a lock; each read
/// retries only if it overlaps a publish of the same shard (two flips in
/// one read — the writer alternates banks, so a single publish never
/// invalidates the bank a reader is on) or an `unwatch` in it.
#[derive(Clone)]
pub struct SnapshotReader {
    cells: Arc<Vec<Arc<ShardCell>>>,
}

impl fmt::Debug for SnapshotReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotReader")
            .field("shards", &self.cells.len())
            .finish()
    }
}

impl SnapshotReader {
    /// Builds a reader over `cells` — shared with the executor whose
    /// shards publish into them.
    pub(crate) fn from_cells(cells: Arc<Vec<Arc<ShardCell>>>) -> Self {
        SnapshotReader { cells }
    }

    /// The published suspicion level of `process`, as of that shard's
    /// last tick: O(1), one index probe and one row.
    ///
    /// `None` for a process that is not watched — from the `unwatch` on,
    /// not from the next publish — and for one watched since the last
    /// publish, whose row does not exist yet: also when it was watched
    /// before, and the row it left is the one it came back to. A process
    /// that stays watched never reads `None` once published, whatever is
    /// watched or unwatched around it.
    pub fn level(&self, process: ProcessId) -> Option<SuspicionLevel> {
        let idx = shard_index(process, self.cells.len());
        self.cells.get(idx)?.lookup(process)
    }

    /// The union of every shard's published table, ascending by id: the
    /// peers of the last publish that are still watched.
    pub fn snapshot(&self) -> Vec<(ProcessId, SuspicionLevel)> {
        // lint:allow(no-alloc-in-hot-path, owned-snapshot API; callers on the query path, not the intake path)
        let mut out = Vec::new();
        // lint:allow(no-alloc-in-hot-path, owned-snapshot API; callers on the query path, not the intake path)
        let mut scratch = Vec::new();
        for cell in self.cells.iter() {
            cell.read_all(&mut scratch);
            out.append(&mut scratch);
        }
        out.sort_unstable_by_key(|&(p, _)| p);
        out
    }

    /// The oldest publish timestamp across shards: every published level
    /// is at least this fresh. `Timestamp::ZERO` before the first tick.
    pub fn published_at(&self) -> Timestamp {
        self.cells
            .iter()
            .map(|cell| cell.published_at())
            .min()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Number of shards behind this reader.
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// Copies shard `shard`'s published durable table into `out`,
    /// ascending by id, returning its publish epoch (`None` for an
    /// out-of-range shard). Sorted because rows sit in slot order, which
    /// records the watch/unwatch history; a checkpoint's bytes are a
    /// function of the state alone.
    ///
    /// This is the accessor the checkpointer dumps through: it reads only
    /// the double-buffered epoch banks, so the dump never touches
    /// worker-owned detector state and runs entirely off the hot path.
    pub(crate) fn durable_shard(
        &self,
        shard: usize,
        out: &mut Vec<(ProcessId, PeerDurable)>,
    ) -> Option<Timestamp> {
        let at = self.cells.get(shard)?.read_durable(out);
        out.sort_unstable_by_key(|&(p, _)| p);
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{build_shards, Shard};
    use crate::wire::Heartbeat;
    use afd_detectors::simple::SimpleAccrual;
    use std::collections::BTreeMap;

    #[test]
    fn a_write_that_unwound_leaves_the_word_odd_until_the_next_write() {
        let lock = SeqLock::default();
        let word = || lock.0.load(Ordering::Relaxed);
        lock.write(|| ());
        assert_eq!(word(), 2);
        assert_eq!(lock.try_read(|| "read"), Some("read"));

        // The stores of a write run with the word odd, and no read
        // overlapping them is returned.
        lock.write(|| {
            assert_eq!(word() & 1, 1);
            assert_eq!(lock.try_read(|| "read"), None);
        });

        // A detector panicking mid-publish unwinds out of the write: the
        // word stays odd, and every read is refused.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lock.write(|| panic!("the stores unwound"));
        }));
        assert!(unwound.is_err());
        let odd = word();
        assert_eq!(odd & 1, 1, "an unwound write leaves the word odd");
        assert_eq!(lock.try_read(|| "read"), None);

        // The next write keeps the word odd while it stores (`| 1`, not
        // `+ 1`, which would make it even), and leaves it even.
        lock.write(|| {
            assert_eq!(word(), odd);
            assert_eq!(lock.try_read(|| "read"), None);
        });
        assert_eq!(word(), odd + 1);
        assert_eq!(lock.try_read(|| "read"), Some("read"));
    }

    mod slot_index {
        use super::*;
        use proptest::prelude::*;
        use std::collections::btree_map::Entry;

        const SLOTS: usize = 8;

        /// Sixteen ids for a sixteen-entry table, chosen by where they
        /// hash: six share the last bucket (their run wraps around the
        /// table's end), four the one before, two the first, four land
        /// elsewhere.
        fn pool() -> Vec<u32> {
            let index = SlotIndex::new(SLOTS);
            let last = index.entries.len() - 1;
            let homed = |bucket: usize, n: usize| {
                let index = &index;
                (0..u32::MAX)
                    .filter(move |&id| index.home(u64::from(id)) == bucket)
                    .take(n)
            };
            let elsewhere = (0..u32::MAX)
                .filter(|&id| (1..last - 1).contains(&index.home(u64::from(id))))
                .take(4);
            homed(last, 6)
                .chain(homed(last - 1, 4))
                .chain(homed(0, 2))
                .chain(elsewhere)
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 256 }))]

            /// The table agrees with a `BTreeMap` through any sequence of
            /// inserts and removes — up to every slot in use (load ½),
            /// through colliding runs, wrap-around and reinsertion — and
            /// after every step, for every id: a removal must leave each
            /// remaining key reachable from its home bucket.
            #[test]
            fn agrees_with_a_btreemap(
                steps in prop::collection::vec((0usize..16, 0u8..8), 0..96),
            ) {
                let pool = pool();
                let index = SlotIndex::new(SLOTS);
                let mut oracle: BTreeMap<u32, usize> = BTreeMap::new();
                let mut free: Vec<usize> = (0..SLOTS).collect();
                for (pick, action) in steps {
                    let id = pool[pick];
                    let p = ProcessId::new(id);
                    // Inserts outnumber removes, so the table fills up.
                    if action < 5 {
                        if let Entry::Vacant(unmapped) = oracle.entry(id) {
                            if let Some(slot) = free.pop() {
                                index.insert(p, slot);
                                unmapped.insert(slot);
                            }
                        }
                    } else {
                        // A removal moves entries, so it must advance the
                        // word that makes an overlapping reader retry.
                        let before = index.seq.0.load(Ordering::Relaxed);
                        let removed = index.remove(p);
                        prop_assert_eq!(removed, oracle.remove(&id));
                        let after = index.seq.0.load(Ordering::Relaxed);
                        prop_assert_eq!(after, before + 2 * removed.iter().len() as u64);
                        free.extend(removed);
                    }
                    for &id in &pool {
                        let got = index.lookup(ProcessId::new(id));
                        prop_assert_eq!(got, oracle.get(&id).copied(), "id {}", id);
                    }
                    let used = index.entries.iter().filter(|e| e.load(Ordering::Relaxed) != 0);
                    prop_assert_eq!(used.count(), oracle.len());
                }
            }
        }
    }

    #[test]
    fn concurrent_readers_never_observe_torn_snapshots() {
        // Readers race publishes *and* membership changes. Every arrival
        // of peer `id` is stamped `id` nanoseconds past a whole second
        // (a never-heard detector starts there too) and every publish
        // half a second past one, so a level alone says whose it is:
        // (level + id) mod 1 s = ½ s.
        const SECOND: u64 = 1_000_000_000;
        const STEADY: u32 = 16;
        const CHURNING: usize = 4;
        const READERS: usize = 4;
        let owner_matches = |p: ProcessId, level: SuspicionLevel| {
            let nanos = (level.value() * 1e9).round() as u64;
            (nanos + u64::from(p.as_u32())) % SECOND == SECOND / 2
        };
        let (cells, mut shards) = build_shards(2, 32, |p: ProcessId| {
            SimpleAccrual::new(Timestamp::from_nanos(u64::from(p.as_u32())))
        });
        let shard_of = |id: u32| shard_index(ProcessId::new(id), 2);
        let arrival = |id: u32, round: u64| Heartbeat {
            sender: ProcessId::new(id),
            seq: round,
            sent_at: Timestamp::from_nanos(round * SECOND + u64::from(id)),
        };

        // Ids from 100 up take turns in the slots the steady peers leave,
        // and every other one that leaves comes straight back.
        let rounds: u64 = if cfg!(miri) { 40 } else { 2_000 };
        let mut next_id = 100u32;
        let mut churning = std::collections::VecDeque::new();
        for id in 1..=STEADY {
            shards[shard_of(id)].watch(ProcessId::new(id)).unwrap();
        }
        while churning.len() < CHURNING {
            shards[shard_of(next_id)]
                .watch(ProcessId::new(next_id))
                .unwrap();
            churning.push_back(next_id);
            next_id += 1;
        }
        for shard in &mut shards {
            shard.publish(Timestamp::from_nanos(SECOND / 2));
        }

        let reader = SnapshotReader::from_cells(cells);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reading = Arc::new(AtomicUsize::new(0));
        // One past the newest churning id, so readers poll the ids that
        // are coming and going right now.
        let frontier = Arc::new(AtomicUsize::new(next_id as usize));
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let reader = reader.clone();
                let stop = Arc::clone(&stop);
                let reading = Arc::clone(&reading);
                let frontier = Arc::clone(&frontier);
                std::thread::spawn(move || {
                    let mut reads = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        // Published tables are whole epochs, never a
                        // partial write, and hold no vacant row.
                        let snap = reader.snapshot();
                        assert!(snap.len() <= STEADY as usize + CHURNING);
                        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
                        for &(p, level) in &snap {
                            assert!(owner_matches(p, level), "{p:?} in snapshot: {level:?}");
                        }
                        // A peer that stays watched always has a level,
                        // whoever comes and goes around it; nobody ever
                        // gets a level published for another peer.
                        let newest = frontier.load(Ordering::SeqCst) as u32;
                        for id in (1..=STEADY).chain(newest - 3 * CHURNING as u32..newest) {
                            let p = ProcessId::new(id);
                            match reader.level(p) {
                                Some(level) => assert!(owner_matches(p, level), "{p:?}: {level:?}"),
                                None => assert!(id > STEADY, "steady {p:?} read None"),
                            }
                        }
                        for cell in reader.cells.iter() {
                            // A row's level and its durable record come
                            // from one publish, even when that publish
                            // left the record alone: SimpleAccrual's
                            // level *is* the epoch minus the last arrival.
                            let (at, rows) = cell.read_rows();
                            for (p, level, durable) in rows {
                                let last = durable.seed().and_then(|s| s.last_heartbeat);
                                let last = last.expect("simple detectors always have one");
                                assert_eq!(last.as_nanos() % SECOND, u64::from(p.as_u32()));
                                let elapsed = at.saturating_duration_since(last).as_secs_f64();
                                assert_eq!(level.value(), elapsed, "{p:?} at {at:?}");
                            }
                        }
                        reads += 1;
                        if reads == 1 {
                            reading.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    reads
                })
            })
            .collect();
        // The rounds start once every reader has read: at release speed
        // they could otherwise be over before a reader thread is up.
        while reading.load(Ordering::SeqCst) < READERS {
            assert!(handles.iter().all(|h| !h.is_finished()), "a reader failed");
            std::thread::yield_now();
        }

        // Each round only every third steady peer sends and every fourth
        // round nobody does, so most publishes write few durable rows and
        // the two banks are never written alike; every third round one
        // churning peer leaves and its slot is taken over — in turns by a
        // fresh id of the same shard and by the peer that just left, whose
        // index entry then leads to the row its previous incarnation
        // published. A reader that fails stops reading; the rounds still
        // end and the join below reports it.
        let mut sent = 0u64;
        for round in 1..=rounds {
            if round % 3 == 0 {
                let old = churning.pop_front().expect("CHURNING > 0");
                let new = if round % 2 == 0 {
                    old
                } else {
                    while shard_of(next_id) != shard_of(old) {
                        next_id += 1;
                    }
                    next_id += 1;
                    next_id - 1
                };
                let shard = &mut shards[shard_of(old)];
                assert!(shard.unwatch(ProcessId::new(old)).is_some());
                assert_eq!(shard.watch(ProcessId::new(new)), Ok(true));
                churning.push_back(new);
                frontier.store(next_id as usize, Ordering::SeqCst);
            }
            if round % 4 != 0 {
                let steady = (1..=STEADY).filter(|&id| u64::from(id) % 3 == round % 3);
                for id in steady.chain(churning.front().copied()) {
                    let hb = arrival(id, round);
                    assert!(shards[shard_of(id)].accept(hb, hb.sent_at));
                    sent += 1;
                }
            }
            for shard in &mut shards {
                shard.publish(Timestamp::from_nanos(round * SECOND + SECOND / 2));
            }
        }
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            assert!(h.join().unwrap() > 0, "every reader read at least once");
        }
        let accepted: u64 = shards.iter().map(|s| s.stats().accepted).sum();
        assert_eq!(accepted, sent);
        // Every newcomer took a vacated slot: the slabs never grew.
        let slots: usize = shards.iter().map(Shard::slots_used).sum();
        assert_eq!(slots, STEADY as usize + CHURNING);
    }
}
