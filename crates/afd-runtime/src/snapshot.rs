//! The snapshot protocol: how a shard's one writer publishes suspicion
//! levels that any number of readers take without a lock.
//!
//! This is the boundary of the paper's Fig. 2: the shard's thread
//! publishes (the pipeline that feeds it is [`shard`](crate::shard)'s),
//! and each application reads through a [`SnapshotReader`] clone.
//!
//! # One seqlock
//!
//! Every word a reader loads is stored inside a `SeqLock::write` (or a
//! `hold`, a write that leaves the word odd), and every read runs in a
//! `SeqLock::try_read`, which discards an attempt a write overlapped. The
//! writer is wait-free and readers are obstruction-free; everything is
//! plain atomics, no locks, no unsafe code, and the fences sit in `hold`
//! and `try_read` only. The rings of [`ring`](crate::ring) run each slot
//! on the same lock.
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
//! row. It probes a power-of-two prefix at least twice the slab's reach,
//! so at most half full, that a `watch` whose slot reaches past half of
//! it doubles by rehashing in place; the index never shrinks.
//!
//! # Epoch snapshots
//!
//! Each shard owns a `ShardCell`: two banks of atomics (one row per
//! slot: peer id and suspicion level as `f64` bits) plus a `front`
//! selector, and beside them one *durable table* (one row per slot: peer
//! id and seven durable words) that is not double-buffered. Rows come a
//! chunk at a time as the slab grows (see *What a publish writes*), so a
//! point read is one index probe, one chunk lookup and two loads. The
//! publishing thread fills the *back* bank inside its seqlock's write
//! section, then flips `front`; the bank it retires stays *held* — its
//! word odd — until the next publish has filled it. Readers load `front`
//! and read that bank inside its seqlock, retrying on a straddle or a held
//! bank. The durable table has a seqlock of its own: a publish writes its
//! changed rows in one write section, and the checkpointer, its one
//! reader, reads it whole in one read.
//!
//! A point read ([`SnapshotReader::level`]) takes two steps. It probes
//! the index for the peer's slot — under the index's own seqlock, because
//! an `unwatch` closes the gap it leaves by moving later entries of the
//! probe sequence back and a doubling moves them all, and a reader that
//! raced the move could otherwise walk past a key that is there; it
//! retries instead. Then, under the front bank's seqlock, it checks that
//! the row *holds that peer's id* before it takes the level. The index
//! says where a peer lives now and the bank what was there at the last
//! publish, and the id check is what reconciles the two: a slot that
//! changed hands since the publish answers `None`, never the previous
//! tenant's level. The previous tenant may be the peer itself: a peer
//! unwatched and watched again before the next publish takes back the
//! slot it just left, and the id check alone would pass it the level of
//! the detector that was dropped. So an `unwatch` does not wait for a
//! publish to retire the row: the shard's thread stores the vacant id
//! into it in *both* banks and in the durable table there and then,
//! inside each one's write section (*the re-watch rule*). So a peer that
//! is watched but not yet published reads `None` — whoever held the slot
//! before, itself included — an unwatched peer reads `None` and is gone
//! from [`SnapshotReader::snapshot`] and the checkpointer's view from the
//! `unwatch` on, and a peer that stays watched never reads `None`.
//!
//! # What a publish writes
//!
//! A peer's bank row is its id and its suspicion level; its durable row
//! is its id and seven durable words (detector seed, sequence watermark)
//! for the checkpointer, stored once. A publish writes them in two passes.
//!
//! **The row chunks.** Rows come in chunks of 256. A bank's chunk holds
//! them column by column: the ids, then the levels. A durable chunk holds
//! each row's id and words contiguous, 64 bytes starting on a cache line,
//! so storing or loading a row touches one line. `watch`, the one place a
//! row is born — an import and both executors go through it — gives the
//! new row's chunk to both banks and to the table when the slab first
//! reaches it. Only the chunk tables, 16 bytes a chunk each, are allocated
//! with the cell, so a shard's capacity is a ceiling and not a
//! reservation: it pays for the rows its slab has reached. A chunk stays
//! after an `unwatch`, because the free list reuses its rows.
//!
//! **The changed-slot pass.** The id and the durable words change only
//! when the slot changes hands, an arrival is accepted, a peer is
//! imported, or a caller borrows the detector mutably — so each such
//! change marks *that slot* in a bitset, a bit a slot. A publish walks it
//! a 64-slot word at a time and writes only the rows it names — the id
//! into the back bank, id and durable words into the durable table, in
//! the table's write section — so it costs a word per 64 slots plus the
//! changed rows, whatever the shard watches. After the flip it copies the
//! same rows' ids into the bank it retired — bank to bank, visiting no
//! slot — so the two banks agree on every row but its level. The retired
//! bank's levels are a publish older than its copied ids, so its word
//! stays held: a reader that loaded `front` before the flip retries rather
//! than read the mix. A slot vacated since it was marked is skipped, and
//! copying it is harmless: its rows hold `VACANT` in both banks and the
//! table — an id outside the `u32` id space, which `read_all` and
//! `read_durable` skip — since the `unwatch`. The table holds a publish's
//! rows from the end of its changed-slot pass on, a level pass before the
//! flip shows that publish's levels; the checkpointer reads the table
//! alone and takes its epoch from it.
//!
//! **The level pass.** The level is a function of the query time
//! (`sl_qp(t)`, §3 Definition 1), so every publish re-evaluates every
//! slot's — from the shard's *curve column*, not from the detectors: the
//! [`LevelCurve`] each detector's `level_curve` returned when its slot
//! last changed (the changed-slot pass refreshes it), stored field by
//! field beside an index into the column's table of *origins*, the
//! distinct instants its curves measure from. The pass converts `now −
//! origin` to seconds once per origin — every heartbeat of an intake
//! refill carries the refill's stamp, so a shard of a thousand φ peers
//! holds a few dozen — then runs the block kernel
//! [`CurveBlock::levels`](afd_core::accrual::CurveBlock::levels) eight
//! rows at a time straight into the bank's level words, chunk by chunk,
//! touching no slot (`Publish::store_levels` takes the column's blocks as
//! they are evaluated). A detector with no curve returns `None`: its row
//! holds the zero curve, its slot is *listed*, and the listed slots are
//! asked `suspicion_level(now)` one by one after the column. A vacant row
//! holds the zero curve too, and nobody reads its level.
//!
//! Published levels are as of the last publish, so a reader's view lags
//! real time by at most one tick interval. The reader is the one way a
//! level leaves the monitor: a caller that needs the level at an instant
//! (a trace replay at its query, a model schedule after an event) ticks
//! there and then reads.

use std::fmt;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use afd_core::accrual::{DetectorSeed, LevelCurve};
use afd_core::process::ProcessId;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;

/// 2⁶⁴/φ, the multiplier of a Fibonacci hash.
pub(crate) const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fibonacci-hashes a process id onto a shard index. A multiplicative
/// hash (rather than `id % shards`) keeps sequentially assigned ids from
/// striding into the same shard when the shard count shares a factor
/// with the id allocation pattern. A power-of-two count takes the same
/// shard by a mask instead of a division on every query and routed frame.
#[inline]
pub(crate) fn shard_index(process: ProcessId, shards: usize) -> usize {
    let h = (u64::from(process.as_u32()).wrapping_mul(FIBONACCI) >> 32) as usize;
    let (n, mask) = (shards.max(1), shards.max(1) - 1);
    if n & mask == 0 {
        h & mask
    } else {
        h % n
    }
}

/// A sequence lock over plain atomics: its one writer holds the word odd
/// while it stores, and a read that saw the word odd, or changed, is
/// discarded.
#[derive(Default)]
pub(crate) struct SeqLock(AtomicU64);

impl SeqLock {
    /// Runs the single writer's `stores` with the word odd.
    pub(crate) fn write<R>(&self, stores: impl FnOnce() -> R) -> R {
        let out = self.hold(stores);
        // Exit (even again): release-orders every store before the mark
        // readers synchronize with.
        let writing = self.0.load(Ordering::Relaxed);
        self.0.store(writing.wrapping_add(1), Ordering::Release);
        out
    }

    /// Runs the single writer's `stores` with the word odd and leaves it
    /// odd: no read succeeds until the next [`write`](Self::write) ends.
    pub(crate) fn hold<R>(&self, stores: impl FnOnce() -> R) -> R {
        // Enter: mark odd, then fence so the stores cannot be observed
        // before the mark. Plain stores suffice — there is one writer.
        // `| 1` rather than `+ 1`: a held word is odd already, as is one
        // whose `stores` unwound (a detector panicked), and the next
        // write must not flip it to even while it stores.
        self.0
            .store(self.0.load(Ordering::Relaxed) | 1, Ordering::Relaxed);
        fence(Ordering::Release);
        stores()
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

/// The rows a set of one bit a row names, ascending.
pub(crate) fn marked(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(word, &bits)| {
        let mut rest = bits;
        std::iter::from_fn(move || {
            let bit = (rest != 0).then(|| rest.trailing_zeros())?;
            rest &= rest - 1;
            Some(word * u64::BITS as usize + bit as usize)
        })
    })
}

/// Rows a [`RowChunk`] holds: a power of two, so a row's chunk and its
/// place in it are a shift and a mask.
pub(crate) const CHUNK: usize = 256;

/// The id a vacated row holds: outside the `u32` id space, so no lookup
/// matches it and the copying reads skip it.
const VACANT: u64 = u64::MAX;

/// Words in a durable row: its tenant's id, [`VACANT`] where the slot is
/// empty or not yet published, then a [`PeerDurable`]'s seven words.
const ROW_WORDS: usize = 8;

/// One durable row, starting on a cache-line boundary (see
/// [`DurableChunk`]): 64 bytes, so a store or a load touches one line.
pub(crate) type DurableRow = [AtomicU64; ROW_WORDS];

/// Plain load of a row's tenant and record; callers re-verify the seqlock.
fn load_row(row: &DurableRow) -> Option<(ProcessId, PeerDurable)> {
    let [id, words @ ..] = row;
    let id = u32::try_from(id.load(Ordering::Relaxed)).ok()?;
    let words = words.each_ref().map(|cell| cell.load(Ordering::Relaxed));
    Some((ProcessId::new(id), PeerDurable::from_words(words)))
}

/// [`CHUNK`] durable rows in one block of one row more, laid out from the
/// block's first cache-line boundary on. The allocator aligns a block to
/// 16 bytes, so the boundary is at most 48 bytes in. Asking it for 64-byte
/// alignment instead split a fragment off each chunk's block that kept
/// freed blocks from merging: the ledger's 256-peer monitor, set up
/// sixteen times, kept 84 KB more of its heap resident.
struct DurableChunk(Box<[AtomicU64]>);

impl DurableChunk {
    /// Allocates once a chunk: by the `watch` whose slot first reaches it.
    fn new() -> Self {
        // lint:allow(no-alloc-in-hot-path, once a chunk: its words, then the same block as atomics)
        let words = vec![VACANT; (CHUNK + 1) * ROW_WORDS];
        // lint:allow(no-alloc-in-hot-path, once a chunk: collected in place into the block above)
        DurableChunk(words.into_iter().map(AtomicU64::new).collect())
    }

    /// Row `i`, for `i` below [`CHUNK`].
    #[inline]
    fn row(&self, i: usize) -> Option<&DurableRow> {
        let skip = self.0.as_ptr().addr().wrapping_neg() % 64 / 8;
        let at = skip + i * ROW_WORDS;
        self.0.get(at..at + ROW_WORDS)?.try_into().ok()
    }
}

/// A shard's durable rows, one per slab slot and stored once: the
/// changed-row pass writes them, [`ShardCell::read_durable`] reads them,
/// and `vacate` empties one — each under the table's own seqlock (see
/// *What a publish writes*).
struct DurableTable {
    seq: SeqLock,
    /// The last publish that wrote the table, in nanoseconds.
    published_at: AtomicU64,
    /// The rows, [`CHUNK`] at a time as [`ShardCell::occupy`] reaches them.
    chunks: Box<[OnceLock<DurableChunk>]>,
}

impl DurableTable {
    fn new(slots: usize) -> Self {
        DurableTable {
            seq: SeqLock::default(),
            published_at: AtomicU64::new(0),
            chunks: (0..slots.div_ceil(CHUNK))
                .map(|_| OnceLock::new())
                // lint:allow(no-alloc-in-hot-path, once a cell: the durable table's chunk table)
                .collect(),
        }
    }

    /// Row `row`, if its chunk exists.
    #[inline]
    fn row(&self, row: usize) -> Option<&DurableRow> {
        self.chunks.get(row / CHUNK)?.get()?.row(row % CHUNK)
    }

    /// Every row of the chunks allocated, in slot order.
    fn rows(&self) -> impl Iterator<Item = &DurableRow> + '_ {
        let chunks = self.chunks.iter().map_while(OnceLock::get);
        chunks.flat_map(|chunk| (0..CHUNK).filter_map(|i| chunk.row(i)))
    }
}

/// [`CHUNK`] rows of a [`Bank`], column by column (see *The row chunks*).
struct RowChunk {
    /// Peer ids, [`VACANT`] where the slot is empty.
    ids: [AtomicU64; CHUNK],
    /// Suspicion levels as `f64` bit patterns.
    levels: [AtomicU64; CHUNK],
}

/// One bank of a [`ShardCell`]: one published row per slab slot plus the
/// seqlock word guarding them. A writer reaches a bank only through
/// [`ShardCell::publish`], inside the bank's write section.
struct Bank {
    seq: SeqLock,
    /// Rows in use: the slab's length at the publish.
    len: AtomicUsize,
    /// Publish timestamp, in nanoseconds.
    published_at: AtomicU64,
    /// The rows, a chunk at a time as [`ShardCell::occupy`] reaches one.
    chunks: Box<[OnceLock<Box<RowChunk>>]>,
}

impl Bank {
    fn new(slots: usize) -> Self {
        Bank {
            seq: SeqLock::default(),
            len: AtomicUsize::new(0),
            published_at: AtomicU64::new(0),
            chunks: (0..slots.div_ceil(CHUNK))
                .map(|_| OnceLock::new())
                // lint:allow(no-alloc-in-hot-path, once a cell: a bank's chunk table)
                .collect(),
        }
    }

    /// Row `row`'s chunk and its place in it, if the chunk exists. A row
    /// a publish wrote has one: `watch` allocated it before.
    #[inline]
    fn row(&self, row: usize) -> Option<(&RowChunk, usize)> {
        Some((self.chunks.get(row / CHUNK)?.get()?, row % CHUNK))
    }

    /// Copies row `row`'s tenant from `from`.
    #[inline]
    fn copy_id(&self, from: &Bank, row: usize) {
        if let (Some((to, i)), Some((from, _))) = (self.row(row), from.row(row)) {
            to.ids[i].store(from.ids[i].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// The epoch this bank was published at; callers re-verify the seqlock.
    fn published_at(&self) -> Timestamp {
        Timestamp::from_nanos(self.published_at.load(Ordering::Relaxed))
    }

    /// The live rows among the first `len`, in slot order: their slot,
    /// peer and level. Callers re-verify the seqlock.
    fn live_rows(
        &self,
        len: usize,
    ) -> impl Iterator<Item = (usize, ProcessId, SuspicionLevel)> + '_ {
        let chunks = self.chunks.iter().map_while(OnceLock::get);
        let rows = chunks.flat_map(|c| c.ids.iter().zip(&c.levels));
        rows.take(len)
            .enumerate()
            .filter_map(|(slot, (peer, level))| {
                let id = u32::try_from(peer.load(Ordering::Relaxed)).ok()?;
                let level = f64::from_bits(level.load(Ordering::Relaxed));
                Some((slot, ProcessId::new(id), SuspicionLevel::clamped(level)))
            })
    }
}

/// What a publish's `fill` writes through: the back bank, inside its write
/// section, and the shard's durable table.
pub(crate) struct Publish<'a> {
    bank: &'a Bank,
    table: &'a DurableTable,
    at: Timestamp,
}

impl Publish<'_> {
    /// The changed-row pass: writes each `(row, tenant, record)` — the
    /// tenant into the back bank, tenant and record into the durable
    /// table — inside the table's write section, which also stamps the
    /// table with the publish's epoch. A publish calls it once, with no
    /// rows if none changed.
    #[inline]
    pub(crate) fn store_rows(
        &self,
        rows: impl IntoIterator<Item = (usize, ProcessId, PeerDurable)>,
    ) {
        let (bank, table) = (self.bank, self.table);
        table.seq.write(|| {
            for (row, id, durable) in rows {
                let id = u64::from(id.as_u32());
                if let Some((chunk, i)) = bank.row(row) {
                    chunk.ids[i].store(id, Ordering::Relaxed);
                }
                if let Some([tenant, words @ ..]) = table.row(row) {
                    tenant.store(id, Ordering::Relaxed);
                    for (cell, word) in words.iter().zip(durable.words()) {
                        cell.store(word, Ordering::Relaxed);
                    }
                }
            }
            table
                .published_at
                .store(self.at.as_nanos(), Ordering::Relaxed);
        });
    }

    /// Writes the levels of the bank's rows from the first on, a block of
    /// [`LevelCurve::BLOCK`] rows per item of `blocks` — the shard's
    /// curve column evaluated at the publish's `now` — one chunk lookup
    /// per [`CHUNK`] rows.
    #[inline]
    pub(crate) fn store_levels(&self, blocks: impl IntoIterator<Item = [f64; LevelCurve::BLOCK]>) {
        let chunks = self.bank.chunks.iter().map_while(OnceLock::get);
        let words = chunks.flat_map(|chunk| chunk.levels.chunks_exact(LevelCurve::BLOCK));
        for (words, levels) in words.zip(blocks) {
            for (word, level) in words.iter().zip(levels) {
                word.store(level.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// Writes row `row`'s level.
    #[inline]
    pub(crate) fn store_level(&self, row: usize, level: SuspicionLevel) {
        if let Some((chunk, i)) = self.bank.row(row) {
            chunk.levels[i].store(level.value().to_bits(), Ordering::Relaxed);
        }
    }
}

/// Entries a [`SlotIndex`] holds in itself: its first prefix.
const SMALL: usize = 16;

/// The id→slot table of one shard: open addressing with linear probing
/// over plain atomics, in a prefix at most half full (see *Stable
/// slots*): [`SMALL`] entries held in the index itself, then the front of
/// one zeroed table of twice the capacity that the first doubling
/// allocates. The shard's thread writes it under a seqlock of its own,
/// because a removal and a doubling move entries (see *Epoch snapshots*).
/// An entry is `id << 32 | slot + 1`; zero is empty.
struct SlotIndex {
    seq: SeqLock,
    /// `64 − log2(prefix)`: a home bucket is the *top* bits of the
    /// Fibonacci product. [`shard_index`] consumed its bits 32 and up, so
    /// every id of a shard agrees on those, and a table that reused them
    /// would crowd the shard's peers into a fraction of its buckets.
    shift: AtomicU32,
    small: [AtomicU64; SMALL],
    flat: OnceLock<Vec<AtomicU64>>,
    /// Twice the capacity, a power of two: the longest prefix.
    flat_len: usize,
}

/// The bucket `id`'s probe sequence starts at, in the prefix of `shift`.
fn home(id: u64, shift: u32) -> usize {
    (id.wrapping_mul(FIBONACCI) >> shift) as usize
}

impl SlotIndex {
    /// A table for up to `slots` peers.
    fn new(slots: usize) -> Self {
        debug_assert!(slots < u32::MAX as usize, "slot + 1 fills 32 bits");
        SlotIndex {
            seq: SeqLock::default(),
            shift: AtomicU32::new(64 - SMALL.trailing_zeros()),
            small: Default::default(),
            flat: OnceLock::new(),
            flat_len: (2 * slots).next_power_of_two().max(SMALL),
        }
    }

    /// The table probed now, the prefix's mask and its shift. A doubling
    /// stores the shift after the table it needs exists, and a reader
    /// loads it first, so a prefix longer than [`SMALL`] comes with its
    /// table; a probe a doubling overlapped its seqlock discards.
    #[inline]
    fn prefix(&self) -> (&[AtomicU64], usize, u32) {
        let shift = self.shift.load(Ordering::Acquire);
        let entries = self.flat.get().map_or(&self.small[..], |flat| &flat[..]);
        (entries, (u64::MAX >> shift) as usize, shift)
    }

    /// Walks `id`'s probe sequence to its entry (`Ok`: position and slot)
    /// or to the first empty entry (`Err`: its position). The walk is
    /// bounded by the table so a reader racing the writer cannot spin on
    /// entries that keep moving under it; its seqlock discards the result.
    fn probe(&self, id: u64) -> Result<(usize, usize), usize> {
        let (entries, mask, shift) = self.prefix();
        let mut at = home(id, shift);
        for _ in 0..entries.len() {
            let Some(entry) = entries.get(at) else { break };
            let entry = entry.load(Ordering::Relaxed);
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

    /// Maps `process`, which must not be in the table, to `slot`, first
    /// growing the prefix, in a write section of its own, to at least
    /// twice `slot + 1`. The prefix then has an empty entry for it: it
    /// holds one entry per live slot, and the slab's reach is at most half
    /// of it.
    fn insert(&self, process: ProcessId, slot: usize) {
        let want = (2 * (slot + 1)).next_power_of_two();
        if want > self.prefix().1 + 1 {
            self.seq.write(|| self.rehash(want));
        }
        let id = u64::from(process.as_u32());
        self.seq.write(|| {
            if let Err(at) = self.probe(id) {
                let entries = self.prefix().0;
                entries[at].store(id << 32 | (slot as u64 + 1), Ordering::Relaxed);
            }
        });
    }

    /// Moves every entry into a prefix of `len` entries, in place; callers
    /// hold the write section.
    fn rehash(&self, len: usize) {
        let (entries, mask, _) = self.prefix();
        let old = &entries[..=mask];
        // lint:allow(relaxed-atomics-audit, the one writer empties the old prefix in its write section)
        let moved = old.iter().map(|e| e.swap(0, Ordering::Relaxed));
        // lint:allow(no-alloc-in-hot-path, once a doubling: the `watch` whose slot reaches past half the prefix)
        let moved: Vec<u64> = moved.filter(|&entry| entry != 0).collect();
        // Zeroed pages become atomics in place, untouched and not resident.
        // lint:allow(no-alloc-in-hot-path, once an index: the `watch` whose doubling outgrows SMALL)
        let zeroed = || vec![0; self.flat_len].into_iter().map(AtomicU64::new);
        // lint:allow(no-alloc-in-hot-path, once an index: the zeroed table, collected in place)
        self.flat.get_or_init(|| zeroed().collect());
        debug_assert!(len <= self.flat_len, "a slot past the capacity");
        let shift = 64 - len.trailing_zeros();
        self.shift.store(shift, Ordering::Release);
        let entries = self.prefix().0;
        for entry in moved {
            if let Err(at) = self.probe(entry >> 32) {
                entries[at].store(entry, Ordering::Relaxed);
            }
        }
    }

    /// Unmaps `process`, returning the slot it lived in.
    fn remove(&self, process: ProcessId) -> Option<usize> {
        let (at, slot) = self.probe(u64::from(process.as_u32())).ok()?;
        let (entries, mask, shift) = self.prefix();
        self.seq.write(|| {
            // Backward-shift delete: an entry further along the run may
            // fill the hole iff its home bucket is not past the hole —
            // otherwise a probe for it would stop at the hole.
            let mut hole = at;
            let mut next = (at + 1) & mask;
            loop {
                let entry = entries[next].load(Ordering::Relaxed);
                if entry == 0 {
                    break;
                }
                let from_home = next.wrapping_sub(home(entry >> 32, shift)) & mask;
                if from_home >= (next.wrapping_sub(hole) & mask) {
                    entries[hole].store(entry, Ordering::Relaxed);
                    hole = next;
                }
                next = (next + 1) & mask;
            }
            entries[hole].store(0, Ordering::Relaxed);
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
    durable: DurableTable,
    slot_of: SlotIndex,
    slots: usize,
}

impl ShardCell {
    pub(crate) fn new(slots: usize) -> Self {
        ShardCell {
            front: AtomicUsize::new(0),
            banks: [Bank::new(slots), Bank::new(slots)],
            durable: DurableTable::new(slots),
            slot_of: SlotIndex::new(slots),
            slots,
        }
    }

    /// Rows one bank can hold — the shard's watch capacity.
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// The slot `process` lives in, if it is watched: one index probe.
    #[inline]
    pub(crate) fn slot(&self, process: ProcessId) -> Option<usize> {
        self.slot_of.lookup(process)
    }

    /// Moves `process`, which is not watched, into row `slot`: gives the
    /// row its chunk in both banks and in the durable table, unless an
    /// earlier row's growth did, and maps the peer to it. The row answers
    /// from the next publish on.
    pub(crate) fn occupy(&self, process: ProcessId, slot: usize) {
        for rows in self.banks.iter().filter_map(|b| b.chunks.get(slot / CHUNK)) {
            // Allocates once a chunk: by the `watch` whose slot first reaches it.
            rows.get_or_init(|| {
                // lint:allow(no-alloc-in-hot-path, once a bank chunk: the `watch` whose slot first reaches it)
                Box::new(RowChunk {
                    ids: std::array::from_fn(|_| AtomicU64::new(VACANT)),
                    levels: std::array::from_fn(|_| AtomicU64::new(0)),
                })
            });
        }
        if let Some(rows) = self.durable.chunks.get(slot / CHUNK) {
            rows.get_or_init(DurableChunk::new);
        }
        self.slot_of.insert(process, slot);
    }

    /// Unmaps `process` and stores the vacant id into its row in both
    /// banks, each inside its write section (the re-watch rule) — the back
    /// bank's stays held — and then into its durable row, returning the
    /// row. A reader led back to the row by a later `watch` of the same
    /// peer finds it vacated: the lookup that finds the new entry has
    /// acquired the index's write section, which came after these.
    pub(crate) fn vacate(&self, process: ProcessId) -> Option<usize> {
        let slot = self.slot_of.remove(process)?;
        let front = self.front.load(Ordering::Relaxed) & 1;
        let vacate = |b: usize| {
            let row = self.banks[b].row(slot);
            move || row.map(|(chunk, i)| chunk.ids[i].store(VACANT, Ordering::Relaxed))
        };
        self.banks[front].seq.write(vacate(front));
        self.banks[front ^ 1].seq.hold(vacate(front ^ 1));
        let row = self.durable.row(slot);
        self.durable
            .seq
            .write(|| row.map(|[tenant, ..]| tenant.store(VACANT, Ordering::Relaxed)));
        Some(slot)
    }

    /// Publishes a new front bank: `fill` writes the changed rows and the
    /// levels through a [`Publish`] and returns how many rows are in use,
    /// and `front` flips. Then the ids of the rows `rows` names, a bit a
    /// row, are copied into the bank just retired, whose word stays held
    /// (see *What a publish writes*). Single writer: the shard's thread.
    pub(crate) fn publish(
        &self,
        at: Timestamp,
        rows: &[u64],
        fill: impl FnOnce(&Publish<'_>) -> usize,
    ) {
        let back = (self.front.load(Ordering::Relaxed) & 1) ^ 1;
        let (bank, old) = (&self.banks[back], &self.banks[back ^ 1]);
        let publish = Publish {
            bank,
            table: &self.durable,
            at,
        };
        bank.seq.write(|| {
            let n = fill(&publish).min(self.slots);
            bank.len.store(n, Ordering::Relaxed);
            bank.published_at.store(at.as_nanos(), Ordering::Relaxed);
        });
        self.front.store(back, Ordering::Release);
        old.seq
            .hold(|| marked(rows).for_each(|row| old.copy_id(bank, row)));
    }

    /// Runs `read` against a consistent front bank, retrying while a
    /// publish straddles the attempt.
    fn with_consistent<R>(&self, mut read: impl FnMut(&Bank, usize) -> R) -> R {
        loop {
            let bank = &self.banks[self.front.load(Ordering::Acquire) & 1];
            let attempt = bank
                .seq
                .try_read(|| read(bank, bank.len.load(Ordering::Relaxed)));
            if let Some(out) = attempt {
                return out;
            }
            std::hint::spin_loop();
        }
    }

    /// The published level of `process`: the index names its slot, and
    /// the row answers only if it holds the peer's id, which only a
    /// publish writes — a chunk starts vacant, and `vacate` empties a row.
    pub(crate) fn lookup(&self, process: ProcessId) -> Option<SuspicionLevel> {
        let slot = self.slot_of.lookup(process)?;
        let id = u64::from(process.as_u32());
        self.with_consistent(|bank, _| {
            let (chunk, i) = bank.row(slot)?;
            (chunk.ids[i].load(Ordering::Relaxed) == id).then(|| {
                let bits = chunk.levels[i].load(Ordering::Relaxed);
                SuspicionLevel::clamped(f64::from_bits(bits))
            })
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
    /// the durable table's own seqlock: the records are those of one
    /// publish — less the peers unwatched since — never a mix of two
    /// epochs.
    pub(crate) fn read_durable(&self, out: &mut Vec<(ProcessId, PeerDurable)>) -> Timestamp {
        let table = &self.durable;
        loop {
            let attempt = table.seq.try_read(|| {
                out.clear();
                out.extend(table.rows().filter_map(load_row));
                Timestamp::from_nanos(table.published_at.load(Ordering::Relaxed))
            });
            if let Some(at) = attempt {
                return at;
            }
            std::hint::spin_loop();
        }
    }

    /// The epoch of the front bank.
    fn published_at(&self) -> Timestamp {
        self.with_consistent(|bank, _| bank.published_at())
    }
}

/// A cloneable, lock-free view of the last published epoch snapshots.
///
/// Readers never block the tick writer and never take a lock; each read
/// retries only if it overlaps a publish of the same shard or an `unwatch`
/// in it.
#[derive(Clone)]
pub struct SnapshotReader {
    cells: Arc<[Arc<ShardCell>]>,
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
    pub(crate) fn from_cells(cells: Arc<[Arc<ShardCell>]>) -> Self {
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
    /// the published durable table, so the dump never touches
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

    /// What the tests of this module and of `shard` read of a cell.
    impl ShardCell {
        /// The epoch plus level and durable record of every live row, all
        /// from one publish: the front bank and the durable table are read
        /// each under its seqlock, and an attempt that finds the table
        /// already written by a publish whose flip is still to come is
        /// retried. Publishes in these tests have distinct epochs.
        pub(crate) fn read_rows(
            &self,
        ) -> (Timestamp, Vec<(ProcessId, SuspicionLevel, PeerDurable)>) {
            let table = &self.durable;
            loop {
                let read = self.with_consistent(|bank, len| {
                    table.seq.try_read(|| {
                        let stamped = table.published_at.load(Ordering::Relaxed);
                        let rows: Vec<_> = (bank.live_rows(len))
                            .map(|(slot, p, level)| (p, level, table.row(slot).and_then(load_row)))
                            .collect();
                        (bank.published_at(), Timestamp::from_nanos(stamped), rows)
                    })
                });
                // Both words held still across every load: one state.
                if let Some((at, _, rows)) = read.filter(|(at, stamped, _)| at == stamped) {
                    let rows = (rows.into_iter())
                        .map(|(p, level, record)| {
                            let (tenant, durable) = record.expect("a live row has a record");
                            assert_eq!(tenant, p);
                            (p, level, durable)
                        })
                        .collect();
                    return (at, rows);
                }
                std::hint::spin_loop();
            }
        }

        /// The id of each of the first `rows` rows of the front bank, then
        /// of the back bank; the caller is the shard's thread, so no write
        /// is in flight.
        pub(crate) fn bank_rows(&self, rows: usize) -> [Vec<u64>; 2] {
            let front = self.front.load(Ordering::Relaxed) & 1;
            [front, front ^ 1].map(|b| {
                let bank = &self.banks[b];
                (0..rows)
                    .map(|row| {
                        let (chunk, i) = bank.row(row).expect("a reached row has a chunk");
                        chunk.ids[i].load(Ordering::Relaxed)
                    })
                    .collect()
            })
        }

        /// The tenant and record of each of the first `rows` rows of the
        /// durable table, `None` where it is vacant.
        pub(crate) fn durable_rows(&self, rows: usize) -> Vec<Option<(ProcessId, PeerDurable)>> {
            (0..rows)
                .map(|row| load_row(self.durable.row(row).expect("a reached row has a chunk")))
                .collect()
        }

        /// Row chunks allocated so far, per bank.
        pub(crate) fn chunks_allocated(&self) -> [usize; 2] {
            (self.banks)
                .each_ref()
                .map(|b| b.chunks.iter().filter(|c| c.get().is_some()).count())
        }

        /// Row chunks the durable table has allocated so far.
        pub(crate) fn durable_chunks_allocated(&self) -> usize {
            self.durable
                .chunks
                .iter()
                .filter(|c| c.get().is_some())
                .count()
        }

        /// Entries in the index's probed prefix.
        pub(crate) fn index_prefix(&self) -> usize {
            self.slot_of.prefix().1 + 1
        }

        /// Where the index keeps `process`: its slot, and how many entries
        /// past its home bucket the entry sits.
        pub(crate) fn displacement(&self, process: ProcessId) -> Option<(usize, usize)> {
            let (index, id) = (&self.slot_of, u64::from(process.as_u32()));
            let (at, slot) = index.probe(id).ok()?;
            let (_, mask, shift) = index.prefix();
            Some((slot, at.wrapping_sub(home(id, shift)) & mask))
        }
    }

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

    #[test]
    fn a_durable_row_is_one_aligned_cache_line() {
        // Whatever 16-byte boundary the allocator hands the block, every
        // row starts on a line and the rows do not overlap.
        for _ in 0..8 {
            let chunks: Vec<DurableChunk> = (0..4).map(|_| DurableChunk::new()).collect();
            for chunk in &chunks {
                let rows: Vec<usize> = (0..CHUNK)
                    .map(|i| chunk.row(i).expect("a chunk holds CHUNK rows"))
                    .map(|row| row.as_ptr().addr())
                    .collect();
                assert!(rows.iter().all(|&at| at % 64 == 0), "{rows:x?}");
                assert!(rows.windows(2).all(|w| w[1] - w[0] == 64));
            }
        }
        assert_eq!(std::mem::size_of::<DurableRow>(), 64);
    }

    mod slot_index {
        use super::*;
        use proptest::prelude::*;
        use std::collections::btree_map::Entry;

        /// `2 · slots` ids for a `slots`-slot table, chosen by where they
        /// hash in its longest prefix: three in eight share the last bucket
        /// (their run wraps around the end), a quarter the one before, an
        /// eighth the first, a quarter land elsewhere. A home is the top
        /// bits of the product, so ids that share a bucket in the longest
        /// prefix share one in every shorter prefix too.
        fn pool(slots: usize) -> Vec<u32> {
            let len = (2 * slots).next_power_of_two().max(SMALL);
            let (shift, last) = (64 - len.trailing_zeros(), len - 1);
            let homed = move |bucket: usize, n: usize| {
                (0..u32::MAX)
                    .filter(move |&id| home(u64::from(id), shift) == bucket)
                    .take(n)
            };
            let elsewhere = (0..u32::MAX)
                .filter(|&id| (1..last - 1).contains(&home(u64::from(id), shift)))
                .take(slots / 2);
            homed(last, 3 * slots / 4)
                .chain(homed(last - 1, slots / 2))
                .chain(homed(0, slots / 4))
                .chain(elsewhere)
                .collect()
        }

        /// Runs `steps` (a pick from the pool, then insert if below 5,
        /// else remove) against a `slots`-slot table and a `BTreeMap`,
        /// handing out slots as a slab does: the most recently freed one,
        /// else the next unreached one. Returns how often the prefix
        /// doubled.
        fn agrees(slots: usize, steps: Vec<(usize, u8)>) -> usize {
            let pool = pool(slots);
            let index = SlotIndex::new(slots);
            let word = || index.seq.0.load(Ordering::Relaxed);
            let mut oracle: BTreeMap<u32, usize> = BTreeMap::new();
            let (mut free, mut reach, mut doublings) = (Vec::new(), 0, 0);
            for (pick, action) in steps {
                let id = pool[pick % pool.len()];
                let p = ProcessId::new(id);
                let (before, prefix) = (word(), index.prefix().1 + 1);
                let mut wrote = false;
                // Inserts outnumber removes, so the table fills up.
                if action < 5 {
                    if let Entry::Vacant(unmapped) = oracle.entry(id) {
                        let unreached = (reach < slots).then_some(reach);
                        if let Some(slot) = free.pop().or(unreached) {
                            reach = reach.max(slot + 1);
                            index.insert(p, slot);
                            unmapped.insert(slot);
                            wrote = true;
                        }
                    }
                } else {
                    let removed = index.remove(p);
                    assert_eq!(removed, oracle.remove(&id));
                    wrote = removed.is_some();
                    free.extend(removed);
                }
                // A doubling, like a removal, moves entries: it runs in a
                // write section of its own, before the insert's, and
                // advances the word that makes an overlapping reader retry
                // by 2.
                let (entries, mask, _) = index.prefix();
                let grew = mask + 1 > prefix;
                doublings += usize::from(grew);
                assert!(wrote || !grew);
                assert_eq!(word(), before + 2 * u64::from(wrote) + 2 * u64::from(grew));
                assert_eq!(mask + 1, (2 * reach).next_power_of_two().max(SMALL));
                for &id in &pool {
                    let got = index.lookup(ProcessId::new(id));
                    assert_eq!(got, oracle.get(&id).copied(), "id {id}");
                }
                // Nothing is left behind outside the prefix.
                let used = entries.iter().filter(|e| e.load(Ordering::Relaxed) != 0);
                assert_eq!(used.count(), oracle.len());
            }
            doublings
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

            /// The table agrees with a `BTreeMap` through any sequence of
            /// inserts and removes — up to every slot in use (load ½),
            /// through colliding runs, wrap-around and reinsertion — and
            /// after every step, for every id: a removal must leave each
            /// remaining key reachable from its home bucket. The second
            /// table's prefix doubles twice, 16 → 32 → 64, mid-sequence,
            /// and every key must survive each rehash.
            #[test]
            fn agrees_with_a_btreemap(
                steps in prop::collection::vec((0usize..16, 0u8..8), 0..96),
                crossing in prop::collection::vec((0usize..64, 0u8..8), 128..256),
            ) {
                prop_assert_eq!(agrees(8, steps), 0);
                prop_assert_eq!(agrees(32, crossing), 2);
            }
        }
    }

    #[test]
    fn the_retired_bank_is_held_until_a_publish_fills_it() {
        // A publish copies its changed rows into the bank it retires, whose
        // levels are a publish older: a reader that loaded `front` before
        // the flip must not read that mix, so the retired bank's word stays
        // odd — through an `unwatch` too — until a publish fills it again.
        let (cells, mut shards) = build_shards(1, 8, |p: ProcessId| {
            SimpleAccrual::new(Timestamp::from_nanos(u64::from(p.as_u32())))
        });
        let (cell, shard) = (&cells[0], &mut shards[0]);
        let readable = |cell: &ShardCell| {
            let front = cell.front.load(Ordering::Relaxed) & 1;
            [front, front ^ 1].map(|b| cell.banks[b].seq.try_read(|| ()).is_some())
        };
        let (p, q) = (ProcessId::new(1), ProcessId::new(2));
        shard.watch(p).unwrap();
        shard.watch(q).unwrap();
        for round in 1..=3u64 {
            let at = Timestamp::from_secs(round);
            let hb = Heartbeat {
                sender: p,
                seq: round,
                sent_at: at,
            };
            assert!(shard.accept(hb, at));
            shard.publish(at);
            assert_eq!(readable(cell), [true, false], "round {round}");
        }
        assert!(shard.unwatch(q).is_some());
        assert_eq!(readable(cell), [true, false], "an unwatch keeps the hold");
        assert_eq!(cell.lookup(q), None);
        assert_eq!(cell.lookup(p), Some(SuspicionLevel::ZERO));
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

    #[test]
    fn readers_never_miss_a_steady_peer_while_the_snapshot_grows() {
        // The writer watches fresh ids until the index has doubled at
        // least three times and the banks have two more row chunks,
        // publishing as it goes, while readers poll the steady peers. No
        // peer is ever heard: a never-heard detector starts `id` ns past
        // zero and every publish is half a second past a whole one, so a
        // level alone says whose it is, as in the torn-snapshot test.
        const SECOND: u64 = 1_000_000_000;
        const STEADY: u32 = 16;
        const READERS: usize = if cfg!(miri) { 2 } else { 4 };
        let owner_matches = |p: ProcessId, level: SuspicionLevel| {
            let nanos = (level.value() * 1e9).round() as u64;
            (nanos + u64::from(p.as_u32())) % SECOND == SECOND / 2
        };
        // Slots 0..=512 reach the third chunk.
        let fresh = 2 * CHUNK as u32 + 1 - STEADY;
        let publish_every: u32 = if cfg!(miri) { 64 } else { 4 };
        let (cells, mut shards) = build_shards(1, 1024, |p: ProcessId| {
            SimpleAccrual::new(Timestamp::from_nanos(u64::from(p.as_u32())))
        });
        let (mut shard, cell) = (shards.pop().expect("one shard"), Arc::clone(&cells[0]));
        for id in 1..=STEADY {
            shard.watch(ProcessId::new(id)).unwrap();
        }
        let mut epoch = 0;
        shard.publish(Timestamp::from_nanos(SECOND / 2));
        let (prefix, chunks) = (cell.index_prefix(), cell.chunks_allocated());
        assert_eq!(chunks, [1, 1]);

        let reader = SnapshotReader::from_cells(cells);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reading = Arc::new(AtomicUsize::new(0));
        // The newest fresh id, so readers poll the ids being watched now.
        let frontier = Arc::new(AtomicUsize::new(1_000));
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let (reader, stop) = (reader.clone(), Arc::clone(&stop));
                let (reading, frontier) = (Arc::clone(&reading), Arc::clone(&frontier));
                std::thread::spawn(move || {
                    let mut reads = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        for id in 1..=STEADY {
                            let p = ProcessId::new(id);
                            let level = reader.level(p).expect("a steady peer read None");
                            assert!(owner_matches(p, level), "{p:?}: {level:?}");
                        }
                        // A fresh peer reads `None` until it is published,
                        // and never another peer's level.
                        let newest = frontier.load(Ordering::SeqCst) as u32;
                        for id in newest - 2 * publish_every..=newest {
                            let p = ProcessId::new(id);
                            if let Some(level) = reader.level(p) {
                                assert!(owner_matches(p, level), "{p:?}: {level:?}");
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
        while reading.load(Ordering::SeqCst) < READERS {
            assert!(handles.iter().all(|h| !h.is_finished()), "a reader failed");
            std::thread::yield_now();
        }

        for id in 1_000..1_000 + fresh {
            assert_eq!(shard.watch(ProcessId::new(id)), Ok(true));
            frontier.store(id as usize, Ordering::SeqCst);
            if id % publish_every == 0 {
                epoch += 1;
                shard.publish(Timestamp::from_nanos(epoch * SECOND + SECOND / 2));
            }
        }
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            assert!(h.join().unwrap() > 0, "every reader read at least once");
        }
        let doublings = (cell.index_prefix() / prefix).trailing_zeros();
        assert!(doublings >= 3, "{prefix} → {}", cell.index_prefix());
        let grown = cell.chunks_allocated().map(|n| n - chunks[0]);
        assert_eq!(grown, [2, 2]);
    }

    proptest::proptest! {
        /// `shard_index` is bits 32 and up of the Fibonacci product modulo
        /// the shard count: the mask that stands for the modulo at a
        /// power-of-two count picks the same shard, so checkpoint routing,
        /// `MultiUdpTransport::lane_for` and every digest stay put.
        #[test]
        fn shard_index_is_the_product_modulo_the_count(
            ids in proptest::collection::vec(proptest::prelude::any::<u32>(), 1..32),
        ) {
            for n in 1..=64usize {
                for &id in &ids {
                    let h = u64::from(id).wrapping_mul(FIBONACCI) >> 32;
                    proptest::prop_assert_eq!(
                        shard_index(ProcessId::new(id), n),
                        (h % n as u64) as usize
                    );
                }
            }
        }
    }
}
