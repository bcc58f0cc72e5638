//! The monitor pipeline's shared stages and its inline executor.
//!
//! Algorithm 4's receive rule — a heartbeat fresher than the freshest
//! seen records an arrival — runs here as one pipeline of three stages:
//!
//! 1. **intake** (`Intake`): refill a reusable [`FrameBatch`] arena
//!    from the transport, stamp the refill with one clock read — the
//!    receive step's local time, carried by every heartbeat of the
//!    refill — decode every frame through one [`WireDecoder`] (v1 and
//!    compact v2 frames mix freely; corrupt frames are counted, never
//!    panicked on) and route each heartbeat to its shard by
//!    `shard_index`;
//! 2. **accept** (`accept_batch`): the drained, stamped batch goes
//!    through in three passes — *resolve* (one probe of the id→slot index
//!    per frame), *warm* (plain loads of what an arrival will read) and
//!    *apply* (serial-number freshness, then the watch check, then the
//!    detector update, strictly in arrival order) — see *The accept
//!    stage*;
//! 3. **publish** (`Shard::publish`): each shard's suspicion levels go
//!    into a double-buffered epoch snapshot that [`SnapshotReader`]s
//!    consume without taking any lock, and its durable rows into one table
//!    beside it, in two passes: the *changed-slot* pass visits only the
//!    slots a bitset names as changed since the last publish, refreshing
//!    their [`LevelCurve`] and writing their rows, whose ids the cell
//!    copies into the other bank after the flip; the *level* pass
//!    re-evaluates every level from the shard's dense column of curves,
//!    eight peers at a time, without touching a slot. The protocol between this writer and the readers —
//!    slots, banks, the index and their seqlocks — is
//!    [`snapshot`](crate::snapshot)'s.
//!
//! `Shard` owns every per-shard operation (watch with capacity,
//! unwatch, import of a restored peer, accept, publish, counters), so the
//! two executors share them by construction:
//!
//! - [`ShardedMonitor`] is the **inline executor**: one
//!   [`tick`](ShardedMonitor::tick) runs all three stages on the calling
//!   thread. Deterministic under a virtual clock; every trace replay
//!   (the experiments' and chaos runs') and the model-checker replay run
//!   on it with `shards: 1`.
//! - [`ParallelShardEngine`](crate::engine::ParallelShardEngine) is the
//!   **threaded executor**: lane threads run stage 1 and hand
//!   heartbeats over SPSC rings to one worker thread per shard that runs
//!   stages 2–3.
//!
//! # The accept stage
//!
//! The receive rule is stated per heartbeat and orders nothing between
//! *different* senders, but an accept walks three dependent memory levels
//! — the index entry, the slot, the detector's sample ring — and is long
//! enough that the processor holds about two of them in flight: on a
//! watch set that outgrows the cache, frame by frame, every miss is paid
//! almost serially. So the stage takes the whole drained batch:
//!
//! - **resolve** probes the index once per frame and writes the slot
//!   beside the frame. The iterations are short and independent, so a
//!   batch's index misses overlap. Running ahead of the apply pass is
//!   sound because only `watch`, `unwatch` and `import` change the index,
//!   all three need the shard mutably, and whoever runs a batch holds it
//!   — [`tick`](ShardedMonitor::tick) through `&mut self`, a worker by
//!   owning its shard — so none can run between a batch's resolve and its
//!   apply.
//! - **warm** loads, for each resolved slot, the watermark and the
//!   detector state an arrival reads, and discards them. It may do
//!   nothing a peer, a reader or a later pass could observe: no store, no
//!   counter, only loads whose values are thrown away.
//! - **apply** is the receive rule itself, frame by frame in arrival
//!   order, taking the resolved slot instead of probing again. The order
//!   is what makes a sender that appears twice in a batch, a duplicate, a
//!   stale frame and a stranger judged against its retired watermark end
//!   in the counters and detector states one-at-a-time accepts give, bit
//!   for bit (`staged_accept_equals_one_at_a_time`).
//!
//! Both executors call it — the inline one over a tick's mixed-shard
//! batch as it stands, a worker over what it popped from its rings — and
//! `Shard::accept` is its batch of one.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::hint::black_box;
use std::mem;
use std::sync::Arc;

use afd_core::accrual::{AccrualFailureDetector, LevelCurve};
use afd_core::process::ProcessId;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;

use crate::clock::Clock;
use crate::error::TransportError;
use crate::persist::{RestoreImport, RestoredPeer};
use crate::seq::{classify, SeqVerdict};
use crate::snapshot::{marked, shard_index, PeerDurable, ShardCell, SnapshotReader};
use crate::transport::{FrameBatch, Transport};
use crate::wire::{Heartbeat, WireDecoder};

/// Slots in the reusable intake arena drained per
/// [`recv_batch`](Transport::recv_batch) call.
pub(crate) const INTAKE_BATCH_SLOTS: usize = 512;

pub(crate) type DetectorFactory<D> = Box<dyn FnMut(ProcessId) -> D + Send>;

/// Sizing for a [`ShardedMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards the watch set is partitioned into (floored at 1).
    pub shards: usize,
    /// Maximum watched processes per shard: a ceiling, not a reservation.
    /// A shard's snapshot rows and slot index grow with the peers it
    /// watches, up to this many; [`ShardedMonitor::watch`] fails with
    /// [`ShardCapacityError`] when a shard is full.
    pub slots_per_shard: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 8,
            slots_per_shard: 4096,
        }
    }
}

/// A shard refused a new watch because it watches its capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCapacityError {
    /// The shard that is at capacity.
    pub shard: usize,
    /// Its configured slot count.
    pub capacity: usize,
}

impl fmt::Display for ShardCapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} is at capacity ({} watched processes); raise \
             ShardConfig::slots_per_shard or add shards",
            self.shard, self.capacity
        )
    }
}

impl std::error::Error for ShardCapacityError {}

/// Outcome counters of the accept stage: every decoded frame lands in
/// exactly one of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Valid, fresh heartbeats fed to detectors.
    pub accepted: u64,
    /// Frames that failed decoding (bad length, checksum, …).
    pub corrupt: u64,
    /// Valid frames whose sequence number was behind the freshest seen
    /// (reordered or replayed).
    pub stale: u64,
    /// Valid frames redelivering exactly the freshest sequence number
    /// seen — a duplicating network, not a reordering one.
    pub duplicate: u64,
    /// Valid frames from processes nobody watches.
    pub unwatched: u64,
}

impl MonitorStats {
    /// Totals over per-shard counters plus the pre-shard `corrupt` count
    /// (decoding fails before any shard is chosen).
    pub(crate) fn totals(corrupt: u64, per_shard: &[MonitorStats]) -> MonitorStats {
        let mut totals = MonitorStats {
            corrupt,
            ..MonitorStats::default()
        };
        for s in per_shard {
            totals.accepted += s.accepted;
            totals.stale += s.stale;
            totals.duplicate += s.duplicate;
            totals.unwatched += s.unwatched;
        }
        totals
    }

    /// Publishes the five outcome counters into `registry` as
    /// `sharded.{accepted,corrupt,stale,duplicate,unwatched}`.
    pub(crate) fn export_metrics(&self, registry: &afd_obs::Registry) {
        registry.counter("sharded.accepted").set(self.accepted);
        registry.counter("sharded.corrupt").set(self.corrupt);
        registry.counter("sharded.stale").set(self.stale);
        registry.counter("sharded.duplicate").set(self.duplicate);
        registry.counter("sharded.unwatched").set(self.unwatched);
    }
}

/// What one [`tick`](ShardedMonitor::tick) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickReport {
    /// Frames drained from the transport (including corrupt ones).
    pub drained: usize,
    /// Heartbeats accepted into detectors.
    pub accepted: usize,
}

/// Aggregated counters for a [`ShardedMonitor`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardedStats {
    /// Counters summed across shards; `corrupt` counts frames that failed
    /// decoding *before* any shard was chosen, so it appears only here.
    pub totals: MonitorStats,
    /// Per-shard intake counters (each shard's `corrupt` is always 0).
    pub per_shard: Vec<MonitorStats>,
    /// Watched processes per shard, for balance inspection.
    pub peers_per_shard: Vec<usize>,
    /// Ticks executed so far.
    pub ticks: u64,
}

/// One slot of a shard's slab; its position is its row in both banks, in
/// the durable table and in the shard's curve column. A vacant slot owes
/// the cell nothing: the `unwatch` that emptied it vacated its rows itself.
enum Slot<D> {
    Live(Watched<D>),
    Vacant,
}

/// What a live slot holds: everything accept and publish need of a peer.
struct Watched<D> {
    id: ProcessId,
    /// Highest heartbeat sequence accepted (Algorithm 4's freshness
    /// state), carried over from [`Shard::retired`] on a re-watch.
    highest_seq: Option<u64>,
    detector: D,
}

impl<D> Slot<D> {
    fn live(&mut self) -> Option<&mut Watched<D>> {
        match self {
            Slot::Live(watched) => Some(watched),
            Slot::Vacant => None,
        }
    }
}

/// The curve column of a shard: for every slot of the slab, the level of
/// the peer in it as a function of the query time. It is what a publish
/// evaluates in place of the detectors — dense, 32 bytes a row where a φ
/// slot is 128 — and it is kept here, not gathered from the slots at each
/// publish: the second visit to the slots costs more than staging saves.
/// It is the one copy: a detector builds its curve when asked and keeps
/// none.
///
/// It grows a block at a time with the slab and, unlike the slab, reserves
/// nothing ahead, so a shard pays for the peers it watches and not for its
/// capacity. (Reserved room is not free where a heap has been lived in: the
/// allocator hands out chunks that are already resident, and what would
/// have gone there goes to fresh pages — on the ledger's 256-peer workload
/// a column reserved to capacity cost 48 resident bytes a peer without one
/// of them being written.)
#[derive(Default)]
struct CurveColumn {
    /// Row `r` is `blocks[r / BLOCK][r % BLOCK]`, a block being what one
    /// [`LevelCurve::at_block`] takes. A row is the zero curve while its
    /// slot is vacant, not yet reached by the slab, or listed below.
    blocks: Vec<[LevelCurve; LevelCurve::BLOCK]>,
    /// The live slots whose detector has no curve, ascending: their level
    /// is still asked of the detector, one by one, at every publish.
    curveless: Vec<usize>,
}

impl CurveColumn {
    /// Grows the column to hold a row for each of `slots` slots.
    fn cover(&mut self, slots: usize) {
        while self.blocks.len() * LevelCurve::BLOCK < slots {
            self.blocks.push([LevelCurve::Zero; LevelCurve::BLOCK]);
        }
    }

    /// Sets row `row` to a detector's answer: its curve, or — for `None`
    /// — the zero curve and a place on the `curveless` list, which a row
    /// that has a curve leaves.
    #[inline]
    fn set(&mut self, row: usize, curve: Option<LevelCurve>) {
        self.blocks[row / LevelCurve::BLOCK][row % LevelCurve::BLOCK] =
            curve.unwrap_or(LevelCurve::Zero);
        match (self.curveless.binary_search(&row), curve) {
            (Err(at), None) => self.curveless.insert(at, row),
            (Ok(at), Some(_)) => {
                self.curveless.remove(at);
            }
            _ => {}
        }
    }
}

/// The rows a shard's next publish owes the banks, one bit a slab slot. A
/// row's id, its durable words and its curve change only where
/// [`accept_batch`], an import or a caller holding
/// [`ShardedMonitor::detector_mut`] changes them, or where the slot
/// changes hands; the next publish writes the row, into both banks and
/// the durable table, and clears the set. An `unwatch` leaves its slot's
/// bit: the publish skips a vacant slot. Like the curve column, the set
/// grows a word at a time with the slab and reserves nothing ahead.
#[derive(Default)]
struct OwedRows(Vec<u64>);

impl OwedRows {
    /// Grows the set to hold a bit for each of `slots` slots; the slab
    /// never shrinks, so neither does it.
    fn cover(&mut self, slots: usize) {
        self.0.resize(slots.div_ceil(u64::BITS as usize), 0);
    }

    /// Marks row `row` changed; the set already covers it.
    #[inline]
    fn mark(&mut self, row: usize) {
        self.0[row / u64::BITS as usize] |= 1 << (row % u64::BITS as usize);
    }
}

/// The sequence watermarks of peers a shard no longer watches, so that
/// replays stay rejected across unwatch → re-watch: at most `capacity` of
/// them — the shard's `slots_per_shard` — in retirement order. Retiring
/// one more drops the oldest, and a peer whose watermark was dropped is
/// judged as one never heard: a peer re-watched after more than
/// `capacity` later retirements starts with no watermark, as an unseen
/// peer does, and its frames from before are accepted as fresh.
#[derive(Debug, PartialEq)]
struct Retired {
    marks: BTreeMap<ProcessId, u64>,
    /// The peers in `marks`, oldest retirement first.
    order: VecDeque<ProcessId>,
    capacity: usize,
    /// Watermarks dropped to stay within `capacity`.
    dropped: u64,
}

impl Retired {
    fn new(capacity: usize) -> Self {
        Retired {
            marks: BTreeMap::new(),
            order: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// The watermark `process` retired with, if it is still kept.
    fn get(&self, process: ProcessId) -> Option<u64> {
        self.marks.get(&process).copied()
    }

    /// Takes back the watermark of `process`, which is being watched again.
    /// Finding its place in `order` walks the list, which only a re-watch
    /// of a retired peer does; a frame looks it up in `marks` alone.
    fn take(&mut self, process: ProcessId) -> Option<u64> {
        let seq = self.marks.remove(&process)?;
        if let Some(at) = self.order.iter().position(|&p| p == process) {
            self.order.remove(at);
        }
        Some(seq)
    }

    /// Keeps `seq` as the watermark of `process`, which retires once
    /// between two watches, dropping the oldest retirement if that makes
    /// one more than `capacity`.
    fn insert(&mut self, process: ProcessId, seq: u64) {
        let kept = self.marks.insert(process, seq);
        debug_assert!(kept.is_none(), "{process:?} retired twice");
        self.order.push_back(process);
        if self.order.len() > self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.marks.remove(&oldest);
                self.dropped += 1;
            }
        }
    }

    /// Watermarks kept.
    fn len(&self) -> usize {
        self.marks.len()
    }
}

/// One shard: a slab of watched peers, the watermarks of unwatched ones
/// and the outcome counters. The only owner of the per-shard operations —
/// both executors run this code, the inline one on the caller's thread
/// and the threaded one on the shard's worker.
pub(crate) struct Shard<D> {
    index: usize,
    factory: DetectorFactory<D>,
    /// Allocated to the cell's capacity once: `watch` never reallocates.
    slab: Vec<Slot<D>>,
    /// One row per slab slot, refreshed where `owed` says the slot
    /// changed.
    column: CurveColumn,
    /// The rows the next publish writes.
    owed: OwedRows,
    /// Vacant slots, most recently vacated last.
    free: Vec<usize>,
    /// Sequence watermarks of peers no longer watched, so that replays
    /// stay rejected across unwatch → re-watch. Touched only by `watch`,
    /// `unwatch` and frames from unwatched senders. Holds one entry for
    /// every sender unwatched after it was heard and not watched again,
    /// up to the shard's capacity (the `sharded.retired` gauge counts
    /// them, `sharded.retired_dropped` the oldest dropped past it).
    retired: Retired,
    stats: MonitorStats,
    cell: Arc<ShardCell>,
}

/// Builds `shards` empty shards of `slots` peers each plus the epoch
/// cells they publish into; `factory` is cloned once per shard. Callers
/// floor both counts at one.
pub(crate) fn build_shards<D: AccrualFailureDetector>(
    shards: usize,
    slots: usize,
    factory: impl FnMut(ProcessId) -> D + Send + Clone + 'static,
) -> (Arc<[Arc<ShardCell>]>, Vec<Shard<D>>) {
    let cells: Vec<Arc<ShardCell>> = (0..shards)
        .map(|_| Arc::new(ShardCell::new(slots)))
        // lint:allow(no-alloc-in-hot-path, once a monitor: the shard cells)
        .collect();
    let shards = cells
        .iter()
        .enumerate()
        .map(|(index, cell)| Shard {
            index,
            // lint:allow(no-alloc-in-hot-path, once a shard: its detector factory)
            factory: Box::new(factory.clone()),
            slab: Vec::with_capacity(slots),
            column: CurveColumn::default(),
            owed: OwedRows::default(),
            free: Vec::with_capacity(slots),
            retired: Retired::new(slots),
            stats: MonitorStats::default(),
            cell: Arc::clone(cell),
        })
        // lint:allow(no-alloc-in-hot-path, once a monitor: the shards)
        .collect();
    (cells.into(), shards)
}

/// Bulk-imports checkpointed `peers` into `shards` (routing by the
/// *current* shard count, so a checkpoint survives a shard-count change
/// across restarts), then publishes every shard at `now` so the first
/// post-restore reader query already serves the restored levels.
pub(crate) fn import_peers<D: AccrualFailureDetector>(
    shards: &mut [Shard<D>],
    peers: &[RestoredPeer],
    now: Timestamp,
) -> RestoreImport {
    let mut import = RestoreImport::default();
    for peer in peers {
        let idx = shard_index(peer.process, shards.len());
        shards[idx].import(peer, &mut import);
    }
    for shard in shards {
        shard.publish(now);
    }
    import
}

impl<D: AccrualFailureDetector> Shard<D> {
    /// Starts monitoring `process`: `Ok(true)` if newly watched,
    /// `Ok(false)` if already watched. The peer takes the most recently
    /// vacated slot, or the next unused one.
    ///
    /// # Errors
    ///
    /// [`ShardCapacityError`] if the shard already watches its declared
    /// capacity, the ceiling its snapshot rows and slot index grow up to.
    pub(crate) fn watch(&mut self, process: ProcessId) -> Result<bool, ShardCapacityError> {
        if self.cell.slot(process).is_some() {
            return Ok(false);
        }
        let capacity = self.cell.slots();
        if self.len() >= capacity {
            return Err(ShardCapacityError {
                shard: self.index,
                capacity,
            });
        }
        let live = Slot::Live(Watched {
            id: process,
            highest_seq: self.retired.take(process),
            detector: (self.factory)(process),
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = live;
                slot
            }
            None => {
                self.slab.push(live);
                self.column.cover(self.slab.len());
                self.owed.cover(self.slab.len());
                self.slab.len() - 1
            }
        };
        self.owed.mark(slot);
        self.cell.occupy(process, slot);
        Ok(true)
    }

    /// Stops monitoring `process` and vacates its slot, and its rows in
    /// both banks and the durable table at once (the re-watch rule of
    /// [`crate::snapshot`]). The
    /// highest sequence number seen from it is deliberately retained (in
    /// `retired`): if the process is watched again later, replayed frames
    /// from before the unwatch are still rejected instead of being
    /// accepted as fresh — unless more than the shard's capacity of other
    /// peers retired since (see [`Retired`]).
    pub(crate) fn unwatch(&mut self, process: ProcessId) -> Option<D> {
        let slot = self.cell.vacate(process)?;
        let Slot::Live(watched) = mem::replace(&mut self.slab[slot], Slot::Vacant) else {
            return None;
        };
        self.column.set(slot, Some(LevelCurve::Zero));
        if let Some(seq) = watched.highest_seq {
            self.retired.insert(process, seq);
        }
        self.free.push(slot);
        Some(watched.detector)
    }

    /// The entry of `process`, if it is watched: one index probe.
    fn entry(&mut self, process: ProcessId) -> Option<&mut Watched<D>> {
        let slot = self.cell.slot(process)?;
        self.slab.get_mut(slot)?.live()
    }

    /// The entry of `process`, if it is watched, handed out to be changed:
    /// its row is marked owed to the next publish.
    fn entry_to_change(&mut self, process: ProcessId) -> Option<&mut Watched<D>> {
        let slot = self.cell.slot(process)?;
        let watched = self.slab.get_mut(slot)?.live()?;
        self.owed.mark(slot);
        Some(watched)
    }

    /// Re-watches one checkpointed peer, seeds its detector with the
    /// saved window moments and re-arms replay rejection with the saved
    /// highest sequence number. A peer that does not fit is counted in
    /// [`RestoreImport::capacity_rejected`].
    ///
    /// The peer may be watched, and heard from, already: an import then
    /// only ever moves it *forward*. The watermark advances if the saved
    /// one is fresher and otherwise stays — lowering it would reopen the
    /// replay window for frames already accepted — and the detector is
    /// re-seeded unless it has heard an arrival later than the seed's
    /// last, which would otherwise be followed by a gap that never
    /// happened.
    fn import(&mut self, peer: &RestoredPeer, import: &mut RestoreImport) {
        let Ok(newly_watched) = self.watch(peer.process) else {
            import.capacity_rejected += 1;
            return;
        };
        import.watched += 1;
        // Marked whatever is applied below: the peer may hold a slot no
        // publish has written yet.
        let Some(watched) = self.entry_to_change(peer.process) else {
            return;
        };
        if let Some(restored) = peer.highest_seq {
            let fresher = |live| classify(restored, live) == SeqVerdict::Fresh;
            if watched.highest_seq.is_none_or(fresher) {
                watched.highest_seq = Some(restored);
            }
        }
        if let Some(seed) = &peer.seed {
            let heard = || watched.detector.save_seed()?.last_heartbeat;
            if newly_watched || heard() <= seed.last_heartbeat {
                watched.detector.restore_seed(seed);
                import.seeded += 1;
            }
        }
    }

    /// Watched processes.
    pub(crate) fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// The detector for `process`, handed out for the caller to change:
    /// the next publish rewrites its rows.
    fn detector_mut(&mut self, process: ProcessId) -> Option<&mut D> {
        Some(&mut self.entry_to_change(process)?.detector)
    }

    /// The exact-`now` level of `process`, straight from its detector.
    fn level(&mut self, process: ProcessId, now: Timestamp) -> Option<SuspicionLevel> {
        Some(self.entry(process)?.detector.suspicion_level(now))
    }

    /// Appends the exact-`now` level of every watched process, in slot
    /// order.
    fn levels(&mut self, now: Timestamp, out: &mut Vec<(ProcessId, SuspicionLevel)>) {
        for watched in self.slab.iter_mut().filter_map(Slot::live) {
            out.push((watched.id, watched.detector.suspicion_level(now)));
        }
    }

    /// Accept-stage counters (`corrupt` is always 0: decoding fails
    /// before a shard is chosen).
    pub(crate) fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// The warm pass for one resolved slot: loads the watermark and the
    /// detector state an arrival reads and discards them, so that the
    /// apply pass finds them in cache. `save_seed` reads what
    /// `record_heartbeat` reads first of the detector's own fields (last
    /// arrival, window count and moments); `prefetch` reaches what lies a
    /// pointer further, the window cell the arrival overwrites. Both are
    /// `&self` and neither has an observable effect.
    #[inline]
    fn warm(&self, slot: usize) {
        if let Some(Slot::Live(watched)) = self.slab.get(slot) {
            black_box((watched.highest_seq, watched.detector.save_seed()));
            watched.detector.prefetch();
        }
    }

    /// Algorithm 4, lines 8–10: only heartbeats fresher than the
    /// freshest seen so far update the detector, so detectors always see
    /// non-decreasing arrival times. Freshness is serial-number
    /// arithmetic ([`crate::seq`]): duplicates and reordered frames are
    /// dropped (and counted apart), while a sender whose counter wraps
    /// past `u64::MAX` keeps being accepted.
    ///
    /// `slot` is where the resolve pass found the sender in the index; a
    /// watched sender's entry holds its watermark and its detector. A
    /// sender nobody watches is judged against the watermark it retired
    /// with, if any, so a replay counts as a replay whether or not its
    /// sender is watched right now; a fresh frame from it counts
    /// `unwatched` and moves no watermark.
    fn apply(&mut self, hb: Heartbeat, now: Timestamp, slot: Option<usize>) -> bool {
        let entry = slot.and_then(|slot| self.slab.get_mut(slot)?.live());
        let watermark = match &entry {
            Some(watched) => watched.highest_seq,
            None => self.retired.get(hb.sender),
        };
        match watermark.map(|highest| classify(hb.seq, highest)) {
            None | Some(SeqVerdict::Fresh) => {}
            Some(SeqVerdict::Duplicate) => {
                self.stats.duplicate += 1;
                return false;
            }
            Some(SeqVerdict::Stale) => {
                self.stats.stale += 1;
                return false;
            }
        }
        let (Some(watched), Some(slot)) = (entry, slot) else {
            self.stats.unwatched += 1;
            return false;
        };
        watched.detector.record_heartbeat(now);
        watched.highest_seq = Some(hb.seq);
        self.owed.mark(slot);
        self.stats.accepted += 1;
        true
    }

    /// Publishes the shard's levels *and* durable rows into its epoch
    /// cell, in two passes. The durable rows go into the cell's durable
    /// table in the same publish, so a checkpointer reading the cell gets
    /// detector seeds and replay state of one publish — without ever
    /// borrowing the (worker-owned) detectors themselves.
    ///
    /// The *changed-slot* pass: a row's id, its durable words and its
    /// curve are a function of who holds the slot and of that peer's
    /// arrivals, so only the rows [`OwedRows`] names are visited, skipping
    /// slots vacated since: their curve is refreshed and their rows
    /// written, and after the flip the cell copies those rows' ids into
    /// the other bank.
    ///
    /// The *level* pass: every level is a function of the query time and
    /// is re-evaluated at `now` — down the curve column a block at a
    /// time, touching no slot. Only the slots listed as having no curve
    /// are then asked one by one, as every slot was before there was a
    /// column.
    pub(crate) fn publish(&mut self, now: Timestamp) {
        let (slab, column, owed) = (&mut self.slab, &mut self.column, &mut self.owed.0);
        self.cell.publish(now, owed, |publish| {
            publish.store_rows(marked(owed).filter_map(|row| {
                let Slot::Live(watched) = &slab[row] else {
                    return None;
                };
                column.set(row, watched.detector.level_curve());
                let seed = watched.detector.save_seed();
                let durable = PeerDurable::from_state(seed, watched.highest_seq);
                Some((row, watched.id, durable))
            }));
            publish.store_levels(&column.blocks, now);
            for &row in &column.curveless {
                if let Some(watched) = slab[row].live() {
                    publish.store_level(row, watched.detector.suspicion_level(now));
                }
            }
            slab.len()
        });
        owed.fill(0);
    }
}

/// One decoded heartbeat on its way through the accept stage.
pub(crate) struct Stamped {
    /// Which of the shards handed to [`accept_batch`] it routes to.
    shard: usize,
    hb: Heartbeat,
    /// Its arrival stamp.
    at: Timestamp,
    /// Where the resolve pass found its sender, if it is watched.
    slot: Option<usize>,
}

impl Stamped {
    pub(crate) fn new(shard: usize, hb: Heartbeat, at: Timestamp) -> Self {
        Stamped {
            shard,
            hb,
            at,
            slot: None,
        }
    }
}

/// The accept stage: runs one drained batch through `shards` in three
/// passes — resolve, warm, apply (see the module docs) — and returns how
/// many heartbeats reached a detector. Every frame's `shard` must index
/// `shards`, and `shards` must not change membership between the passes:
/// the caller's `&mut` is what guarantees it.
pub(crate) fn accept_batch<D: AccrualFailureDetector>(
    shards: &mut [Shard<D>],
    batch: &mut [Stamped],
) -> usize {
    for frame in batch.iter_mut() {
        frame.slot = shards[frame.shard].cell.slot(frame.hb.sender);
    }
    for frame in batch.iter() {
        if let Some(slot) = frame.slot {
            shards[frame.shard].warm(slot);
        }
    }
    let mut accepted = 0usize;
    for frame in batch.iter() {
        accepted += usize::from(shards[frame.shard].apply(frame.hb, frame.at, frame.slot));
    }
    accepted
}

/// The intake stage both executors share: one reusable zero-allocation
/// arena, one wire decoder (holding the v2 intern table across drains)
/// and the arrival stamp. [`recv`](Intake::recv) is the only
/// `recv_batch` call on the intake path and [`decode`](Intake::decode)
/// the only decode/route loop.
pub(crate) struct Intake {
    arena: FrameBatch,
    decoder: WireDecoder,
    stamp: Timestamp,
}

impl Intake {
    /// An intake stage draining up to [`INTAKE_BATCH_SLOTS`] frames per
    /// refill.
    pub(crate) fn new() -> Self {
        Intake {
            arena: FrameBatch::with_capacity(INTAKE_BATCH_SLOTS),
            decoder: WireDecoder::new(),
            stamp: Timestamp::ZERO,
        }
    }

    /// Refills the arena from `transport`, returning the frames stored;
    /// fewer than [`capacity`](Intake::capacity) means the transport is
    /// drained. A refill that stored a frame reads `clock` once: the
    /// receive step's local time, which every heartbeat of the refill
    /// carries as its arrival ([`stamp`](Intake::stamp)).
    pub(crate) fn recv<T: Transport + ?Sized, C: Clock>(
        &mut self,
        transport: &mut T,
        clock: &C,
    ) -> Result<usize, TransportError> {
        self.arena.clear();
        let got = transport.recv_batch(&mut self.arena)?;
        if got > 0 {
            self.stamp = clock.now();
        }
        Ok(got)
    }

    /// The arrival stamp of the last refill that stored a frame.
    pub(crate) fn stamp(&self) -> Timestamp {
        self.stamp
    }

    /// Arena slots per refill.
    pub(crate) fn capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Decodes the arena's frames in arrival order and hands each
    /// heartbeat, with the shard (of `shards`) it routes to, to
    /// `deliver`. Returns how many frames failed decoding.
    #[inline]
    pub(crate) fn decode(
        &mut self,
        shards: usize,
        mut deliver: impl FnMut(usize, Heartbeat),
    ) -> u64 {
        let mut corrupt = 0u64;
        for frame in self.arena.iter() {
            match self.decoder.decode(frame) {
                Ok(hb) => deliver(shard_index(hb.sender, shards), hb),
                Err(_) => corrupt += 1,
            }
        }
        corrupt
    }
}

/// A monitor for many peers: sharded intake, epoch-published reads.
///
/// Drive it by calling [`tick`](ShardedMonitor::tick) on whatever cadence
/// the deployment wants (the chaos harness calls it on virtual time).
/// Hand [`reader`](ShardedMonitor::reader) clones to every thread that
/// queries suspicion levels.
pub struct ShardedMonitor<T, C, D> {
    transport: T,
    clock: C,
    shards: Vec<Shard<D>>,
    reader: SnapshotReader,
    /// The shared intake stage: arena plus wire decoder.
    intake: Intake,
    /// One arena refill's heartbeats, each with the shard it routes to,
    /// its arrival stamp and room for its resolved slot; reused across
    /// ticks.
    stamped: Vec<Stamped>,
    corrupt: u64,
    ticks: u64,
}

impl<T, C, D> fmt::Debug for ShardedMonitor<T, C, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedMonitor")
            .field("shards", &self.shards.len())
            .field("ticks", &self.ticks)
            .finish_non_exhaustive()
    }
}

impl<T, C, D> ShardedMonitor<T, C, D>
where
    T: Transport,
    C: Clock,
    D: AccrualFailureDetector,
{
    /// Creates a sharded monitor; `factory` is cloned once per shard and
    /// builds one detector per watched process.
    ///
    /// Compose resilience in the factory: e.g.
    /// `|p| GracefulDegradation::new(PhiAccrual::with_defaults(), cfg)`
    /// gives every watched process the starved-window fallback.
    pub fn new(
        transport: T,
        clock: C,
        config: ShardConfig,
        factory: impl FnMut(ProcessId) -> D + Send + Clone + 'static,
    ) -> Self {
        let (cells, shards) =
            build_shards(config.shards.max(1), config.slots_per_shard.max(1), factory);
        ShardedMonitor {
            transport,
            clock,
            shards,
            reader: SnapshotReader::from_cells(cells),
            intake: Intake::new(),
            stamped: Vec::with_capacity(INTAKE_BATCH_SLOTS),
            corrupt: 0,
            ticks: 0,
        }
    }

    /// The shard `process` routes to.
    pub fn shard_of(&self, process: ProcessId) -> usize {
        shard_index(process, self.shards.len())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Starts monitoring `process` (routed to its shard).
    ///
    /// Returns `Ok(true)` if newly watched, `Ok(false)` if already
    /// watched.
    ///
    /// # Errors
    ///
    /// Returns [`ShardCapacityError`] if the target shard already watches
    /// [`ShardConfig::slots_per_shard`] processes, the ceiling its
    /// snapshot grows up to.
    pub fn watch(&mut self, process: ProcessId) -> Result<bool, ShardCapacityError> {
        let idx = self.shard_of(process);
        self.shards[idx].watch(process)
    }

    /// Stops monitoring `process`. The highest sequence number seen from
    /// it is retained so replays after a re-watch stay rejected, as long
    /// as fewer than [`ShardConfig::slots_per_shard`] other peers of its
    /// shard retire in between (the oldest watermark goes first). From here
    /// on readers' [`level`](SnapshotReader::level) answers `None` and
    /// the published row is gone from
    /// [`snapshot`](SnapshotReader::snapshot) — also if the process is
    /// watched again at once: its fresh detector is first served at the
    /// next tick, its old one never again.
    pub fn unwatch(&mut self, process: ProcessId) -> Option<D> {
        let idx = self.shard_of(process);
        self.shards[idx].unwatch(process)
    }

    /// Drains the transport — every decoded heartbeat carries its
    /// refill's receive stamp and is accepted into its shard, in arrival
    /// order — then publishes every shard's epoch snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] if the transport itself failed; decode
    /// failures, duplicates, and stale frames are absorbed into
    /// [`ShardedStats`].
    pub fn tick(&mut self) -> Result<TickReport, TransportError> {
        let mut report = TickReport::default();
        let (shards, stamped) = (&mut self.shards, &mut self.stamped);
        loop {
            let got = self.intake.recv(&mut self.transport, &self.clock)?;
            report.drained += got;
            let at = self.intake.stamp();
            self.corrupt += self.intake.decode(shards.len(), |idx, hb| {
                stamped.push(Stamped::new(idx, hb, at));
            });
            // Accept the whole refill in the accept stage's passes: the
            // batch's index probes, then loads of the state its arrivals
            // will read, then the updates in arrival order, so a wide
            // watch set's cache misses overlap. The batch stays mixed:
            // nothing groups it by shard.
            report.accepted += accept_batch(shards, stamped);
            stamped.clear();
            // A short batch means the transport is drained.
            if got < self.intake.capacity() {
                break;
            }
        }
        let now = self.clock.now();
        for shard in &mut self.shards {
            shard.publish(now);
        }
        self.ticks += 1;
        Ok(report)
    }

    /// The exact-`now` suspicion level of `process`, evaluated against
    /// its detector (not the published epoch). Requires `&mut self`; use
    /// a [`SnapshotReader`] for the lock-free path.
    pub fn level(&mut self, process: ProcessId) -> Option<SuspicionLevel> {
        let now = self.clock.now();
        let idx = self.shard_of(process);
        self.shards[idx].level(process, now)
    }

    /// The exact-`now` accrual snapshot of every watched process across
    /// all shards, ascending by id.
    pub fn snapshot(&mut self) -> Vec<(ProcessId, SuspicionLevel)> {
        let now = self.clock.now();
        // lint:allow(no-alloc-in-hot-path, owned-snapshot API; callers on the query path, not the intake path)
        let mut out = Vec::new();
        for shard in &mut self.shards {
            shard.levels(now, &mut out);
        }
        out.sort_unstable_by_key(|&(p, _)| p);
        out
    }

    /// The exact-`now` snapshot of one shard, ascending by id, for
    /// balance inspection and the union property tests.
    pub fn shard_snapshot(&mut self, shard: usize) -> Vec<(ProcessId, SuspicionLevel)> {
        let now = self.clock.now();
        // lint:allow(no-alloc-in-hot-path, owned-snapshot API; empty for an out-of-range shard)
        let mut out = Vec::new();
        if let Some(s) = self.shards.get_mut(shard) {
            s.levels(now, &mut out);
            out.sort_unstable_by_key(|&(p, _)| p);
        }
        out
    }

    /// A cloneable lock-free reader over the published epoch snapshots.
    pub fn reader(&self) -> SnapshotReader {
        self.reader.clone()
    }

    /// Publishes a fresh epoch snapshot of every shard and dumps it as a
    /// new checkpoint generation through `ckpt`. The caller sets the
    /// cadence, e.g. every so many ticks.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`](crate::persist::PersistError) if the sink
    /// fails.
    pub fn checkpoint<S: crate::persist::SegmentSink>(
        &mut self,
        ckpt: &mut crate::persist::Checkpointer<S>,
    ) -> Result<crate::persist::CheckpointReport, crate::persist::PersistError> {
        let now = self.clock.now();
        for shard in &mut self.shards {
            shard.publish(now);
        }
        ckpt.checkpoint(&self.reader, &self.clock)
    }

    /// Bulk-imports peers recovered by
    /// [`Checkpointer::restore`](crate::persist::Checkpointer::restore):
    /// re-watches each (routing by the *current* shard count, so the
    /// checkpoint survives a shard-count change across restarts), seeds
    /// its detector with the saved window moments, and re-arms replay
    /// rejection with the saved highest sequence number. Finishes by
    /// publishing every shard, so the first post-restore reader query
    /// already serves the restored levels at pre-crash quality.
    ///
    /// Peers whose target shard is full are dropped and counted in
    /// [`RestoreImport::capacity_rejected`](crate::persist::RestoreImport).
    ///
    /// A restarted monitor should **restore before re-watching**: restore
    /// the last complete generation from the shared sink, import it here,
    /// and only then [`watch`](Self::watch) the peers the checkpoint did
    /// not hold, so every checkpointed peer starts from its saved moments
    /// and watermark.
    pub fn restore(&mut self, peers: &[RestoredPeer]) -> RestoreImport {
        import_peers(&mut self.shards, peers, self.clock.now())
    }

    /// Direct access to the detector for `process`.
    pub fn detector_mut(&mut self, process: ProcessId) -> Option<&mut D> {
        let idx = self.shard_of(process);
        self.shards[idx].detector_mut(process)
    }

    /// The transport the monitor drains.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Aggregated and per-shard counters.
    pub fn stats(&self) -> ShardedStats {
        // lint:allow(no-alloc-in-hot-path, stats snapshot API, off the frame path)
        let per_shard: Vec<MonitorStats> = self.shards.iter().map(Shard::stats).collect();
        ShardedStats {
            totals: MonitorStats::totals(self.corrupt, &per_shard),
            per_shard,
            // lint:allow(no-alloc-in-hot-path, stats snapshot API, off the frame path)
            peers_per_shard: self.shards.iter().map(Shard::len).collect(),
            ticks: self.ticks,
        }
    }

    /// Publishes the aggregate counters into `registry` under
    /// `sharded.*` — `sharded.retired` counts the sequence watermarks
    /// kept for unwatched peers, at most `slots_per_shard` a shard, and
    /// `sharded.retired_dropped` the oldest ones dropped to stay within
    /// that — plus per-shard peer-count gauges (`shard.<i>.peers`).
    pub fn export_metrics(&self, registry: &afd_obs::Registry) {
        let stats = self.stats();
        stats.totals.export_metrics(registry);
        registry.counter("sharded.ticks").set(stats.ticks);
        registry
            .gauge("sharded.shards")
            .set(self.shards.len() as f64);
        let total_peers: usize = stats.peers_per_shard.iter().sum();
        registry.gauge("sharded.peers").set(total_peers as f64);
        let retired: usize = self.shards.iter().map(|s| s.retired.len()).sum();
        registry.gauge("sharded.retired").set(retired as f64);
        let dropped: u64 = self.shards.iter().map(|s| s.retired.dropped).sum();
        registry.counter("sharded.retired_dropped").set(dropped);
        for (i, peers) in stats.peers_per_shard.iter().enumerate() {
            registry
                // lint:allow(no-alloc-in-hot-path, metric names, built at export, off the frame path)
                .gauge(&format!("shard.{i}.peers"))
                .set(*peers as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::snapshot::{DurableRow, CHUNK};
    use crate::transport::ChannelTransport;
    use afd_core::accrual::DetectorSeed;
    use afd_core::time::Duration;
    use afd_detectors::simple::SimpleAccrual;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// What the tests of this module and of `snapshot` ask of a shard.
    impl<D: AccrualFailureDetector> Shard<D> {
        /// Slots the slab has reached, vacant ones included.
        pub(crate) fn slots_used(&self) -> usize {
            self.slab.len()
        }

        /// Accepts one heartbeat: the batch of one.
        pub(crate) fn accept(&mut self, hb: Heartbeat, now: Timestamp) -> bool {
            accept_batch(std::slice::from_mut(self), &mut [Stamped::new(0, hb, now)]) == 1
        }
    }

    fn rig(
        config: ShardConfig,
    ) -> (
        ChannelTransport,
        ShardedMonitor<ChannelTransport, VirtualClock, SimpleAccrual>,
        VirtualClock,
    ) {
        let (tx, rx) = ChannelTransport::pair();
        let clock = VirtualClock::new();
        let mon = ShardedMonitor::new(rx, clock.clone(), config, |_| {
            SimpleAccrual::new(Timestamp::ZERO)
        });
        (tx, mon, clock)
    }

    /// The single-stream reading of Algorithm 4: one shard.
    const SINGLE: ShardConfig = ShardConfig {
        shards: 1,
        slots_per_shard: 8,
    };

    fn frame(sender: u32, seq: u64) -> Vec<u8> {
        Heartbeat {
            sender: ProcessId::new(sender),
            seq,
            // from_nanos: seq values near u64::MAX must stay representable.
            sent_at: Timestamp::from_nanos(seq),
        }
        .encode()
        .to_vec()
    }

    #[test]
    fn heartbeats_reach_shard_detectors() {
        let (mut tx, mut mon, clock) = rig(ShardConfig::default());
        let p = ProcessId::new(1);
        mon.watch(p).unwrap();
        clock.set(Timestamp::from_secs(5));
        tx.send(&frame(1, 1)).unwrap();
        let report = mon.tick().unwrap();
        assert_eq!(report.drained, 1);
        assert_eq!(report.accepted, 1);
        clock.set(Timestamp::from_secs(8));
        assert_eq!(mon.level(p).unwrap().value(), 3.0);
    }

    #[test]
    fn peers_spread_across_shards() {
        let (_tx, mut mon, _clock) = rig(ShardConfig {
            shards: 8,
            slots_per_shard: 64,
        });
        for id in 0..256 {
            mon.watch(ProcessId::new(id)).unwrap();
        }
        let stats = mon.stats();
        assert_eq!(stats.peers_per_shard.iter().sum::<usize>(), 256);
        let max = stats.peers_per_shard.iter().max().copied().unwrap_or(0);
        let min = stats.peers_per_shard.iter().min().copied().unwrap_or(0);
        assert!(min > 0, "every shard should get some of 256 peers");
        assert!(max <= 64, "no shard should be wildly overloaded: {stats:?}");
    }

    #[test]
    fn capacity_overflow_is_a_typed_error() {
        let (_tx, mut mon, _clock) = rig(ShardConfig {
            shards: 1,
            slots_per_shard: 2,
        });
        mon.watch(ProcessId::new(1)).unwrap();
        mon.watch(ProcessId::new(2)).unwrap();
        // Re-watching an existing peer is fine even at capacity.
        assert_eq!(mon.watch(ProcessId::new(1)), Ok(false));
        let err = mon.watch(ProcessId::new(3)).unwrap_err();
        assert_eq!(
            err,
            ShardCapacityError {
                shard: 0,
                capacity: 2
            }
        );
        // Unwatching frees the slot.
        mon.unwatch(ProcessId::new(2));
        assert_eq!(mon.watch(ProcessId::new(3)), Ok(true));
    }

    #[test]
    fn reader_serves_published_levels_without_mut() {
        let (mut tx, mut mon, clock) = rig(ShardConfig {
            shards: 4,
            slots_per_shard: 16,
        });
        for id in 1..=8 {
            mon.watch(ProcessId::new(id)).unwrap();
        }
        clock.set(Timestamp::from_secs(10));
        for id in 1..=8 {
            tx.send(&frame(id, 1)).unwrap();
        }
        mon.tick().unwrap();
        clock.set(Timestamp::from_secs(14));
        mon.tick().unwrap(); // republish at t = 14

        let reader = mon.reader();
        assert_eq!(reader.published_at(), Timestamp::from_secs(14));
        // SimpleAccrual: level = elapsed since last heartbeat = 4 s.
        for id in 1..=8 {
            let lvl = reader.level(ProcessId::new(id)).unwrap();
            assert_eq!(lvl.value(), 4.0);
        }
        assert_eq!(reader.level(ProcessId::new(99)), None);
        let snap = reader.snapshot();
        assert_eq!(snap.len(), 8);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "ascending ids");
    }

    #[test]
    fn reader_lags_by_at_most_one_tick() {
        let (mut tx, mut mon, clock) = rig(ShardConfig {
            shards: 2,
            slots_per_shard: 4,
        });
        let p = ProcessId::new(7);
        mon.watch(p).unwrap();
        clock.set(Timestamp::from_secs(1));
        tx.send(&frame(7, 1)).unwrap();
        mon.tick().unwrap();
        let reader = mon.reader();
        let before = reader.level(p).unwrap();

        // A fresher heartbeat arrives but no tick has run: the reader
        // still serves the old epoch.
        clock.set(Timestamp::from_secs(2));
        tx.send(&frame(7, 2)).unwrap();
        assert_eq!(reader.level(p).unwrap(), before);

        mon.tick().unwrap();
        assert_eq!(reader.level(p).unwrap().value(), 0.0);
    }

    #[test]
    fn duplicate_and_stale_are_counted_per_shard_and_in_totals() {
        let (mut tx, mut mon, clock) = rig(ShardConfig {
            shards: 4,
            slots_per_shard: 8,
        });
        let p = ProcessId::new(3);
        mon.watch(p).unwrap();
        clock.set(Timestamp::from_secs(1));
        tx.send(&frame(3, 5)).unwrap();
        tx.send(&frame(3, 5)).unwrap(); // duplicate
        tx.send(&frame(3, 4)).unwrap(); // stale
        tx.send(&frame(3, 6)).unwrap(); // fresh
        tx.send(b"garbage").unwrap(); // corrupt
        let report = mon.tick().unwrap();
        assert_eq!(report.drained, 5);
        assert_eq!(report.accepted, 2);
        let stats = mon.stats();
        assert_eq!(stats.totals.accepted, 2);
        assert_eq!(stats.totals.duplicate, 1);
        assert_eq!(stats.totals.stale, 1);
        assert_eq!(stats.totals.corrupt, 1);
        let idx = mon.shard_of(p);
        assert_eq!(stats.per_shard[idx].accepted, 2);
        assert_eq!(stats.per_shard[idx].corrupt, 0, "corrupt is pre-shard");
    }

    #[test]
    fn corrupt_frames_are_counted_not_panicked() {
        let (mut tx, mut mon, _clock) = rig(SINGLE);
        mon.watch(ProcessId::new(1)).unwrap();
        tx.send(b"garbage").unwrap();
        let mut bad = frame(1, 1);
        bad[10] ^= 0xFF;
        tx.send(&bad).unwrap();
        assert_eq!(mon.tick().unwrap().accepted, 0);
        assert_eq!(mon.stats().totals.corrupt, 2);
    }

    #[test]
    fn unwatched_senders_are_ignored() {
        let (mut tx, mut mon, _clock) = rig(SINGLE);
        mon.watch(ProcessId::new(1)).unwrap();
        tx.send(&frame(9, 1)).unwrap();
        assert_eq!(mon.tick().unwrap().accepted, 0);
        assert_eq!(mon.stats().totals.unwatched, 1);
    }

    #[test]
    fn sequence_wraparound_keeps_a_live_sender_accepted() {
        // A sender whose counter wraps past u64::MAX must not be rejected
        // forever: u64::MAX → 0 is a forward step of one in serial-number
        // arithmetic.
        let (mut tx, mut mon, clock) = rig(SINGLE);
        let p = ProcessId::new(1);
        mon.watch(p).unwrap();
        clock.set(Timestamp::from_secs(1));
        tx.send(&frame(1, u64::MAX - 1)).unwrap();
        tx.send(&frame(1, u64::MAX)).unwrap();
        tx.send(&frame(1, u64::MAX)).unwrap(); // redelivered duplicate
        tx.send(&frame(1, 0)).unwrap(); // wraparound: fresh
        tx.send(&frame(1, 1)).unwrap(); // life goes on
        tx.send(&frame(1, u64::MAX)).unwrap(); // replay from before the wrap
        assert_eq!(mon.tick().unwrap().accepted, 4);
        let s = mon.stats().totals;
        assert_eq!(s.accepted, 4);
        assert_eq!(s.duplicate, 1);
        assert_eq!(s.stale, 1);
    }

    #[test]
    fn injected_duplicates_are_counted_as_duplicates() {
        // Drive the dup fault through the FaultInjector: every frame is
        // delivered twice, and the monitor must accept exactly one copy of
        // each while counting the other as a duplicate.
        use crate::fault::{FaultInjector, FaultPlan};

        let (mut tx, rx) = ChannelTransport::pair();
        let clock = VirtualClock::new();
        let injected =
            FaultInjector::new(rx, clock.clone(), FaultPlan::new().with_duplicate(1.0), 42);
        let mut mon = ShardedMonitor::new(injected, clock.clone(), SINGLE, |_| {
            SimpleAccrual::new(Timestamp::ZERO)
        });
        let p = ProcessId::new(1);
        mon.watch(p).unwrap();
        clock.set(Timestamp::from_secs(1));
        for seq in 1..=5u64 {
            tx.send(&frame(1, seq)).unwrap();
        }
        assert_eq!(mon.tick().unwrap().accepted, 5);
        let s = mon.stats().totals;
        assert_eq!(s.accepted, 5);
        assert_eq!(s.duplicate, 5, "each injected copy rejected as duplicate");
        assert_eq!(s.stale, 0);
        assert_eq!(mon.transport().stats().duplicated, 5);
    }

    /// A clock that advances by a fixed step on every read, so its value
    /// counts the reads.
    #[derive(Clone)]
    struct SteppingClock {
        now: Arc<AtomicU64>,
        step: u64,
    }

    impl Clock for SteppingClock {
        fn now(&self) -> Timestamp {
            Timestamp::from_nanos(self.now.fetch_add(self.step, Ordering::SeqCst))
        }
    }

    #[test]
    fn one_tick_reads_the_clock_once_per_refill_plus_once_to_publish() {
        // The receive step is the refill: each refill that stored a frame
        // reads the clock once and every heartbeat of it carries that
        // stamp; the publish reads it once more. A per-frame read would
        // show here as up to `n` extra reads.
        let start = Timestamp::from_secs(100).as_nanos();
        let step = Duration::from_secs(1).as_nanos();
        for n in [0u32, 1, 3, 512, 513, 1_100] {
            let (mut tx, rx) = ChannelTransport::pair();
            let now = Arc::new(AtomicU64::new(start));
            let clock = SteppingClock {
                now: Arc::clone(&now),
                step,
            };
            let config = ShardConfig {
                shards: 1,
                slots_per_shard: 2_048,
            };
            let mut mon =
                ShardedMonitor::new(rx, clock, config, |_| SimpleAccrual::new(Timestamp::ZERO));
            for id in 0..n {
                mon.watch(ProcessId::new(id)).unwrap();
                tx.send(&frame(id, 1)).unwrap();
            }
            let refills = (n as usize).div_ceil(INTAKE_BATCH_SLOTS) as u64;
            assert_eq!(mon.tick().unwrap().accepted, n as usize);
            let reads = (now.load(Ordering::SeqCst) - start) / step;
            assert_eq!(reads, refills + 1, "{n} frames");
            for id in 0..n {
                let refill = u64::from(id) / INTAKE_BATCH_SLOTS as u64;
                assert_eq!(
                    mon.detector_mut(ProcessId::new(id))
                        .unwrap()
                        .last_heartbeat(),
                    Timestamp::from_nanos(start + refill * step),
                    "frame {id} of {n}"
                );
            }
        }
    }

    #[test]
    fn rewatched_process_rejects_replayed_sequences() {
        let (mut tx, mut mon, clock) = rig(SINGLE);
        let p = ProcessId::new(1);
        mon.watch(p).unwrap();
        clock.set(Timestamp::from_secs(1));
        tx.send(&frame(1, 5)).unwrap();
        assert_eq!(mon.tick().unwrap().accepted, 1);

        // Unwatch and watch again: the highest seen sequence number must
        // survive, or an attacker (or a confused network) could replay old
        // frames as fresh.
        mon.unwatch(p);
        mon.watch(p).unwrap();
        clock.set(Timestamp::from_secs(2));
        tx.send(&frame(1, 5)).unwrap(); // replay of the newest frame
        tx.send(&frame(1, 4)).unwrap(); // even staler
        assert_eq!(mon.tick().unwrap().accepted, 0);
        assert_eq!(mon.stats().totals.duplicate, 1);
        assert_eq!(mon.stats().totals.stale, 1);

        // Genuinely fresh frames still get through.
        tx.send(&frame(1, 6)).unwrap();
        assert_eq!(mon.tick().unwrap().accepted, 1);
    }

    #[test]
    fn retired_watermark_judges_frames_and_returns_on_rewatch() {
        let (mut tx, mut mon, clock) = rig(SINGLE);
        let p = ProcessId::new(1);
        mon.watch(p).unwrap();
        clock.set(Timestamp::from_secs(1));
        tx.send(&frame(1, 5)).unwrap();
        assert_eq!(mon.tick().unwrap().accepted, 1);

        // Nobody watches the sender, but what it replays is still a
        // replay; a fresh frame is merely unwatched.
        mon.unwatch(p);
        tx.send(&frame(1, 5)).unwrap();
        tx.send(&frame(1, 4)).unwrap();
        tx.send(&frame(1, 9)).unwrap();
        assert_eq!(mon.tick().unwrap().accepted, 0);
        let s = mon.stats().totals;
        assert_eq!((s.duplicate, s.stale, s.unwatched), (1, 1, 1));

        // The watermark comes back as it was retired: the unwatched
        // frame 9 did not advance it, so 7 is fresh, once.
        mon.watch(p).unwrap();
        tx.send(&frame(1, 7)).unwrap();
        tx.send(&frame(1, 7)).unwrap();
        tx.send(&frame(1, 5)).unwrap();
        assert_eq!(mon.tick().unwrap().accepted, 1);
        let s = mon.stats().totals;
        assert_eq!(
            (s.accepted, s.duplicate, s.stale, s.unwatched),
            (2, 2, 2, 1)
        );
    }

    #[test]
    fn reader_answers_only_for_the_published_tenant_of_a_slot() {
        let (mut tx, mut mon, clock) = rig(SINGLE);
        let (a, b, c) = (ProcessId::new(1), ProcessId::new(2), ProcessId::new(3));
        let reader = mon.reader();
        mon.watch(a).unwrap();
        mon.watch(b).unwrap();
        // Watched but not yet published: no row to read.
        assert_eq!(reader.level(a), None);
        clock.set(Timestamp::from_secs(10));
        tx.send(&frame(1, 1)).unwrap();
        mon.tick().unwrap();
        clock.set(Timestamp::from_secs(13));
        mon.tick().unwrap();
        assert_eq!(reader.level(a).unwrap().value(), 3.0);
        assert_eq!(reader.level(b).unwrap().value(), 13.0);

        // Unwatched: `level` and the table say so at once.
        mon.unwatch(a);
        assert_eq!(reader.level(a), None);
        assert_eq!(reader.snapshot().len(), 1);
        // `c` takes over the slot `a` left; until a publish writes the
        // row for `c` it is vacant, and nobody gets `a`'s level.
        mon.watch(c).unwrap();
        assert_eq!(mon.shards[0].slab.len(), 2, "slot reused");
        assert_eq!(reader.level(c), None);
        assert_eq!(reader.level(a), None);
        assert_eq!(reader.level(b).unwrap().value(), 13.0);

        mon.tick().unwrap();
        assert_eq!(reader.level(c).unwrap().value(), 13.0);
        assert_eq!(reader.level(a), None);
        let ids: Vec<_> = reader.snapshot().iter().map(|r| r.0).collect();
        assert_eq!(ids, [b, c]);

        // A slot left empty drops out of the table and stays out.
        mon.unwatch(b);
        for _ in 0..3 {
            mon.tick().unwrap();
            assert_eq!(reader.snapshot().len(), 1);
            assert_eq!(reader.level(b), None);
        }
    }

    #[test]
    fn rewatch_before_a_publish_reads_none() {
        // Regression: a peer unwatched and watched again between two
        // publishes takes its own slot back, where the front bank's row
        // still held its id — so a reader was served the level of the
        // detector the unwatch dropped (8.0 here) for a peer whose fresh
        // detector says 0, until the next publish.
        let (mut tx, mut mon, clock) = rig(SINGLE);
        let p = ProcessId::new(1);
        let reader = mon.reader();
        mon.watch(p).unwrap();
        clock.set(Timestamp::from_secs(2));
        tx.send(&frame(1, 1)).unwrap();
        mon.tick().unwrap();
        clock.set(Timestamp::from_secs(10));
        mon.tick().unwrap();
        assert_eq!(reader.level(p).unwrap().value(), 8.0);

        mon.unwatch(p);
        mon.watch(p).unwrap();
        assert_eq!(mon.shards[0].slab.len(), 1, "the same slot");
        assert_eq!(reader.level(p), None);
        assert_eq!(reader.snapshot(), []);

        // The fresh detector starts at the epoch: level 10 at second 10.
        mon.tick().unwrap();
        assert_eq!(reader.level(p).unwrap().value(), 10.0);
    }

    #[test]
    fn sequential_ids_spread_over_the_slot_index() {
        // The ledger's shape: ids 1..=4096 over four shards, each index
        // prefix half full. Each shard's ids agree on the hash bits
        // `shard_index` took; an index that reused those would have a
        // quarter of its buckets for homes and leave most entries
        // displaced. With bits of its own, one in eighteen is.
        let (_tx, mut mon, _clock) = rig(ShardConfig {
            shards: 4,
            slots_per_shard: 1040,
        });
        for id in 1..=4096 {
            mon.watch(ProcessId::new(id)).unwrap();
        }
        for shard in &mon.shards {
            let displaced: Vec<usize> = (shard.slab.iter().enumerate())
                .map(|(slot, entry)| {
                    let Slot::Live(watched) = entry else {
                        panic!("nothing was unwatched");
                    };
                    let (found, steps) = shard.cell.displacement(watched.id).expect("watched");
                    assert_eq!(found, slot);
                    steps
                })
                .filter(|&steps| steps > 0)
                .collect();
            assert!(
                displaced.len() * 16 <= shard.len() && displaced.iter().all(|&steps| steps <= 2),
                "shard {}: {} of {} displaced, by {displaced:?}",
                shard.index,
                displaced.len(),
                shard.len()
            );
        }
    }

    #[test]
    fn export_metrics_covers_totals_and_shards() {
        let (mut tx, mut mon, clock) = rig(ShardConfig {
            shards: 2,
            slots_per_shard: 8,
        });
        let registry = afd_obs::Registry::new();
        mon.watch(ProcessId::new(1)).unwrap();
        clock.set(Timestamp::from_secs(1));
        tx.send(&frame(1, 1)).unwrap();
        mon.tick().unwrap();
        mon.export_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sharded.accepted"), Some(1));
        assert_eq!(snap.counter("sharded.ticks"), Some(1));
        assert_eq!(snap.gauge("sharded.peers"), Some(1.0));
        assert_eq!(snap.gauge("sharded.shards"), Some(2.0));
        let per_shard: f64 = (0..2)
            .map(|i| snap.gauge(&format!("shard.{i}.peers")).unwrap_or(0.0))
            .sum();
        assert_eq!(per_shard, 1.0);
        assert_eq!(snap.gauge("sharded.retired"), Some(0.0));
        // Unwatching a peer that was heard keeps its watermark; watching
        // it again takes the watermark back.
        mon.unwatch(ProcessId::new(1));
        mon.export_metrics(&registry);
        assert_eq!(registry.snapshot().gauge("sharded.retired"), Some(1.0));
        mon.watch(ProcessId::new(1)).unwrap();
        mon.export_metrics(&registry);
        assert_eq!(registry.snapshot().gauge("sharded.retired"), Some(0.0));
    }

    #[test]
    fn retired_watermarks_stay_within_the_shard_capacity() {
        // Churn of fresh ids used to keep a watermark for every sender
        // ever unwatched: 10 000 after 2 500 ticks of four, with no peer
        // watched. The oldest retirement now goes first.
        const CAPACITY: usize = 64;
        let (mut tx, mut mon, clock) = rig(ShardConfig {
            shards: 1,
            slots_per_shard: CAPACITY,
        });
        let registry = afd_obs::Registry::new();
        let ticks: u32 = if cfg!(miri) { 40 } else { 2_500 };
        for tick in 0..ticks {
            clock.set(Timestamp::from_secs(u64::from(tick) + 1));
            let ids = 4 * tick..4 * tick + 4;
            for id in ids.clone() {
                mon.watch(ProcessId::new(id)).unwrap();
                tx.send(&frame(id, 9)).unwrap();
            }
            mon.tick().unwrap();
            for id in ids {
                mon.unwatch(ProcessId::new(id));
            }
            mon.export_metrics(&registry);
            let retired = registry.snapshot().gauge("sharded.retired").unwrap();
            assert!(retired <= CAPACITY as f64, "tick {tick}: {retired}");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("sharded.peers"), Some(0.0));
        let retirements = 4 * u64::from(ticks);
        assert_eq!(snap.gauge("sharded.retired"), Some(CAPACITY as f64));
        assert_eq!(
            snap.counter("sharded.retired_dropped"),
            Some(retirements - CAPACITY as u64)
        );

        // A peer re-watched within the last CAPACITY retirements still
        // has its watermark: its replays are a duplicate and a stale frame.
        let recent = ProcessId::new(4 * ticks - CAPACITY as u32);
        mon.watch(recent).unwrap();
        tx.send(&frame(recent.as_u32(), 9)).unwrap();
        tx.send(&frame(recent.as_u32(), 8)).unwrap();
        let before = mon.stats().totals;
        assert_eq!(mon.tick().unwrap().accepted, 0);
        let after = mon.stats().totals;
        assert_eq!(after.duplicate - before.duplicate, 1);
        assert_eq!(after.stale - before.stale, 1);

        // One re-watched after more than CAPACITY later retirements starts
        // as an unseen peer does: its old frame is fresh.
        let dropped = ProcessId::new(4 * ticks - CAPACITY as u32 - 1);
        mon.watch(dropped).unwrap();
        tx.send(&frame(dropped.as_u32(), 9)).unwrap();
        assert_eq!(mon.tick().unwrap().accepted, 1);
    }

    #[test]
    fn disconnected_transport_surfaces_typed_error() {
        let (tx, mut mon, _clock) = rig(ShardConfig::default());
        drop(tx);
        assert_eq!(mon.tick(), Err(TransportError::Disconnected));
    }

    #[test]
    fn zero_shard_config_is_floored_to_one() {
        let (_tx, mut mon, _clock) = rig(ShardConfig {
            shards: 0,
            slots_per_shard: 0,
        });
        assert_eq!(mon.shard_count(), 1);
        mon.watch(ProcessId::new(1)).unwrap();
        assert!(mon.watch(ProcessId::new(2)).is_err(), "slots floored to 1");
    }

    #[test]
    fn a_slot_stays_within_two_cache_lines() {
        // Every accept walks a slot; a φ slot was 304 bytes before the
        // detector boxed its histogram, and 216 while it kept its own copy
        // of the curve and of its configuration.
        use afd_detectors::phi::PhiAccrual;
        assert!(mem::size_of::<Slot<PhiAccrual>>() <= 128);
    }

    #[test]
    fn the_curve_column_is_sized_by_the_slab_not_the_capacity() {
        // A publish reads a curve row per slot in place of the slot: two
        // rows to a cache line where a slot takes four lines. And a shard
        // keeps rows for the slots its slab has reached, not for the
        // cell's capacity — the ledger's wide workload declares eight
        // times the slots it fills, and a column filled to capacity cost
        // it 216 bytes a peer.
        assert!(mem::size_of::<LevelCurve>() <= 32);
        let mut shard = phi_shards(1, 8192).pop().expect("one shard");
        for id in 0..10 {
            shard.watch(ProcessId::new(id)).unwrap();
        }
        shard.publish(Timestamp::from_secs(1));
        assert!(shard.column.blocks.len() * LevelCurve::BLOCK <= 16);
        // Slots vacated and taken again reach no further.
        for id in 0..10 {
            shard.unwatch(ProcessId::new(id));
            shard.watch(ProcessId::new(id + 100)).unwrap();
        }
        assert_eq!(shard.slab.len(), 10);
        assert!(shard.column.blocks.len() * LevelCurve::BLOCK <= 16);
    }

    #[test]
    fn the_owed_sets_grow_with_the_slab_not_the_capacity() {
        // The set holds a bit a slot the slab has reached, so a shard
        // declared for a million peers holds no word until it watches one.
        let (capacity, peers) = if cfg!(miri) {
            (1 << 10, 70)
        } else {
            (1 << 20, 300)
        };
        let mut shard = phi_shards(1, capacity).pop().expect("one shard");
        let words = |shard: &Shard<_>| shard.owed.0.len();
        assert_eq!(words(&shard), 0, "construction allocates no word");
        for id in 0..peers {
            shard.watch(ProcessId::new(id)).unwrap();
        }
        let reached = (peers as usize).div_ceil(64);
        assert_eq!(words(&shard), reached);
        // Churn of the same count takes the vacated slots back.
        for id in 0..peers {
            shard.unwatch(ProcessId::new(id));
        }
        for id in 0..peers {
            shard.watch(ProcessId::new(id + 10_000)).unwrap();
        }
        assert_eq!(words(&shard), reached);
    }

    #[test]
    fn rejected_frames_owe_no_publish() {
        // Only an accepted arrival changes a row: a duplicate, a stale
        // frame and one from a sender nobody watches leave the set empty,
        // so the next publish writes no row.
        let mut shard = phi_shards(1, 8).pop().expect("one shard");
        for id in 0..3 {
            shard.watch(ProcessId::new(id)).unwrap();
        }
        assert!(shard.accept(beat(1, 5), Timestamp::from_secs(1)));
        // Three slots: one word.
        let set = |shard: &Shard<_>| shard.owed.0.clone();
        assert_eq!(set(&shard), vec![0b111]);
        shard.publish(Timestamp::from_secs(2));
        assert_eq!(set(&shard), vec![0], "one publish settles both banks");
        assert!(!shard.accept(beat(1, 5), Timestamp::from_secs(3)));
        assert!(!shard.accept(beat(1, 4), Timestamp::from_secs(3)));
        assert!(!shard.accept(beat(9, 1), Timestamp::from_secs(3)));
        let stats = shard.stats();
        assert_eq!((stats.duplicate, stats.stale, stats.unwatched), (1, 1, 1));
        assert_eq!(set(&shard), vec![0], "rejected frames mark no row");
        // One accepted frame marks its own row and no other.
        assert!(shard.accept(beat(2, 1), Timestamp::from_secs(4)));
        let row = shard.cell.slot(ProcessId::new(2)).unwrap();
        assert_eq!(set(&shard), vec![1 << row]);
        shard.publish(Timestamp::from_secs(5));
        assert_eq!(set(&shard), vec![0]);
    }

    #[test]
    fn one_publish_writes_an_arrival_into_both_banks() {
        let p = ProcessId::new(4);
        let mut shard = phi_shards(1, 8).pop().expect("one shard");
        shard.watch(p).unwrap();
        shard.publish(Timestamp::from_secs(1));
        assert!(shard.accept(beat(4, 1), Timestamp::from_secs(2)));
        let row = shard.cell.slot(p).unwrap();
        assert_eq!(bit(&shard.owed.0, row), 1);
        shard.publish(Timestamp::from_secs(3));
        assert!(shard.owed.0.iter().all(|&word| word == 0), "nothing owed");
        let watched = shard.entry(p).unwrap();
        let want = PeerDurable::from_state(watched.detector.save_seed(), watched.highest_seq);
        assert_eq!(want.highest(), Some(1));
        // The tenant goes into both banks, its record once, into the
        // durable table.
        let id = u64::from(p.as_u32());
        let [front, back] = shard.cell.bank_rows(shard.slots_used());
        assert_eq!((front[row], back[row]), (id, id));
        assert_eq!(
            shard.cell.durable_rows(shard.slots_used())[row],
            Some((p, want))
        );
        // An unwatch empties the row in all three.
        shard.unwatch(p);
        let [front, back] = shard.cell.bank_rows(shard.slots_used());
        assert_eq!((front[row], back[row]), (u64::MAX, u64::MAX));
        assert_eq!(shard.cell.durable_rows(shard.slots_used())[row], None);
    }

    #[test]
    fn durable_rows_are_allocated_by_the_slab_not_the_capacity() {
        // Seven words a row in two banks were 112 bytes a slot of
        // capacity, resident or not depending on the optimiser; the
        // ledger's wide workload declares eight slots a peer. A row is now
        // stored once, with its tenant, in one cache line.
        assert_eq!(mem::size_of::<DurableRow>(), 64);
        let mut shard = phi_shards(1, 1 << 20).pop().expect("one shard");
        let chunks = |shard: &Shard<_>| {
            let [front, back] = shard.cell.chunks_allocated();
            [front, back, shard.cell.durable_chunks_allocated()]
        };
        assert_eq!(chunks(&shard), [0, 0, 0], "construction allocates no row");
        shard.watch(ProcessId::new(0)).unwrap();
        shard.publish(Timestamp::from_secs(1));
        assert_eq!(chunks(&shard), [1, 1, 1]);
        for id in 1..CHUNK as u32 {
            shard.watch(ProcessId::new(id)).unwrap();
        }
        assert_eq!(chunks(&shard), [1, 1, 1], "a chunk holds CHUNK rows");
        shard.watch(ProcessId::new(CHUNK as u32)).unwrap();
        assert_eq!(chunks(&shard), [2, 2, 2], "row CHUNK opens the second");
        // Rows vacated and taken again come from the chunks there are.
        for id in 0..=CHUNK as u32 {
            shard.unwatch(ProcessId::new(id));
        }
        for id in 0..=CHUNK as u32 {
            shard.watch(ProcessId::new(id + 10_000)).unwrap();
        }
        shard.publish(Timestamp::from_secs(2));
        assert_eq!(chunks(&shard), [2, 2, 2]);
        // The published bank carries every live row, past the first chunk
        // included.
        let (_, rows) = shard.cell.read_rows();
        assert_eq!(rows.len(), CHUNK + 1);
        assert!(rows.iter().all(|(_, _, d)| d.seed().is_some()));
    }

    #[test]
    fn the_slot_index_doubles_with_the_slab_not_the_capacity() {
        // The index probes a power-of-two prefix at least twice the slab's
        // reach: a shard declared for a million peers starts with the
        // sixteen entries the index holds in itself, and only a watch that
        // reaches further doubles it.
        let mut shard = phi_shards(1, 1 << 20).pop().expect("one shard");
        let grown = |shard: &Shard<_>| (shard.cell.index_prefix(), shard.cell.chunks_allocated());
        assert_eq!(grown(&shard), (16, [0, 0]), "construction allocates no row");
        for id in 0..300 {
            shard.watch(ProcessId::new(id)).unwrap();
        }
        // The least power of two ≥ 600; rows 0..300 span two chunks.
        assert_eq!(grown(&shard), (1024, [2, 2]));
        // Churn of the same count takes the vacated slots back, so it
        // grows neither the prefix nor the chunks.
        for id in 0..300 {
            shard.unwatch(ProcessId::new(id));
        }
        for id in 0..300 {
            shard.watch(ProcessId::new(id + 1_000)).unwrap();
        }
        assert_eq!(grown(&shard), (1024, [2, 2]));
        assert_eq!(shard.slab.len(), 300);
        shard.publish(Timestamp::from_secs(1));
        let (_, rows) = shard.cell.read_rows();
        assert_eq!(rows.len(), 300);
        assert!(rows
            .iter()
            .all(|(p, _, _)| (1_000..1_300).contains(&p.as_u32())));
    }

    /// φ shards of `slots` peers each, their windows small enough to wrap.
    fn phi_shards(shards: usize, slots: usize) -> Vec<Shard<afd_detectors::phi::PhiAccrual>> {
        use afd_detectors::phi::{PhiAccrual, PhiConfig};
        let config = PhiConfig {
            window_size: 4,
            ..PhiConfig::default()
        };
        let (_cells, shards) = build_shards(shards, slots, move |_| {
            PhiAccrual::new(config).expect("valid phi config")
        });
        shards
    }

    /// Row `row`'s bit in a shard's owed set.
    fn bit(set: &[u64], row: usize) -> u8 {
        (set[row / 64] >> (row % 64) & 1) as u8
    }

    fn beat(sender: u32, seq: u64) -> Heartbeat {
        Heartbeat {
            sender: ProcessId::new(sender),
            seq,
            sent_at: Timestamp::ZERO,
        }
    }

    #[test]
    fn import_over_a_live_peer_only_moves_it_forward() {
        // Regression: an import assigned the saved watermark and seed
        // unconditionally, so a restore over a peer that had been heard
        // from since reopened its replay window (seq 15 below was
        // accepted a second time) and rewound its detector's last
        // arrival, making the next one record a gap that never happened.
        let p = ProcessId::new(7);
        let mut shard = phi_shards(1, 8).pop().expect("one shard");
        shard.watch(p).unwrap();
        for seq in 1..=20u64 {
            assert!(shard.accept(beat(7, seq), Timestamp::from_secs(seq)));
        }
        let live = shard.entry(p).unwrap().detector.save_seed();
        let older = DetectorSeed {
            last_heartbeat: Some(Timestamp::from_secs(10)),
            samples: 4,
            mean: 1.0,
            population_variance: 0.0,
            heartbeats_seen: 0,
        };
        let mut import = RestoreImport::default();
        let behind = RestoredPeer {
            process: p,
            highest_seq: Some(10),
            seed: Some(older),
        };
        shard.import(&behind, &mut import);
        assert_eq!((import.watched, import.seeded), (1, 0));
        let watched = shard.entry(p).unwrap();
        assert_eq!(watched.highest_seq, Some(20));
        assert_eq!(watched.detector.save_seed(), live);
        let slot = shard.cell.slot(p).unwrap();
        assert_eq!(
            bit(&shard.owed.0, slot),
            1,
            "an import always marks the slot"
        );
        assert!(!shard.accept(beat(7, 15), Timestamp::from_secs(21)));
        assert_eq!(shard.stats().accepted, 20);
        assert_eq!(shard.stats().stale, 1);

        // What is ahead of the live state still applies: the watermark
        // advances and a seed that has heard a later arrival replaces the
        // detector's.
        let newer = DetectorSeed {
            last_heartbeat: Some(Timestamp::from_secs(30)),
            ..older
        };
        let ahead = RestoredPeer {
            process: p,
            highest_seq: Some(30),
            seed: Some(newer),
        };
        shard.import(&ahead, &mut import);
        assert_eq!((import.watched, import.seeded), (2, 1));
        let watched = shard.entry(p).unwrap();
        assert_eq!(watched.highest_seq, Some(30));
        assert_eq!(watched.detector.save_seed(), Some(newer));
        assert!(!shard.accept(beat(7, 25), Timestamp::from_secs(31)));
        assert!(shard.accept(beat(7, 31), Timestamp::from_secs(31)));

        // A watermark that retired with an unwatch is held to the same
        // rule when the import re-watches the peer; the fresh detector
        // takes the seed whatever its age.
        shard.unwatch(p);
        shard.import(&behind, &mut import);
        assert_eq!((import.watched, import.seeded), (3, 2));
        let watched = shard.entry(p).unwrap();
        assert_eq!(watched.highest_seq, Some(31));
        assert_eq!(watched.detector.save_seed(), Some(older));
    }

    #[test]
    fn restore_over_a_live_peer_keeps_replays_rejected() {
        let (mut tx, mut mon, clock) = rig(SINGLE);
        let p = ProcessId::new(7);
        mon.watch(p).unwrap();
        for seq in 1..=20u64 {
            clock.set(Timestamp::from_secs(seq));
            tx.send(&frame(7, seq)).unwrap();
            mon.tick().unwrap();
        }
        let import = mon.restore(&[RestoredPeer {
            process: p,
            highest_seq: Some(10),
            seed: None,
        }]);
        assert_eq!((import.watched, import.seeded), (1, 0));
        tx.send(&frame(7, 15)).unwrap();
        assert_eq!(mon.tick().unwrap().accepted, 0);
        let totals = mon.stats().totals;
        assert_eq!(
            (totals.accepted, totals.stale, totals.duplicate),
            (20, 1, 0),
            "a frame accepted before the restore is a replay after it"
        );

        // With a seed older than what the detector has heard since, the
        // last arrival stays where it is: the level is the silence since
        // second 20, not since the checkpoint.
        mon.restore(&[RestoredPeer {
            process: p,
            highest_seq: None,
            seed: Some(DetectorSeed {
                last_heartbeat: Some(Timestamp::from_secs(10)),
                ..DetectorSeed::default()
            }),
        }]);
        clock.set(Timestamp::from_secs(23));
        assert_eq!(mon.level(p).unwrap().value(), 3.0);
    }

    mod staged_accept {
        use super::*;
        use proptest::prelude::*;

        const SHARDS: usize = 2;
        /// Senders 0–2 are watched, 3 never was, 4 and 5 were and left a
        /// watermark behind.
        const SENDERS: u64 = 6;
        /// Sequence numbers a frame may bear: both sides of the wrap
        /// past `u64::MAX`, close enough together that duplicates and
        /// stale frames are common.
        const SEQS: [u64; 10] = [
            u64::MAX - 3,
            u64::MAX - 2,
            u64::MAX - 1,
            u64::MAX,
            0,
            1,
            2,
            3,
            4,
            5,
        ];

        /// Two shards with some history: sender 1 has been heard just
        /// below the wrap, 4 and 5 were heard and unwatched.
        fn shards_with_history() -> Vec<Shard<afd_detectors::phi::PhiAccrual>> {
            let mut shards = phi_shards(SHARDS, 8);
            let mut feed = |sender: u32, seq: u64, secs: u64| {
                let shard = &mut shards[shard_index(ProcessId::new(sender), SHARDS)];
                shard.watch(ProcessId::new(sender)).unwrap();
                if secs > 0 {
                    assert!(shard.accept(beat(sender, seq), Timestamp::from_secs(secs)));
                }
            };
            feed(0, 0, 0);
            feed(1, u64::MAX - 2, 1);
            feed(2, 0, 0);
            feed(4, u64::MAX - 1, 2);
            feed(5, 1, 3);
            for gone in [4, 5] {
                let p = ProcessId::new(gone);
                assert!(shards[shard_index(p, SHARDS)].unwatch(p).is_some());
            }
            shards
        }

        fn batches() -> impl Strategy<Value = Vec<(u32, u64)>> {
            let frame = proptest::FnStrategy::new(|rng: &mut TestRng| {
                let seq = SEQS[rng.below(SEQS.len() as u64) as usize];
                (rng.below(SENDERS) as u32, seq)
            });
            prop::collection::vec(frame, 0..65)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 256 }))]

            /// A batch through the three passes ends exactly where the
            /// same frames accepted one at a time end: the counters, the
            /// retired watermarks and — bit for bit — every published
            /// row, through repeated senders, duplicates, stale frames,
            /// strangers and sequence numbers straddling the wrap.
            #[test]
            fn staged_accept_equals_one_at_a_time(frames in batches()) {
                let mut staged = shards_with_history();
                let mut single = shards_with_history();
                let start = Timestamp::from_secs(4);
                let mut batch: Vec<Stamped> = (frames.iter().enumerate())
                    .map(|(i, &(sender, seq))| {
                        let hb = beat(sender, seq);
                        let at = start.saturating_add(Duration::from_millis(70 * i as u64));
                        Stamped::new(shard_index(hb.sender, SHARDS), hb, at)
                    })
                    .collect();

                let mut one_at_a_time = 0usize;
                for frame in &batch {
                    let accepted = single[frame.shard].accept(frame.hb, frame.at);
                    one_at_a_time += usize::from(accepted);
                }
                prop_assert_eq!(accept_batch(&mut staged, &mut batch), one_at_a_time);

                let now = start.saturating_add(Duration::from_secs(6));
                for (staged, single) in staged.iter_mut().zip(&mut single) {
                    prop_assert_eq!(staged.stats(), single.stats());
                    prop_assert_eq!(&staged.retired, &single.retired);
                    staged.publish(now);
                    single.publish(now);
                    let (at, rows) = staged.cell.read_rows();
                    let (_, want) = single.cell.read_rows();
                    prop_assert_eq!(at, now);
                    prop_assert_eq!(rows.len(), want.len());
                    for (got, want) in rows.iter().zip(&want) {
                        prop_assert_eq!(got.0, want.0);
                        prop_assert_eq!(got.1.value().to_bits(), want.1.value().to_bits());
                        prop_assert_eq!(got.2, want.2);
                    }
                }
            }
        }
    }

    mod incremental_publish {
        use super::*;
        use afd_detectors::kappa::{KappaAccrual, KappaConfig, PhiContribution};
        use afd_detectors::phi::{PhiAccrual, PhiConfig, PhiModel};
        use proptest::prelude::*;

        /// Peers the operations draw from; more than the shard holds, so
        /// capacity refusals are part of the mix.
        const POOL: u64 = 12;
        const SLOTS: usize = 8;

        #[derive(Debug, Clone, Copy)]
        enum Op {
            Accept {
                peer: u32,
                skip: u64,
            },
            Watch(u32),
            Unwatch(u32),
            /// The peer leaves and comes straight back, into the slot it
            /// left.
            Rewatch(u32),
            Import {
                peer: u32,
                seq: Option<u64>,
                seeded: bool,
            },
            DetectorMut(u32),
            Publish,
        }

        fn ops() -> impl Strategy<Value = Vec<Op>> {
            let op = proptest::FnStrategy::new(|rng: &mut TestRng| {
                let peer = rng.below(POOL) as u32;
                match rng.below(17) {
                    0..=6 => Op::Accept {
                        peer,
                        skip: rng.below(3),
                    },
                    7 | 8 => Op::Watch(peer),
                    9 => Op::Unwatch(peer),
                    10 => Op::Import {
                        peer,
                        seq: (rng.below(2) == 0).then(|| rng.below(50)),
                        seeded: rng.below(2) == 0,
                    },
                    11 => Op::DetectorMut(peer),
                    12 => Op::Rewatch(peer),
                    _ => Op::Publish,
                }
            });
            prop::collection::vec(op, 0..48)
        }

        fn one_shard<D: AccrualFailureDetector>(
            factory: impl FnMut(ProcessId) -> D + Send + Clone + 'static,
        ) -> Shard<D> {
            let (_cells, mut shards) = build_shards(1, SLOTS, factory);
            shards.pop().expect("one shard")
        }

        /// A shard whose every level comes off the curve column.
        fn phi_shard() -> Shard<PhiAccrual> {
            phi_shards(1, SLOTS).pop().expect("one shard")
        }

        /// A shard of detectors that have no curve: every level is still
        /// asked of its detector.
        fn kappa_shard() -> Shard<KappaAccrual<PhiContribution>> {
            let config = KappaConfig {
                window_size: 4,
                ..KappaConfig::default()
            };
            one_shard(move |_| KappaAccrual::new(config, PhiContribution).expect("valid kappa"))
        }

        /// A shard whose rows change sides: the empirical model has a
        /// curve (its normal prior) until its histogram holds two gaps,
        /// none from there on, and one again after a restore emptied it.
        fn empirical_shard() -> Shard<PhiAccrual> {
            let config = PhiConfig {
                window_size: 4,
                min_samples: 2,
                model: PhiModel::Empirical {
                    bins: 16,
                    max_intervals: 8.0,
                },
                ..PhiConfig::default()
            };
            one_shard(move |_| PhiAccrual::new(config).expect("valid phi config"))
        }

        /// What a publish that rewrote every row would have put in the
        /// bank, ascending by id: recomputed from the live detectors,
        /// whose level is a pure function of their state and `now`.
        fn recomputed<D: AccrualFailureDetector>(
            shard: &mut Shard<D>,
            now: Timestamp,
        ) -> Vec<(ProcessId, SuspicionLevel, PeerDurable)> {
            let mut rows = Vec::new();
            for w in shard.slab.iter_mut().filter_map(Slot::live) {
                let durable = PeerDurable::from_state(w.detector.save_seed(), w.highest_seq);
                rows.push((w.id, w.detector.suspicion_level(now), durable));
            }
            rows.sort_unstable_by_key(|r| r.0);
            rows
        }

        /// Rows sit in slot order, which records the watch/unwatch
        /// history: every comparison is by id.
        fn publish_and_check<D: AccrualFailureDetector>(shard: &mut Shard<D>, now: Timestamp) {
            shard.publish(now);
            let want = recomputed(shard, now);
            let (at, mut rows) = shard.cell.read_rows();
            rows.sort_unstable_by_key(|r| r.0);
            assert_eq!(at, now);
            assert_eq!(rows.len(), want.len(), "vacant rows are skipped");
            for (got, want) in rows.iter().zip(&want) {
                assert_eq!(got.0, want.0);
                assert_eq!(
                    got.1.value().to_bits(),
                    want.1.value().to_bits(),
                    "{:?}",
                    got.0
                );
                assert_eq!(got.2, want.2, "{:?}", got.0);
            }
            // The accessors readers and the checkpointer use see the same.
            let (mut levels, mut durable) = (Vec::new(), Vec::new());
            assert_eq!(shard.cell.read_all(&mut levels), now);
            assert_eq!(shard.cell.read_durable(&mut durable), now);
            levels.sort_unstable_by_key(|r| r.0);
            durable.sort_unstable_by_key(|r| r.0);
            let want_levels: Vec<_> = want.iter().map(|r| (r.0, r.1)).collect();
            let want_durable: Vec<_> = want.iter().map(|r| (r.0, r.2)).collect();
            assert_eq!(levels, want_levels);
            assert_eq!(durable, want_durable);
            for &(p, level) in &want_levels {
                assert_eq!(shard.cell.lookup(p), Some(level), "{p:?}");
            }
            // The column says of every row what its detector says: the
            // listed rows are exactly the live ones without a curve, and
            // every row not holding a live curve is the zero curve.
            let mut listed = Vec::new();
            for (row, slot) in shard.slab.iter().enumerate() {
                let curve = match slot {
                    Slot::Live(watched) => watched.detector.level_curve(),
                    Slot::Vacant => Some(LevelCurve::Zero),
                };
                listed.extend(curve.is_none().then_some(row));
                let held = shard.column.blocks[row / LevelCurve::BLOCK][row % LevelCurve::BLOCK];
                assert_eq!(held, curve.unwrap_or(LevelCurve::Zero), "row {row}");
            }
            assert_eq!(shard.column.curveless, listed);
            // The bank the publish retired holds the front bank's id and
            // durable words in every row the slab reached.
            let [front, back] = shard.cell.bank_rows(shard.slab.len());
            assert_eq!(front, back);
        }

        /// Every slot's count of publishes still owed to it: one for a
        /// row changed since the last publish, none for any other.
        fn marks<D>(shard: &Shard<D>) -> Vec<u8> {
            (0..shard.slab.len())
                .map(|row| bit(&shard.owed.0, row))
                .collect()
        }

        /// Runs one membership change and holds it to marking one slot:
        /// every other slot owes exactly the publishes it owed before.
        fn changes_one_slot<D>(shard: &mut Shard<D>, change: impl FnOnce(&mut Shard<D>)) {
            let before = marks(shard);
            change(shard);
            let after = marks(shard);
            let moved = (0..after.len())
                .filter(|&i| before.get(i) != Some(&after[i]))
                .count();
            assert!(moved <= 1, "marks {before:?} -> {after:?}");
        }

        /// Runs `ops` on `shard`, holding every publish to a full
        /// recomputation and every membership change to one slot.
        fn front_bank_holds<D: AccrualFailureDetector>(mut shard: Shard<D>, ops: &[Op]) {
            let mut now = Timestamp::from_secs(1);
            let mut next_seq = [0u64; POOL as usize];
            for &op in ops {
                now = now.saturating_add(Duration::from_millis(130));
                match op {
                    Op::Accept { peer, skip } => {
                        let seq = &mut next_seq[peer as usize];
                        *seq += 1 + skip;
                        let hb = Heartbeat {
                            sender: ProcessId::new(peer),
                            seq: *seq,
                            sent_at: now,
                        };
                        shard.accept(hb, now);
                    }
                    Op::Watch(peer) => changes_one_slot(&mut shard, |shard| {
                        let _ = shard.watch(ProcessId::new(peer));
                    }),
                    Op::Unwatch(peer) => changes_one_slot(&mut shard, |shard| {
                        shard.unwatch(ProcessId::new(peer));
                    }),
                    Op::Rewatch(peer) => changes_one_slot(&mut shard, |shard| {
                        let p = ProcessId::new(peer);
                        if shard.unwatch(p).is_some() {
                            assert_eq!(shard.watch(p), Ok(true));
                            // Until a publish, nobody reads the row the
                            // previous incarnation published.
                            assert_eq!(shard.cell.lookup(p), None);
                        }
                    }),
                    Op::Import { peer, seq, seeded } => {
                        let restored = RestoredPeer {
                            process: ProcessId::new(peer),
                            highest_seq: seq,
                            seed: seeded.then_some(DetectorSeed {
                                last_heartbeat: Some(now),
                                samples: 3,
                                mean: 0.2,
                                population_variance: 0.01,
                                heartbeats_seen: 0,
                            }),
                        };
                        shard.import(&restored, &mut RestoreImport::default());
                    }
                    Op::DetectorMut(peer) => {
                        if let Some(d) = shard.detector_mut(ProcessId::new(peer)) {
                            d.record_heartbeat(now);
                        }
                    }
                    Op::Publish => publish_and_check(&mut shard, now),
                }
            }
            // Four in a row: each bank is also read after a publish
            // that wrote no id and no durable word into it.
            for _ in 0..4 {
                now = now.saturating_add(Duration::from_millis(130));
                publish_and_check(&mut shard, now);
            }
            // One publish settles every slot, so from here a
            // membership change that went back to rewriting
            // everything would show on every other slot.
            assert!(marks(&shard).iter().all(|&owed| owed == 0));
            for peer in 0..POOL as u32 {
                let p = ProcessId::new(peer);
                // The watch takes the slot the unwatch vacated, if any.
                shard.unwatch(p);
                let _ = shard.watch(p);
                let owed = marks(&shard).iter().filter(|&&owed| owed > 0).count();
                assert!(owed <= 1, "peer {peer}: {:?}", marks(&shard));
                for _ in 0..2 {
                    now = now.saturating_add(Duration::from_millis(130));
                    publish_and_check(&mut shard, now);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Whatever happened between publishes, the front bank holds
            /// exactly what a publish that rewrote every row would hold —
            /// through slots vacated and reused, and in both banks —
            /// while a membership change marks one slot and no other:
            /// for rows that come off the curve column, rows that are
            /// asked of their detector, and rows that change sides.
            #[test]
            fn front_bank_equals_a_full_recomputation(ops in ops()) {
                front_bank_holds(phi_shard(), &ops);
                front_bank_holds(kappa_shard(), &ops);
                front_bank_holds(empirical_shard(), &ops);
            }
        }
    }
}
