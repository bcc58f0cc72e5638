//! Pluggable heartbeat transports.
//!
//! A [`Transport`] moves heartbeat frames between a sender and a monitor
//! through two calls: [`send`](Transport::send) and
//! [`recv_batch`](Transport::recv_batch). Two media ship:
//! [`ChannelTransport`] (in-process bounded lossy queue, used by the
//! deterministic chaos harness and by same-process deployments) and
//! [`UdpLane`](crate::lane::UdpLane) (a non-blocking `std::net::UdpSocket`,
//! the paper's actual deployment medium — heartbeats tolerate loss, so
//! UDP is the right fit).
//!
//! Both are polling transports: `recv_batch` never blocks, which lets one
//! loop service the transport, the detectors, and the watchdog tick
//! without extra threads.
//!
//! # One frame bound, one frame cell
//!
//! A transport carries wire frames and nothing else, so its bound is the
//! wire's: [`MAX_DATAGRAM`] is 64 bytes, the power of two above the
//! longest frame the [`wire`](crate::wire) module emits (the 40-byte v2
//! checkpoint; the wire module asserts the fit at compile time). `send`
//! refuses anything longer with a typed error, and a receive that finds
//! more is an oversize datagram — counted and dropped, never truncated
//! into something decodable.
//!
//! Every frame at rest — a slot of a [`FrameBatch`] arena, an entry of a
//! [`ChannelTransport`] queue — is the same inline cell: a length and
//! `[u8; PROBE_LEN]`, 68 bytes. The caller keeps a reusable
//! [`FrameBatch`] and the transport copies pending frames straight into
//! it (a UDP lane receives datagrams directly into the cells;
//! [`ChannelTransport`] moves its queued cells over). Building the arena
//! and growing a queue to its largest backlog are the only allocations:
//! once there, intake performs **zero heap allocations per frame** —
//! enforced by the `no-alloc-in-hot-path` afd-lint rule over this file —
//! and a 512-cell arena is 34 KB, beside the slab it feeds in L1/L2.
//! Batches are also the engine's clock-amortization unit: a lane thread
//! takes one arrival stamp per `recv_batch` call and applies it to every
//! frame in the batch (skew bounded by one batch's handling time).
//!
//! # Bounded, lossy channels
//!
//! [`ChannelTransport`] is a bounded deque with **drop-oldest** overflow
//! — the same policy as a full UDP socket buffer, and the right one for
//! heartbeats (the newest frame is the evidence a detector wants; the
//! oldest is the most superseded), so a stalled monitor cannot grow the
//! queue without bound. Drops are counted and exportable via
//! [`ChannelTransport::export_metrics`].
//!
//! The bound caps memory; it does not reserve it. A queue starts empty
//! and doubles as frames wait, stopping at `capacity` cells, so a pair
//! holds what its largest backlog needed: a loop that never has more
//! than 128 frames in flight keeps 128 cells (8.5 KB), not the 1 MB of a
//! full default queue. Nothing shrinks on drain, so a queue that has
//! reached its largest backlog allocates no more.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::TransportError;

/// Longest frame a transport carries: the wire's longest frame
/// ([`MAX_V2_FRAME`](crate::wire::MAX_V2_FRAME), 40 bytes) rounded up to
/// a power of two, which leaves the checkpoint frame 24 bytes to grow
/// into before this bound has to move.
pub const MAX_DATAGRAM: usize = 64;

/// Receive-buffer size: one byte more than [`MAX_DATAGRAM`], so that a
/// `recv` filling the whole buffer *proves* the datagram exceeded the
/// limit (portable truncation detection without platform `MSG_TRUNC`
/// flags). A cell is only ever committed with ≤ [`MAX_DATAGRAM`] bytes.
pub const PROBE_LEN: usize = MAX_DATAGRAM + 1;

/// Frames an in-process channel holds before dropping the oldest
/// (default for [`ChannelTransport::pair`]).
pub const DEFAULT_CHANNEL_CAPACITY: usize = 16 * 1024;

/// One frame at rest: an inline buffer plus the frame's length. The
/// buffer is probe-sized ([`PROBE_LEN`]) so a receive into it can detect
/// an oversize datagram, but `len` never exceeds [`MAX_DATAGRAM`].
struct FrameCell {
    len: u16,
    buf: [u8; PROBE_LEN],
}

impl FrameCell {
    const EMPTY: FrameCell = FrameCell {
        len: 0,
        buf: [0u8; PROBE_LEN],
    };

    /// A cell holding a copy of `frame`, or `None` if it exceeds
    /// [`MAX_DATAGRAM`].
    fn new(frame: &[u8]) -> Option<Self> {
        if frame.len() > MAX_DATAGRAM {
            return None;
        }
        let mut cell = FrameCell::EMPTY;
        cell.buf[..frame.len()].copy_from_slice(frame);
        cell.len = frame.len() as u16;
        Some(cell)
    }

    fn as_slice(&self) -> &[u8] {
        &self.buf[..usize::from(self.len)]
    }
}

/// A reusable arena of frame cells for [`Transport::recv_batch`].
///
/// Allocated once (construction is the only allocation) and recycled
/// with [`clear`](FrameBatch::clear) every drain round; filling and
/// iterating it never touches the heap.
pub struct FrameBatch {
    slots: Box<[FrameCell]>,
    len: usize,
}

impl std::fmt::Debug for FrameBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameBatch")
            .field("len", &self.len)
            .field("capacity", &self.slots.len())
            .finish()
    }
}

impl FrameBatch {
    /// Creates an arena of `slots` cells (floored at 1).
    pub fn with_capacity(slots: usize) -> Self {
        FrameBatch {
            // lint:allow(no-alloc-in-hot-path, once an arena: its frame cells)
            slots: (0..slots.max(1)).map(|_| FrameCell::EMPTY).collect(),
            len: 0,
        }
    }

    /// Number of frames currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no frames are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if every slot is filled.
    pub fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Forgets all held frames (slots are reused in place).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Copies `frame` into the next slot. Returns `false` (frame not
    /// stored) if the batch is full or the frame exceeds
    /// [`MAX_DATAGRAM`].
    pub fn push(&mut self, frame: &[u8]) -> bool {
        FrameCell::new(frame).is_some_and(|cell| self.push_cell(cell))
    }

    /// Stores `cell` in the next slot; `false` if the batch is full.
    fn push_cell(&mut self, cell: FrameCell) -> bool {
        let Some(slot) = self.slots.get_mut(self.len) else {
            return false;
        };
        *slot = cell;
        self.len += 1;
        true
    }

    /// Hands the next free slot's probe-sized buffer to `fill`; if it
    /// returns `Some(n)` with `n ≤ MAX_DATAGRAM`, the slot is committed
    /// as an `n`-byte frame. Returns `false` without calling `fill` if
    /// the batch is full, and refuses to commit an `n` beyond
    /// [`MAX_DATAGRAM`] — a fill of all [`PROBE_LEN`] bytes means the
    /// datagram was oversize and must be dropped, not truncated. This is
    /// the receive-directly-into-the-arena path used by
    /// [`UdpLane`](crate::lane::UdpLane).
    pub fn push_with(&mut self, fill: impl FnOnce(&mut [u8; PROBE_LEN]) -> Option<usize>) -> bool {
        if self.is_full() {
            return false;
        }
        let slot = &mut self.slots[self.len];
        match fill(&mut slot.buf) {
            Some(n) if n <= MAX_DATAGRAM => {
                slot.len = n as u16;
                self.len += 1;
                true
            }
            _ => false,
        }
    }

    /// Iterates the held frames in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.slots[..self.len].iter().map(FrameCell::as_slice)
    }
}

/// A bidirectional, unreliable, frame-oriented transport.
pub trait Transport: Send {
    /// Sends one frame toward the peer.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] if the frame could not be handed to the
    /// medium. An `Ok` is *not* a delivery guarantee — the medium may still
    /// lose the frame, which is exactly what failure detectors exist for.
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError>;

    /// Drains pending frames into `batch` (up to its free capacity)
    /// without blocking, returning how many were stored. Implementations
    /// copy straight into the arena's slots and allocate nothing per
    /// frame.
    ///
    /// A return of `batch.capacity()` means the medium may hold more;
    /// anything less means it was drained.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] if the medium itself failed (as opposed
    /// to simply having nothing to deliver).
    fn recv_batch(&mut self, batch: &mut FrameBatch) -> Result<usize, TransportError>;
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        (**self).send(frame)
    }
    fn recv_batch(&mut self, batch: &mut FrameBatch) -> Result<usize, TransportError> {
        (**self).recv_batch(batch)
    }
}

/// The mutexed state of one channel direction.
struct ChannelQueue {
    frames: VecDeque<FrameCell>,
    /// Frames evicted by drop-oldest overflow.
    dropped: u64,
}

/// One direction of an in-process channel, shared by exactly two
/// endpoints (the sender holds it as `tx`, the receiver as `rx`).
struct ChannelCore {
    queue: Mutex<ChannelQueue>,
    capacity: usize,
}

impl ChannelCore {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(ChannelCore {
            queue: Mutex::new(ChannelQueue {
                frames: VecDeque::new(),
                dropped: 0,
            }),
            capacity,
        })
    }

    /// Locks the queue, recovering from a poisoned mutex (the state is a
    /// plain deque plus a counter — always valid).
    fn lock(&self) -> MutexGuard<'_, ChannelQueue> {
        match self.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// An in-process transport over a pair of crossed bounded lossy queues.
///
/// What one endpoint sends, the other receives, FIFO, until the queue is
/// full — then the **oldest** queued frame is dropped (and counted) to
/// make room, exactly like a full UDP socket buffer. Memory is bounded
/// at `capacity` frame cells per direction, but grown as frames wait: a
/// direction starts empty, doubles while its backlog outgrows it, and
/// keeps what its largest backlog needed.
pub struct ChannelTransport {
    tx: Arc<ChannelCore>,
    rx: Arc<ChannelCore>,
}

impl std::fmt::Debug for ChannelTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("capacity", &self.tx.capacity)
            .finish()
    }
}

impl ChannelTransport {
    /// Creates two connected endpoints with the default per-direction
    /// capacity ([`DEFAULT_CHANNEL_CAPACITY`] frames).
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        ChannelTransport::pair_bounded(DEFAULT_CHANNEL_CAPACITY)
    }

    /// Creates two connected endpoints holding at most `capacity` frames
    /// per direction (floored at 1); overflow drops the oldest frame.
    pub fn pair_bounded(capacity: usize) -> (ChannelTransport, ChannelTransport) {
        let capacity = capacity.max(1);
        let a_to_b = ChannelCore::new(capacity);
        let b_to_a = ChannelCore::new(capacity);
        (
            ChannelTransport {
                tx: Arc::clone(&a_to_b),
                rx: Arc::clone(&b_to_a),
            },
            ChannelTransport {
                tx: b_to_a,
                rx: a_to_b,
            },
        )
    }

    /// Frames dropped (oldest-first overflow) from the queue this
    /// endpoint *receives* from.
    pub fn rx_dropped(&self) -> u64 {
        self.rx.lock().dropped
    }

    /// Frames dropped (oldest-first overflow) from the queue this
    /// endpoint *sends* into.
    pub fn tx_dropped(&self) -> u64 {
        self.tx.lock().dropped
    }

    /// Frames currently queued for this endpoint to receive.
    pub fn rx_depth(&self) -> usize {
        self.rx.lock().frames.len()
    }

    /// Publishes the drop counters into `registry` under
    /// `transport.channel.*`.
    pub fn export_metrics(&self, registry: &afd_obs::Registry) {
        registry
            .counter("transport.channel.rx_dropped")
            .set(self.rx_dropped());
        registry
            .counter("transport.channel.tx_dropped")
            .set(self.tx_dropped());
        registry
            .gauge("transport.channel.rx_depth")
            .set(self.rx_depth() as f64);
    }

    /// `true` while the other endpoint of `core` is still alive. Each
    /// direction is referenced by exactly two endpoints, so a strong
    /// count below 2 means the peer was dropped.
    fn peer_alive(core: &Arc<ChannelCore>) -> bool {
        Arc::strong_count(core) >= 2
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if !ChannelTransport::peer_alive(&self.tx) {
            return Err(TransportError::Disconnected);
        }
        let Some(cell) = FrameCell::new(frame) else {
            // lint:allow(no-alloc-in-hot-path, cold error path: an oversize frame refused)
            return Err(TransportError::Io(format!(
                "frame of {} bytes exceeds MAX_DATAGRAM ({MAX_DATAGRAM})",
                frame.len()
            )));
        };
        let mut q = self.tx.lock();
        let held = q.frames.len();
        if held >= self.tx.capacity {
            q.frames.pop_front();
            q.dropped += 1;
        } else if held == q.frames.capacity() {
            // Double, as the deque would, but stop at the bound: a queue
            // never allocates a cell it may not fill.
            q.frames
                .reserve_exact(held.max(1).min(self.tx.capacity - held));
        }
        q.frames.push_back(cell);
        Ok(())
    }

    fn recv_batch(&mut self, batch: &mut FrameBatch) -> Result<usize, TransportError> {
        let mut got = 0usize;
        let mut q = self.rx.lock();
        while !batch.is_full() {
            let Some(cell) = q.frames.pop_front() else {
                break;
            };
            batch.push_cell(cell);
            got += 1;
        }
        let empty = q.frames.is_empty();
        drop(q);
        if got == 0 && empty && !ChannelTransport::peer_alive(&self.rx) {
            return Err(TransportError::Disconnected);
        }
        Ok(got)
    }
}

/// A transport connected to nothing: sends are accepted and discarded,
/// receives never yield a frame.
///
/// Exists for engine configurations whose real intake happens on
/// [`lane`](crate::lane) sockets — the engine's type-level transport
/// slot is filled with a `NullTransport` that the intake loop would
/// drain forever-empty if it ran at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTransport;

impl Transport for NullTransport {
    fn send(&mut self, _frame: &[u8]) -> Result<(), TransportError> {
        Ok(())
    }

    fn recv_batch(&mut self, _batch: &mut FrameBatch) -> Result<usize, TransportError> {
        Ok(0)
    }
}

/// Test helper: everything `transport` will surrender right now, as owned
/// frames — repeated [`recv_batch`](Transport::recv_batch) until a call
/// stores nothing or fails.
#[cfg(test)]
pub(crate) fn drain_frames(transport: &mut impl Transport) -> Vec<Vec<u8>> {
    let mut batch = FrameBatch::with_capacity(64);
    let mut frames = Vec::new();
    while let Ok(got) = transport.recv_batch(&mut batch) {
        if got == 0 {
            break;
        }
        frames.extend(batch.iter().map(<[u8]>::to_vec));
        batch.clear();
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_delivers_both_ways() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(b"ping").unwrap();
        b.send(b"pong").unwrap();
        assert_eq!(drain_frames(&mut b), vec![b"ping".to_vec()]);
        assert_eq!(drain_frames(&mut a), vec![b"pong".to_vec()]);
        assert!(drain_frames(&mut a).is_empty());
    }

    #[test]
    fn channel_disconnect_is_typed() {
        let (mut a, b) = ChannelTransport::pair();
        drop(b);
        assert_eq!(a.send(b"x"), Err(TransportError::Disconnected));
        let mut batch = FrameBatch::with_capacity(1);
        assert_eq!(a.recv_batch(&mut batch), Err(TransportError::Disconnected));
    }

    #[test]
    fn channel_overflow_drops_oldest_and_counts() {
        let (mut a, mut b) = ChannelTransport::pair_bounded(3);
        for i in 0..5u8 {
            a.send(&[i]).unwrap();
        }
        assert_eq!(a.tx_dropped(), 2);
        assert_eq!(b.rx_dropped(), 2);
        assert_eq!(b.rx.lock().frames.capacity(), 3);
        // Survivors are the newest three, in order.
        assert_eq!(drain_frames(&mut b), vec![vec![2], vec![3], vec![4]]);
    }

    #[test]
    fn channel_bound_holds_after_the_queue_grows() {
        let (mut a, mut b) = ChannelTransport::pair_bounded(1000);
        assert_eq!(
            b.rx.lock().frames.capacity(),
            0,
            "a fresh pair holds no cell"
        );
        for i in 0..1500u16 {
            a.send(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(a.tx_dropped(), 500);
        assert_eq!(b.rx_dropped(), 500);
        assert_eq!(
            b.rx.lock().frames.capacity(),
            1000,
            "grown to the bound, not past it"
        );
        // Survivors are the newest thousand, in order.
        let newest: Vec<Vec<u8>> = (500..1500u16).map(|i| i.to_le_bytes().to_vec()).collect();
        assert_eq!(drain_frames(&mut b), newest);
        for i in 0..10u8 {
            a.send(&[i]).unwrap();
        }
        assert_eq!(
            a.tx_dropped(),
            500,
            "a drained queue takes ten more without a drop"
        );
        assert_eq!(
            drain_frames(&mut b),
            (0..10u8).map(|i| vec![i]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn channel_carries_a_full_frame_and_refuses_one_byte_more() {
        let (mut a, mut b) = ChannelTransport::pair();
        let full: Vec<u8> = (0..MAX_DATAGRAM as u8).collect();
        a.send(&full).unwrap();
        assert_eq!(drain_frames(&mut b), vec![full]);
        assert_eq!(
            a.send(&[0u8; MAX_DATAGRAM + 1]),
            Err(TransportError::Io(
                "frame of 65 bytes exceeds MAX_DATAGRAM (64)".to_owned()
            ))
        );
        assert!(
            drain_frames(&mut b).is_empty(),
            "a refused frame is not queued"
        );
    }

    #[test]
    fn frame_cells_stay_frame_sized() {
        // The cell is what an arena and a channel queue are made of: if it
        // grows, every intake stage's set-up memory grows 512-fold.
        assert!(std::mem::size_of::<FrameCell>() <= 72);
        let arena = FrameBatch::with_capacity(crate::shard::INTAKE_BATCH_SLOTS);
        assert!(std::mem::size_of_val(&*arena.slots) < 40 * 1024);
    }

    #[test]
    fn channel_recv_batch_is_fifo_and_reports_depth() {
        let (mut a, mut b) = ChannelTransport::pair();
        for i in 0..10u8 {
            a.send(&[i, i]).unwrap();
        }
        assert_eq!(b.rx_depth(), 10);
        let mut batch = FrameBatch::with_capacity(4);
        assert_eq!(b.recv_batch(&mut batch).unwrap(), 4);
        let got: Vec<Vec<u8>> = batch.iter().map(<[u8]>::to_vec).collect();
        assert_eq!(got, vec![vec![0, 0], vec![1, 1], vec![2, 2], vec![3, 3]]);
        batch.clear();
        assert_eq!(b.recv_batch(&mut batch).unwrap(), 4);
        batch.clear();
        assert_eq!(b.recv_batch(&mut batch).unwrap(), 2);
        batch.clear();
        assert_eq!(b.recv_batch(&mut batch).unwrap(), 0);
    }

    #[test]
    fn channel_buffered_frames_arrive_before_disconnect() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(b"last words").unwrap();
        drop(a);
        let mut batch = FrameBatch::with_capacity(4);
        assert_eq!(b.recv_batch(&mut batch).unwrap(), 1);
        assert_eq!(batch.iter().next(), Some(&b"last words"[..]));
        batch.clear();
        assert_eq!(b.recv_batch(&mut batch), Err(TransportError::Disconnected));
    }

    #[test]
    fn frame_batch_push_rules() {
        let mut batch = FrameBatch::with_capacity(2);
        assert!(batch.is_empty());
        assert!(batch.push(b"a"));
        assert!(batch.push(b"bb"));
        assert!(batch.is_full());
        assert!(!batch.push(b"c"), "full batch rejects");
        batch.clear();
        assert!(!batch.push(&[0u8; MAX_DATAGRAM + 1]), "oversize rejects");
        assert!(batch.push(&[0u8; MAX_DATAGRAM]), "exactly MTU fits");
    }

    #[test]
    fn push_with_refuses_probe_sized_commit() {
        let mut batch = FrameBatch::with_capacity(2);
        assert!(
            !batch.push_with(|_| Some(PROBE_LEN)),
            "a fill of the whole probe buffer is an oversize datagram"
        );
        assert!(batch.push_with(|_| Some(MAX_DATAGRAM)), "exactly MTU fits");
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn null_transport_is_a_black_hole() {
        let mut t = NullTransport;
        t.send(b"into the void").unwrap();
        let mut batch = FrameBatch::with_capacity(2);
        assert_eq!(t.recv_batch(&mut batch).unwrap(), 0);
        assert!(batch.is_empty());
    }
}
