//! Bounded single-producer/single-consumer heartbeat rings.
//!
//! The [`ParallelShardEngine`](crate::engine::ParallelShardEngine) routes
//! decoded heartbeats from one intake thread to one worker thread per
//! shard. Each route is a [`heartbeat_ring`]: a fixed-capacity ring of
//! atomic slots, each written and read through the `SeqLock` of the
//! [`snapshot`](crate::snapshot) protocol. The producer publishes by a
//! release store of `tail`; the consumer reads a slot inside the lock
//! before it claims the entry. No unsafe code, no locks.
//!
//! # Backpressure: drop-oldest
//!
//! When the ring is full the producer *evicts the oldest unread entry*
//! and counts it, rather than blocking or rejecting the new frame.
//! Heartbeats are lossy by design — the paper's detectors are built for
//! message loss, and a frame dropped at a full ring is indistinguishable
//! from one dropped by UDP. Dropping the *oldest* frame keeps the
//! freshest evidence, which is what an accrual detector wants: a newer
//! heartbeat from the same peer supersedes an older one outright.
//!
//! Eviction makes `head` a two-writer word (consumer pop, producer
//! evict), so both advance it with a compare-exchange; the slot's lock
//! protects a consumer that is mid-read of a slot being overwritten — its
//! read is discarded, its head CAS would fail, and it retries at the new
//! head. `tail` stays single-writer (plain stores).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use afd_core::process::ProcessId;
use afd_core::time::Timestamp;

use crate::snapshot::{bump, SeqLock};
use crate::wire::Heartbeat;

/// One ring entry: the decoded heartbeat plus its arrival stamp, spread
/// over atomic words that the slot's lock guards.
#[derive(Default)]
struct RingSlot {
    lock: SeqLock,
    sender: AtomicU64,
    seq: AtomicU64,
    sent_at: AtomicU64,
    arrival: AtomicU64,
}

struct RingInner {
    mask: u64,
    slots: Box<[RingSlot]>,
    /// Next unread index; advanced by the consumer (pop) or the producer
    /// (drop-oldest eviction), always via compare-exchange.
    head: AtomicU64,
    /// Next write index; the producer is the only writer.
    tail: AtomicU64,
    /// Entries evicted by drop-oldest; the producer is the only writer.
    dropped: AtomicU64,
}

/// Creates a bounded SPSC heartbeat ring. `capacity` is rounded up to
/// the next power of two (minimum 2).
pub fn heartbeat_ring(capacity: usize) -> (RingProducer, RingConsumer) {
    let cap = capacity.max(2).next_power_of_two();
    // lint:allow(no-alloc-in-hot-path, once a ring: its slots)
    let slots: Box<[RingSlot]> = (0..cap).map(|_| RingSlot::default()).collect();
    let inner = Arc::new(RingInner {
        mask: (cap - 1) as u64,
        slots,
        head: AtomicU64::new(0),
        tail: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
    });
    (
        RingProducer {
            inner: Arc::clone(&inner),
        },
        RingConsumer { inner },
    )
}

/// The write side of a [`heartbeat_ring`]. Exactly one thread may hold
/// it (it is `Send` but not `Clone`).
pub struct RingProducer {
    inner: Arc<RingInner>,
}

/// The read side of a [`heartbeat_ring`]. Exactly one thread may hold
/// it (it is `Send` but not `Clone`).
pub struct RingConsumer {
    inner: Arc<RingInner>,
}

/// A read-only, cloneable observer of a ring's depth and drop counter,
/// for metrics export from any thread.
#[derive(Clone)]
pub struct RingWatch {
    inner: Arc<RingInner>,
}

impl std::fmt::Debug for RingProducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingProducer")
            .field("capacity", &self.inner.slots.len())
            .finish()
    }
}

impl std::fmt::Debug for RingConsumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingConsumer")
            .field("capacity", &self.inner.slots.len())
            .finish()
    }
}

impl std::fmt::Debug for RingWatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingWatch")
            .field("len", &self.inner.len())
            .finish()
    }
}

/// Times [`RingInner::len`] re-reads the ring's ends before it settles
/// for a count that may include frames pushed while it read.
const LEN_ATTEMPTS: usize = 8;

impl RingInner {
    /// Entries queued at one instant: `tail − head` for a `head` read
    /// while `tail` held still. A `tail` read on its own can be older
    /// than `head` — a consumer may pop frames pushed after it — and the
    /// difference would wrap; and `head` then `tail` counts the frames
    /// that passed through a reader preempted between the two loads.
    fn len(&self) -> usize {
        let mut tail = self.tail.load(Ordering::Acquire);
        let mut queued = 0;
        for _ in 0..LEN_ATTEMPTS {
            let head = self.head.load(Ordering::Acquire);
            let again = self.tail.load(Ordering::Acquire);
            // `head` never passes the `tail` read after it, so this does
            // not wrap; it is exact when `tail` did not move.
            queued = again.wrapping_sub(head);
            if again == tail {
                break;
            }
            tail = again;
        }
        queued.min(self.slots.len() as u64) as usize
    }
}

impl RingProducer {
    /// Pushes a batch of heartbeats that share one arrival stamp, with
    /// **one** tail advance for the whole batch instead of one per
    /// frame — the publish half of the batched intake fast path.
    ///
    /// The outcome is that of pushing the heartbeats one at a time:
    /// never blocks, never fails, evicts the oldest unread entries
    /// (counted as dropped) when space runs short. A batch longer than
    /// the ring keeps only its newest `capacity` heartbeats — the older
    /// ones would be evicted by their own batchmates before any consumer
    /// could see them, so they are counted as dropped without being
    /// written.
    ///
    /// Each claimed slot is written inside its lock, then one release
    /// store of `tail` publishes the batch. A consumer that catches a slot
    /// mid-write has its read discarded and retries.
    pub fn push_batch(&mut self, hbs: &[Heartbeat], arrival: Timestamp) {
        let inner = &*self.inner;
        let cap = inner.slots.len() as u64;
        // Older-than-the-ring entries can never be observed: drop them
        // up front instead of writing and immediately evicting them.
        let skip = hbs.len().saturating_sub(cap as usize);
        if skip > 0 {
            bump(&inner.dropped, skip as u64);
        }
        let hbs = &hbs[skip..];
        if hbs.is_empty() {
            return;
        }
        let n = hbs.len() as u64;
        let tail = inner.tail.load(Ordering::Relaxed);
        loop {
            let head = inner.head.load(Ordering::Acquire);
            let free = cap - tail.wrapping_sub(head);
            if free >= n {
                break;
            }
            // Evict the whole deficit with one CAS. The CAS races only
            // the consumer's pop; on failure the consumer advanced head
            // for us, so the deficit is recomputed smaller.
            let deficit = n - free;
            if inner
                .head
                .compare_exchange(
                    head,
                    head.wrapping_add(deficit),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                bump(&inner.dropped, deficit);
                break;
            }
        }
        // The payloads, all sharing the batch arrival stamp.
        for (i, hb) in hbs.iter().enumerate() {
            let slot = &inner.slots[(tail.wrapping_add(i as u64) & inner.mask) as usize];
            slot.lock.write(|| {
                slot.sender
                    .store(u64::from(hb.sender.as_u32()), Ordering::Relaxed);
                slot.seq.store(hb.seq, Ordering::Relaxed);
                slot.sent_at.store(hb.sent_at.as_nanos(), Ordering::Relaxed);
                slot.arrival.store(arrival.as_nanos(), Ordering::Relaxed);
            });
        }
        // One publish for the whole batch.
        inner.tail.store(tail.wrapping_add(n), Ordering::Release);
    }

    /// A metrics observer for this ring.
    pub fn watch(&self) -> RingWatch {
        RingWatch {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl RingConsumer {
    /// Pops the oldest unread heartbeat, or `None` if the ring is empty.
    pub fn pop(&mut self) -> Option<(Heartbeat, Timestamp)> {
        let inner = &*self.inner;
        loop {
            let head = inner.head.load(Ordering::Acquire);
            let tail = inner.tail.load(Ordering::Acquire);
            if head == tail {
                return None;
            }
            let slot = &inner.slots[(head & inner.mask) as usize];
            let read = slot.lock.try_read(|| {
                (
                    slot.sender.load(Ordering::Relaxed),
                    slot.seq.load(Ordering::Relaxed),
                    slot.sent_at.load(Ordering::Relaxed),
                    slot.arrival.load(Ordering::Relaxed),
                )
            });
            // A discarded read means the producer is overwriting this
            // slot: it evicted it first, so head has moved.
            let Some((sender, seq, sent_at, arrival)) = read else {
                std::hint::spin_loop();
                continue;
            };
            if inner
                .head
                .compare_exchange(
                    head,
                    head.wrapping_add(1),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                let hb = Heartbeat {
                    sender: ProcessId::new(sender as u32),
                    seq,
                    sent_at: Timestamp::from_nanos(sent_at),
                };
                return Some((hb, Timestamp::from_nanos(arrival)));
            }
            // Lost the claim to a producer eviction; retry at new head.
        }
    }

    /// A metrics observer for this ring.
    pub fn watch(&self) -> RingWatch {
        RingWatch {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl RingWatch {
    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot capacity (a power of two).
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// Entries evicted by drop-oldest backpressure so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hb(sender: u32, seq: u64) -> Heartbeat {
        Heartbeat {
            sender: ProcessId::new(sender),
            seq,
            sent_at: Timestamp::from_nanos(seq),
        }
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = heartbeat_ring(5);
        assert_eq!(tx.watch().capacity(), 8);
        let (tx, _rx) = heartbeat_ring(0);
        assert_eq!(tx.watch().capacity(), 2);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        // One heartbeat at a time or in batches that straddle the ring's
        // end: the outcome is the same.
        for batch_len in [1, 7] {
            let (mut tx, mut rx) = heartbeat_ring(8);
            for chunk in (0..20u64).collect::<Vec<_>>().chunks(batch_len) {
                let batch: Vec<Heartbeat> = chunk.iter().map(|&i| hb(1, i)).collect();
                tx.push_batch(&batch, Timestamp::from_nanos(chunk[0]));
            }
            assert_eq!(rx.watch().dropped(), 12, "20 pushed into 8 slots");
            // The survivors are exactly the newest 8, in order.
            let got: Vec<u64> = std::iter::from_fn(|| rx.pop().map(|(h, _)| h.seq)).collect();
            assert_eq!(got, (12..20).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn push_batch_fifo_and_shared_stamp() {
        let (mut tx, mut rx) = heartbeat_ring(8);
        tx.push_batch(&[], Timestamp::from_secs(9)); // no-op
        assert!(rx.pop().is_none());
        let batch: Vec<Heartbeat> = (0..5u64).map(|i| hb(1, i)).collect();
        tx.push_batch(&batch, Timestamp::from_secs(42));
        tx.push_batch(&[hb(1, 5)], Timestamp::from_secs(43));
        for i in 0..6u64 {
            let (h, at) = rx.pop().expect("queued");
            assert_eq!(h.seq, i);
            assert_eq!(at, Timestamp::from_secs(42 + i / 5), "its batch's stamp");
        }
        assert!(rx.pop().is_none());
        assert_eq!(tx.watch().dropped(), 0);
    }

    #[test]
    fn push_batch_longer_than_ring_keeps_newest() {
        let (mut tx, mut rx) = heartbeat_ring(4);
        let batch: Vec<Heartbeat> = (0..11u64).map(|i| hb(2, i)).collect();
        tx.push_batch(&batch, Timestamp::ZERO);
        assert_eq!(tx.watch().dropped(), 7, "11 into 4 slots");
        let got: Vec<u64> = std::iter::from_fn(|| rx.pop().map(|(h, _)| h.seq)).collect();
        assert_eq!(got, vec![7, 8, 9, 10]);
    }

    #[test]
    fn push_batch_interleaved_with_pop_evicts_oldest() {
        let (mut tx, mut rx) = heartbeat_ring(4);
        tx.push_batch(&[hb(1, 0), hb(1, 1), hb(1, 2)], Timestamp::ZERO);
        assert_eq!(rx.pop().map(|(h, _)| h.seq), Some(0));
        // 2 unread + batch of 4 into 4 slots → evict the 2 unread.
        tx.push_batch(&[hb(1, 3), hb(1, 4), hb(1, 5), hb(1, 6)], Timestamp::ZERO);
        let got: Vec<u64> = std::iter::from_fn(|| rx.pop().map(|(h, _)| h.seq)).collect();
        assert_eq!(got, vec![3, 4, 5, 6]);
        assert_eq!(tx.watch().dropped(), 2);
    }

    #[test]
    fn cross_thread_push_batch_with_eviction_stays_consistent() {
        // Batched writes under sustained pressure on a tiny ring: every
        // popped frame must be internally consistent and seqs strictly
        // increasing — one tail advance per batch must never let a
        // consumer observe a torn or reordered entry.
        use std::sync::atomic::AtomicBool;
        let (mut tx, mut rx) = heartbeat_ring(8);
        const N: u64 = 96_000;
        let done = Arc::new(AtomicBool::new(false));
        let p_done = Arc::clone(&done);
        let producer = std::thread::spawn(move || {
            let mut batch = Vec::with_capacity(12);
            let mut i = 0u64;
            while i < N {
                batch.clear();
                // Vary batch sizes through the ring capacity, including
                // batches larger than the ring itself.
                let len = 1 + (i % 12);
                for _ in 0..len {
                    if i >= N {
                        break;
                    }
                    batch.push(hb(3, i));
                    i += 1;
                }
                tx.push_batch(&batch, Timestamp::from_nanos(batch[0].seq));
            }
            p_done.store(true, Ordering::Release);
            tx
        });
        let mut last: Option<u64> = None;
        let mut got = 0u64;
        loop {
            match rx.pop() {
                Some((h, at)) => {
                    assert_eq!(h.sent_at.as_nanos(), h.seq, "torn slot read");
                    assert!(at.as_nanos() <= h.seq, "stamp from a later batch");
                    if let Some(prev) = last {
                        assert!(h.seq > prev, "reordered: {} after {prev}", h.seq);
                    }
                    last = Some(h.seq);
                    got += 1;
                }
                None => {
                    if done.load(Ordering::Acquire) && rx.watch().is_empty() {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }
        }
        let tx = producer.join().expect("producer");
        assert_eq!(got + tx.watch().dropped(), N);
    }

    #[test]
    fn len_reads_no_more_than_is_queued_while_frames_pass_through() {
        // Regression: `len` loaded `tail`, then `head`. A consumer could
        // pop frames pushed after that `tail` load, moving `head` past
        // it; `tail − head` wrapped, and a ring that never held more than
        // a few entries read full.
        const DEPTH: u64 = 4;
        let frames: u64 = if cfg!(miri) { 200 } else { 400_000 };
        let (mut tx, mut rx) = heartbeat_ring(1024);
        let watch = tx.watch();
        let popped = AtomicU64::new(0);
        let done = std::sync::atomic::AtomicBool::new(false);
        let most = std::thread::scope(|s| {
            let (popped, done) = (&popped, &done);
            s.spawn(move || {
                for i in 0..frames {
                    // Frame `i` waits until frame `i − DEPTH` is popped, so
                    // at most DEPTH entries are ever queued.
                    while i - popped.load(Ordering::Acquire) >= DEPTH {
                        std::thread::yield_now();
                    }
                    tx.push_batch(&[hb(5, i)], Timestamp::from_nanos(i));
                }
            });
            s.spawn(move || {
                let mut got = 0;
                while got < frames {
                    if rx.pop().is_some() {
                        got += 1;
                        popped.store(got, Ordering::Release);
                    } else {
                        std::hint::spin_loop();
                    }
                }
                done.store(true, Ordering::Release);
            });
            let mut most = 0;
            while !done.load(Ordering::Acquire) {
                most = most.max(watch.len());
            }
            most
        });
        assert!(
            most <= DEPTH as usize,
            "read {most} queued of {} slots",
            watch.capacity()
        );
    }

    #[test]
    fn cross_thread_no_overflow_delivers_everything() {
        let (mut tx, mut rx) = heartbeat_ring(1 << 14);
        const N: u64 = 50_000;
        let producer = std::thread::spawn(move || {
            let watch = tx.watch();
            let capacity = watch.capacity();
            for i in 0..N {
                // Throttle below capacity so eviction never fires — on a
                // single-core host the producer can otherwise lap the
                // consumer by a full ring between preemptions.
                while watch.len() >= capacity - 1 {
                    std::thread::yield_now();
                }
                tx.push_batch(&[hb(7, i)], Timestamp::from_nanos(i));
            }
            tx
        });
        let mut next = 0u64;
        while next < N {
            if let Some((h, _)) = rx.pop() {
                assert_eq!(h.seq, next, "SPSC order violated");
                next += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        let tx = producer.join().expect("producer");
        assert_eq!(tx.watch().dropped(), 0);
        assert!(rx.pop().is_none());
    }
}
