//! Bounded single-producer/single-consumer heartbeat rings.
//!
//! The [`ParallelShardEngine`](crate::engine::ParallelShardEngine) routes
//! decoded heartbeats from one intake thread to one worker thread per
//! shard. Each route is a [`heartbeat_ring`]: a fixed-capacity ring of
//! atomic slots with the same plain-store-plus-fence discipline as the
//! epoch snapshots in [`shard`](crate::shard) — each slot is guarded by a
//! per-slot seqlock word, the producer publishes by a release store of
//! `tail`, and the consumer validates its reads against the slot seqlock
//! before claiming the entry. No unsafe code, no locks.
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
//! evict), so both advance it with a compare-exchange; the per-slot
//! seqlock protects a consumer that is mid-read of a slot being
//! overwritten — its validation fails, its head CAS fails, and it
//! retries at the new head. `tail` stays single-writer (plain stores).

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use afd_core::process::ProcessId;
use afd_core::time::Timestamp;

use crate::wire::Heartbeat;

/// One ring entry: the decoded heartbeat plus its arrival stamp, spread
/// over atomic words guarded by a per-slot seqlock.
struct RingSlot {
    /// Seqlock word: odd while the producer is writing this slot.
    wseq: AtomicU64,
    sender: AtomicU64,
    seq: AtomicU64,
    sent_at: AtomicU64,
    arrival: AtomicU64,
}

impl RingSlot {
    fn new() -> Self {
        RingSlot {
            wseq: AtomicU64::new(0),
            sender: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            sent_at: AtomicU64::new(0),
            arrival: AtomicU64::new(0),
        }
    }
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
    let slots: Box<[RingSlot]> = (0..cap).map(|_| RingSlot::new()).collect();
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

impl RingInner {
    fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.wrapping_sub(head).min(self.slots.len() as u64) as usize
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
    /// The seqlock protocol runs in three passes over the claimed
    /// slots: mark every slot mid-write (odd), release-fence, store
    /// every payload, release-fence, mark every slot done (even), then
    /// publish with a single release store of `tail`. A consumer that
    /// catches any slot of the batch mid-write sees an odd or changed
    /// seqlock word and retries.
    pub fn push_batch(&mut self, hbs: &[Heartbeat], arrival: Timestamp) {
        let inner = &*self.inner;
        let cap = inner.slots.len() as u64;
        // Older-than-the-ring entries can never be observed: drop them
        // up front instead of writing and immediately evicting them.
        let skip = hbs.len().saturating_sub(cap as usize);
        if skip > 0 {
            inner.dropped.store(
                inner
                    .dropped
                    .load(Ordering::Relaxed)
                    .wrapping_add(skip as u64),
                Ordering::Relaxed,
            );
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
                // Single-writer counter: a plain load+store is exact.
                inner.dropped.store(
                    inner.dropped.load(Ordering::Relaxed).wrapping_add(deficit),
                    Ordering::Relaxed,
                );
                break;
            }
        }
        // Pass 1: every claimed slot goes odd (mid-write) before any
        // payload store, so a late consumer of an evicted slot can
        // never validate a half-written batch entry.
        for i in 0..n {
            let slot = &inner.slots[(tail.wrapping_add(i) & inner.mask) as usize];
            let s = slot.wseq.load(Ordering::Relaxed);
            slot.wseq.store(s.wrapping_add(1), Ordering::Relaxed);
        }
        fence(Ordering::Release);
        // Pass 2: the payloads, all sharing the batch arrival stamp.
        for (i, hb) in hbs.iter().enumerate() {
            let slot = &inner.slots[(tail.wrapping_add(i as u64) & inner.mask) as usize];
            slot.sender
                .store(u64::from(hb.sender.as_u32()), Ordering::Relaxed);
            slot.seq.store(hb.seq, Ordering::Relaxed);
            slot.sent_at.store(hb.sent_at.as_nanos(), Ordering::Relaxed);
            slot.arrival.store(arrival.as_nanos(), Ordering::Relaxed);
        }
        fence(Ordering::Release);
        // Pass 3: seqlock exit (even) for every slot; the fence above
        // release-orders all payloads before these marks.
        for i in 0..n {
            let slot = &inner.slots[(tail.wrapping_add(i) & inner.mask) as usize];
            let s = slot.wseq.load(Ordering::Relaxed);
            slot.wseq.store(s.wrapping_add(1), Ordering::Relaxed);
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
            let s1 = slot.wseq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                // Producer is lapping this very slot (it must have
                // evicted first, so head has moved); retry from the top.
                std::hint::spin_loop();
                continue;
            }
            let sender = slot.sender.load(Ordering::Relaxed);
            let seq = slot.seq.load(Ordering::Relaxed);
            let sent_at = slot.sent_at.load(Ordering::Relaxed);
            let arrival = slot.arrival.load(Ordering::Relaxed);
            // Validate before claiming: if the seqlock moved, the
            // producer overwrote this slot mid-read (after evicting it),
            // and the head CAS below would fail anyway.
            fence(Ordering::Acquire);
            if slot.wseq.load(Ordering::Relaxed) != s1 {
                continue;
            }
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
        // increasing — one seqlock advance per batch must never let a
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
