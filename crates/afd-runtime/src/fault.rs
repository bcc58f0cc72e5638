//! A composable, seeded fault injector over any [`Transport`].
//!
//! Wraps a transport's *receive* side and applies a reproducible schedule
//! of network mischief: drop (Bernoulli or Gilbert–Elliott bursts, reusing
//! `afd-sim`'s loss models), duplicate, delay/reorder, corrupt, and timed
//! partitions. All randomness comes from one [`SimRng`] stream, so a given
//! `(plan, seed)` produces the identical fault schedule on every run —
//! chaos tests are replayable bit-for-bit.
//!
//! Faults are applied when frames are *pulled* from the inner transport:
//! every [`recv_batch`](Transport::recv_batch) first drains the medium
//! through the plan into a staging heap keyed by virtual delivery time,
//! then releases the frames whose time has come — which is also how
//! reordering arises (a delayed frame is overtaken by later ones). A
//! failure of the inner transport never strands what was already staged:
//! due frames are released first, and the error surfaces only from a call
//! that had nothing to deliver.

use std::cmp::Ordering as CmpOrdering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use afd_core::time::{Duration, Timestamp};
use afd_sim::delay::DelayModel;
use afd_sim::loss::LossModel;
use afd_sim::rng::SimRng;
use afd_sim::scenario::{Effect, LinkAt, Phase};

use crate::clock::Clock;
use crate::error::TransportError;
use crate::transport::{FrameBatch, Transport};

/// What faults to inject, and when.
///
/// The default plan injects nothing; chain the builder methods to add
/// faults. Loss and delay models are the `afd-sim` traits, so anything the
/// simulator can model, the live runtime can suffer.
pub struct FaultPlan {
    loss: Option<Box<dyn LossModel + Send>>,
    delay: Option<Box<dyn DelayModel + Send>>,
    duplicate: f64,
    corrupt: f64,
    /// The partitions, as [`Effect::LinkCut`] phases: the same windows a
    /// simulated [`Scenario`](afd_sim::scenario::Scenario) lists, read by
    /// the same lookup.
    phases: Vec<Phase>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("loss", &self.loss.is_some())
            .field("delay", &self.delay.is_some())
            .field("duplicate", &self.duplicate)
            .field("corrupt", &self.corrupt)
            .field("phases", &self.phases)
            .finish()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            loss: None,
            delay: None,
            duplicate: 0.0,
            corrupt: 0.0,
            phases: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Drops frames per `model` (e.g. `BernoulliLoss`, `GilbertElliottLoss`).
    pub fn with_loss(mut self, model: impl LossModel + Send + 'static) -> Self {
        self.loss = Some(Box::new(model));
        self
    }

    /// Delays frames per `model`; delayed frames may be overtaken
    /// (reordering).
    pub fn with_delay(mut self, model: impl DelayModel + Send + 'static) -> Self {
        self.delay = Some(Box::new(model));
        self
    }

    /// Duplicates each delivered frame with probability `p` (the copy gets
    /// its own delay sample). Panics if `p` is NaN or outside `[0, 1]`.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = probability("duplicate probability", p);
        self
    }

    /// Flips one random byte of a frame with probability `p`. Panics if
    /// `p` is NaN or outside `[0, 1]`.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = probability("corrupt probability", p);
        self
    }

    /// Drops *everything* received during `[from, to)` — a network
    /// partition between the peers.
    pub fn with_partition(mut self, from: Timestamp, to: Timestamp) -> Self {
        self.phases.push(Phase {
            from,
            to,
            effect: Effect::LinkCut,
        });
        self
    }
}

/// `p`, checked to be a probability: NaN and values outside `[0, 1]` are
/// rejected as afd-sim's loss models reject them.
fn probability(name: &str, p: f64) -> f64 {
    // `contains` is false for NaN, so NaN is rejected here too.
    assert!(
        (0.0..=1.0).contains(&p),
        "{name} must be in [0, 1], got {p}"
    );
    p
}

/// Counters describing what the injector actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames passed through to the consumer.
    pub delivered: u64,
    /// Frames dropped by the loss model.
    pub dropped_loss: u64,
    /// Frames dropped inside a partition window.
    pub dropped_partition: u64,
    /// Extra copies injected.
    pub duplicated: u64,
    /// Frames with a flipped byte.
    pub corrupted: u64,
}

struct Staged {
    deliver_at: u64,
    tie: u64,
    frame: Vec<u8>,
}

impl PartialEq for Staged {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.tie == other.tie
    }
}
impl Eq for Staged {}
impl PartialOrd for Staged {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Staged {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // BinaryHeap is a max-heap; invert so the earliest delivery wins.
        (other.deliver_at, other.tie).cmp(&(self.deliver_at, self.tie))
    }
}

/// Slots in the private arena the inner transport is drained through
/// (the drain repeats until the medium is empty, so this bounds memory,
/// not throughput).
const PULL_SLOTS: usize = 64;

/// A [`Transport`] wrapper injecting a seeded fault schedule on receive.
pub struct FaultInjector<T, C> {
    inner: T,
    clock: C,
    /// Reusable arena the inner transport is drained through.
    pulled: FrameBatch,
    schedule: Schedule,
}

impl<T, C> std::fmt::Debug for FaultInjector<T, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.schedule.plan)
            .field("staged", &self.schedule.staged.len())
            .field("stats", &self.schedule.stats)
            .finish_non_exhaustive()
    }
}

impl<T: Transport, C: Clock> FaultInjector<T, C> {
    /// Wraps `inner`, applying `plan` with randomness seeded by `seed`.
    pub fn new(inner: T, clock: C, plan: FaultPlan, seed: u64) -> Self {
        FaultInjector {
            inner,
            clock,
            pulled: FrameBatch::with_capacity(PULL_SLOTS),
            schedule: Schedule {
                plan,
                rng: SimRng::seed_from_u64(seed),
                staged: BinaryHeap::new(),
                tie: 0,
                stats: FaultStats::default(),
            },
        }
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> FaultStats {
        self.schedule.stats
    }

    /// Frames currently held back waiting for their delivery time.
    pub fn in_flight(&self) -> usize {
        self.schedule.staged.len()
    }

    /// Publishes the injector counters into `registry` under `fault.*`.
    pub fn export_metrics(&self, registry: &afd_obs::Registry) {
        let stats = self.schedule.stats;
        registry.counter("fault.delivered").set(stats.delivered);
        registry
            .counter("fault.dropped_loss")
            .set(stats.dropped_loss);
        registry
            .counter("fault.dropped_partition")
            .set(stats.dropped_partition);
        registry.counter("fault.duplicated").set(stats.duplicated);
        registry.counter("fault.corrupted").set(stats.corrupted);
        registry
            .gauge("fault.in_flight")
            .set(self.in_flight() as f64);
    }
}

/// The plan, its random stream, and the frames it is holding back.
struct Schedule {
    plan: FaultPlan,
    rng: SimRng,
    staged: BinaryHeap<Staged>,
    tie: u64,
    stats: FaultStats,
}

impl Schedule {
    /// Runs one pulled frame through the plan at time `now`.
    fn stage(&mut self, frame: &[u8], now: Timestamp) {
        // The plan's phases are partitions alone: no send jitter to carry.
        if LinkAt::of(&self.plan.phases, now, Duration::ZERO).cut {
            self.stats.dropped_partition += 1;
            return;
        }
        if let Some(loss) = &mut self.plan.loss {
            if loss.is_lost(&mut self.rng) {
                self.stats.dropped_loss += 1;
                return;
            }
        }
        let copies = if self.plan.duplicate > 0.0 && self.rng.bernoulli(self.plan.duplicate) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let deliver_at = match &mut self.plan.delay {
                Some(delay) => now + delay.sample(&mut self.rng),
                None => now,
            };
            let mut frame = frame.to_vec();
            if self.plan.corrupt > 0.0 && self.rng.bernoulli(self.plan.corrupt) {
                if !frame.is_empty() {
                    let i = self.rng.index(frame.len());
                    frame[i] ^= 0xFF;
                }
                self.stats.corrupted += 1;
            }
            self.tie += 1;
            self.staged.push(Staged {
                deliver_at: deliver_at.as_nanos(),
                tie: self.tie,
                frame,
            });
        }
    }

    /// Moves staged frames due at `now` into `batch`, earliest first,
    /// until it fills; returns how many were released.
    fn release_due(&mut self, batch: &mut FrameBatch, now: Timestamp) -> usize {
        let mut released = 0usize;
        while let Some(next) = self.staged.peek_mut() {
            if next.deliver_at > now.as_nanos() || batch.is_full() {
                break;
            }
            // Staged frames came out of a `FrameBatch`, so they fit a slot.
            released += usize::from(batch.push(&PeekMut::pop(next).frame));
        }
        self.stats.delivered += released as u64;
        released
    }

    fn has_due(&self, now: Timestamp) -> bool {
        self.staged
            .peek()
            .is_some_and(|next| next.deliver_at <= now.as_nanos())
    }
}

impl<T: Transport, C: Clock> Transport for FaultInjector<T, C> {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        // Faults are modeled on the receive path only; sends pass through.
        self.inner.send(frame)
    }

    fn recv_batch(&mut self, batch: &mut FrameBatch) -> Result<usize, TransportError> {
        let now = self.clock.now();
        // Pull everything the medium has and run it through the plan. A
        // failing medium ends the pull but not the call: what it
        // surrendered before failing is staged like any other frame.
        let mut pull = Ok(());
        loop {
            self.pulled.clear();
            let outcome = self.inner.recv_batch(&mut self.pulled);
            for frame in self.pulled.iter() {
                self.schedule.stage(frame, now);
            }
            match outcome {
                // A full arena means the medium may hold more.
                Ok(_) if self.pulled.is_full() => {}
                Ok(_) => break,
                Err(fault) => {
                    pull = Err(fault);
                    break;
                }
            }
        }
        let released = self.schedule.release_due(batch, now);
        if released == 0 && !self.schedule.has_due(now) {
            pull?;
        }
        Ok(released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::transport::{drain_frames, ChannelTransport};
    use afd_core::time::Duration;
    use afd_sim::delay::ConstantDelay;
    use afd_sim::loss::BernoulliLoss;

    fn rig(
        plan: FaultPlan,
        seed: u64,
    ) -> (
        ChannelTransport,
        FaultInjector<ChannelTransport, VirtualClock>,
        VirtualClock,
    ) {
        let (a, b) = ChannelTransport::pair();
        let clock = VirtualClock::new();
        let inj = FaultInjector::new(b, clock.clone(), plan, seed);
        (a, inj, clock)
    }

    #[test]
    fn clean_plan_passes_everything_through() {
        let (mut tx, mut rx, _clock) = rig(FaultPlan::new(), 1);
        for k in 0..10u8 {
            tx.send(&[k]).unwrap();
        }
        let got: Vec<u8> = drain_frames(&mut rx).iter().map(|f| f[0]).collect();
        assert_eq!(got, (0..10).collect::<Vec<u8>>());
        assert_eq!(rx.stats().delivered, 10);
    }

    #[test]
    fn total_loss_drops_everything() {
        let (mut tx, mut rx, _clock) = rig(FaultPlan::new().with_loss(BernoulliLoss::new(1.0)), 2);
        for _ in 0..50 {
            tx.send(b"x").unwrap();
        }
        assert!(drain_frames(&mut rx).is_empty());
        assert_eq!(rx.stats().dropped_loss, 50);
    }

    #[test]
    fn partition_window_drops_then_heals() {
        let plan =
            FaultPlan::new().with_partition(Timestamp::from_secs(10), Timestamp::from_secs(20));
        let (mut tx, mut rx, clock) = rig(plan, 3);

        clock.set(Timestamp::from_secs(5));
        tx.send(b"before").unwrap();
        assert_eq!(drain_frames(&mut rx), vec![b"before".to_vec()]);

        clock.set(Timestamp::from_secs(15));
        tx.send(b"inside").unwrap();
        assert!(drain_frames(&mut rx).is_empty());

        clock.set(Timestamp::from_secs(25));
        tx.send(b"after").unwrap();
        assert_eq!(drain_frames(&mut rx), vec![b"after".to_vec()]);
        assert_eq!(rx.stats().dropped_partition, 1);
    }

    #[test]
    fn delay_holds_frames_until_due() {
        let plan = FaultPlan::new().with_delay(ConstantDelay::new(Duration::from_secs(2)));
        let (mut tx, mut rx, clock) = rig(plan, 4);
        tx.send(b"slow").unwrap();
        assert!(drain_frames(&mut rx).is_empty(), "not due yet");
        assert_eq!(rx.in_flight(), 1);
        clock.advance(Duration::from_secs(3));
        assert_eq!(drain_frames(&mut rx), vec![b"slow".to_vec()]);
    }

    #[test]
    fn probabilities_outside_the_unit_interval_are_rejected() {
        type Builder = fn(FaultPlan, f64) -> FaultPlan;
        let builders: [(&str, Builder); 2] = [
            ("duplicate probability", FaultPlan::with_duplicate),
            ("corrupt probability", FaultPlan::with_corrupt),
        ];
        for (name, build) in builders {
            for p in [f64::NAN, -0.1, 1.5] {
                let err = std::panic::catch_unwind(|| build(FaultPlan::new(), p))
                    .expect_err("an out-of-range probability must be rejected");
                let message = err.downcast_ref::<String>().unwrap();
                assert!(message.contains(name), "{message}");
            }
        }
    }

    #[test]
    fn duplication_and_corruption_are_counted() {
        let plan = FaultPlan::new().with_duplicate(1.0).with_corrupt(1.0);
        let (mut tx, mut rx, _clock) = rig(plan, 5);
        tx.send(&[0x00, 0x00]).unwrap();
        let copies = drain_frames(&mut rx);
        assert_eq!(copies.len(), 2, "original and duplicate");
        for copy in &copies {
            assert_eq!(copy.len(), 2);
            // Corruption flips one byte of each copy.
            assert!(copy.contains(&0xFF));
        }
        let stats = rx.stats();
        assert_eq!(stats.duplicated, 1);
        assert_eq!(stats.corrupted, 2);
        assert_eq!(stats.delivered, 2);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let (mut tx, mut rx, _clock) =
                rig(FaultPlan::new().with_loss(BernoulliLoss::new(0.5)), seed);
            for k in 0..100u8 {
                tx.send(&[k]).unwrap();
            }
            drain_frames(&mut rx)
                .iter()
                .map(|f| f[0])
                .collect::<Vec<u8>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
    }

    /// Regression: the pull loop used to `?` the inner transport's error
    /// before surfacing anything, so frames a sender got out before dying
    /// were stranded in the staging heap on that call and every later one.
    #[test]
    fn disconnect_does_not_strand_staged_frames() {
        let delay = Duration::from_secs(2);
        for delayed in [false, true] {
            let plan = if delayed {
                FaultPlan::new().with_delay(ConstantDelay::new(delay))
            } else {
                FaultPlan::new()
            };
            let (mut tx, mut rx, clock) = rig(plan, 6);
            tx.send(b"last").unwrap();
            tx.send(b"words").unwrap();
            drop(tx);

            let mut batch = FrameBatch::with_capacity(8);
            if delayed {
                // Pulled and held back; the medium still had frames, so
                // it has not reported its dead peer yet.
                assert_eq!(rx.recv_batch(&mut batch), Ok(0));
                assert_eq!(rx.in_flight(), 2);
                clock.advance(delay);
            }
            // The pull may now fail, but what is due comes out first.
            assert_eq!(rx.recv_batch(&mut batch), Ok(2));
            let got: Vec<&[u8]> = batch.iter().collect();
            assert_eq!(got, [&b"last"[..], &b"words"[..]]);
            assert_eq!(rx.stats().delivered, 2);
            assert_eq!(rx.in_flight(), 0);
            batch.clear();
            assert_eq!(
                rx.recv_batch(&mut batch),
                Err(TransportError::Disconnected),
                "drained and dead: the error surfaces"
            );
        }
    }
}
