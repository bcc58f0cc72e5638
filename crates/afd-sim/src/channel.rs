//! A unidirectional message channel: loss, delay, and pre-GST chaos.

use afd_core::time::{Duration, Timestamp};

use crate::delay::DelayModel;
use crate::loss::LossModel;
use crate::rng::SimRng;

/// Pre-GST chaos (Appendix A.4): extra independent loss and extra uniform
/// delay on top of a channel's own, for the messages a chaos
/// [`Phase`](crate::scenario::Phase) covers.
///
/// Before the global stabilization time, message delays and losses are
/// unbounded in the model; a chaos phase `[0, GST)` approximates that, and
/// after it the channel's base models apply unchanged, giving the bounded
/// `Δ` the proofs use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chaos {
    /// Extra independent loss probability.
    pub loss: f64,
    /// Maximum extra delay, drawn uniformly below it.
    pub max_extra_delay: Duration,
}

impl Chaos {
    /// Creates the chaos of a pre-GST phase.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    pub fn new(loss: f64, max_extra_delay: Duration) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss),
            "chaos loss must be in [0, 1], got {loss}"
        );
        Chaos {
            loss,
            max_extra_delay,
        }
    }
}

/// A unidirectional channel combining a delay model and a loss model.
///
/// # Examples
///
/// ```
/// use afd_core::time::{Duration, Timestamp};
/// use afd_sim::channel::Channel;
/// use afd_sim::delay::ConstantDelay;
/// use afd_sim::loss::NoLoss;
/// use afd_sim::rng::SimRng;
///
/// let mut ch = Channel::new(ConstantDelay::new(Duration::from_millis(10)), NoLoss);
/// let mut rng = SimRng::seed_from_u64(1);
/// let arrival = ch.transmit(Timestamp::from_secs(1), &mut rng);
/// assert_eq!(arrival, Some(Timestamp::from_secs(1) + Duration::from_millis(10)));
/// ```
#[derive(Debug, Clone)]
pub struct Channel<D, L> {
    delay: D,
    loss: L,
}

impl<D: DelayModel, L: LossModel> Channel<D, L> {
    /// Creates a channel with the given delay and loss models.
    pub fn new(delay: D, loss: L) -> Self {
        Channel { delay, loss }
    }

    /// Transmits a message sent at `sent_at`; returns its arrival time, or
    /// `None` if the network drops it.
    pub fn transmit(&mut self, sent_at: Timestamp, rng: &mut SimRng) -> Option<Timestamp> {
        if self.loss.is_lost(rng) {
            return None;
        }
        let delay = self.delay.sample(rng);
        Some(sent_at + delay)
    }

    /// Transmits a message sent at `sent_at` through `chaos` first: its
    /// loss, then its extra delay, are drawn before the channel's own.
    pub fn transmit_chaotic(
        &mut self,
        sent_at: Timestamp,
        chaos: Chaos,
        rng: &mut SimRng,
    ) -> Option<Timestamp> {
        if rng.bernoulli(chaos.loss) {
            return None;
        }
        let max = chaos.max_extra_delay.as_secs_f64();
        let extra = Duration::from_secs_f64(rng.uniform_in(0.0, max.max(f64::MIN_POSITIVE)));
        self.transmit(sent_at, rng).map(|at| at + extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{ConstantDelay, NormalDelay};
    use crate::engine::simulate;
    use crate::loss::{BernoulliLoss, NoLoss};
    use crate::scenario::{DelayKind, Effect, LossKind, Scenario};
    use crate::trace::HeartbeatRecord;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(3)
    }

    #[test]
    fn lossless_constant_channel_is_deterministic() {
        let mut ch = Channel::new(ConstantDelay::new(Duration::from_millis(5)), NoLoss);
        let mut r = rng();
        for s in 0..10u64 {
            let sent = Timestamp::from_secs(s);
            assert_eq!(
                ch.transmit(sent, &mut r),
                Some(sent + Duration::from_millis(5))
            );
        }
    }

    #[test]
    fn lossy_channel_drops_at_rate() {
        let mut ch = Channel::new(
            ConstantDelay::new(Duration::from_millis(5)),
            BernoulliLoss::new(0.3),
        );
        let mut r = rng();
        let delivered = (0..20_000)
            .filter(|_| ch.transmit(Timestamp::from_secs(1), &mut r).is_some())
            .count();
        let rate = delivered as f64 / 20_000.0;
        assert!((rate - 0.7).abs() < 0.02, "delivery rate = {rate}");
    }

    #[test]
    fn pre_gst_chaos_vanishes_after_gst() {
        let gst = Timestamp::from_secs(100);
        let scenario = Scenario {
            heartbeat_interval: Duration::from_millis(10),
            send_jitter_std: Duration::ZERO,
            delay: DelayKind::Constant(ConstantDelay::new(Duration::from_millis(10))),
            loss: LossKind::None(NoLoss),
            ..Scenario::lan()
        }
        .with_horizon(Timestamp::from_secs(110))
        .with_phase(
            Timestamp::ZERO,
            gst,
            Effect::Chaos(Chaos::new(0.5, Duration::from_secs(5))),
        );
        let trace = simulate(&scenario, 3);
        let (before, after): (Vec<&HeartbeatRecord>, _) =
            trace.records().iter().partition(|r| r.sent_at < gst);

        // Before GST: extra delay and loss both visible.
        let mut lost = 0;
        let mut max_delay = Duration::ZERO;
        for r in before.iter().take(2000) {
            match r.delivered_at {
                None => lost += 1,
                Some(arrival) => max_delay = max_delay.max(arrival - r.sent_at),
            }
        }
        assert!(lost > 800, "pre-GST loss should be ~50%, saw {lost}/2000");
        assert!(
            max_delay > Duration::from_secs(1),
            "expected inflated delays"
        );

        // After GST: deterministic again.
        assert!(!after.is_empty());
        for r in after {
            assert_eq!(r.delivered_at, Some(r.sent_at + Duration::from_millis(10)));
        }
    }

    #[test]
    fn arrival_order_can_invert_with_jitter() {
        // With large jitter relative to spacing, a later send can arrive
        // earlier — the reordering Algorithm 4's sequence check handles.
        let mut ch = Channel::new(
            NormalDelay::new(
                Duration::from_millis(100),
                Duration::from_millis(80),
                Duration::from_millis(1),
            ),
            NoLoss,
        );
        let mut r = rng();
        let mut inversions = 0;
        let mut prev_arrival: Option<Timestamp> = None;
        for k in 0..1000u64 {
            let sent = Timestamp::from_millis(10 * k);
            let arrival = ch.transmit(sent, &mut r).unwrap();
            if let Some(p) = prev_arrival {
                if arrival < p {
                    inversions += 1;
                }
            }
            prev_arrival = Some(arrival);
        }
        assert!(inversions > 0, "expected at least one reordering");
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn partial_synchrony_validates_loss() {
        let _ = Chaos::new(2.0, Duration::ZERO);
    }
}
