//! Message-loss models.
//!
//! §5.4 of the paper motivates the κ framework with *bursts* of message
//! losses: independent (Bernoulli) loss and bursty loss behave very
//! differently for detectors that extrapolate from the last arrival. The
//! Gilbert–Elliott two-state chain is the standard burst-loss model and is
//! what experiment E8 sweeps.

use crate::error::{check_probability, ModelError};
use crate::rng::SimRng;

/// A model deciding, per message, whether the network drops it.
pub trait LossModel {
    /// `true` if the next message is lost.
    fn is_lost(&mut self, rng: &mut SimRng) -> bool;
}

impl<L: LossModel + ?Sized> LossModel for Box<L> {
    fn is_lost(&mut self, rng: &mut SimRng) -> bool {
        (**self).is_lost(rng)
    }
}

/// No message is ever lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoLoss;

impl LossModel for NoLoss {
    fn is_lost(&mut self, _rng: &mut SimRng) -> bool {
        false
    }
}

/// Each message is lost independently with probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BernoulliLoss {
    p: f64,
}

impl BernoulliLoss {
    /// Creates an independent-loss model.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or not in `[0, 1]`; use [`try_new`](Self::try_new)
    /// to handle that as a value instead.
    pub fn new(p: f64) -> Self {
        Self::try_new(p).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an independent-loss model, rejecting NaN and out-of-range
    /// probabilities with a typed error.
    pub fn try_new(p: f64) -> Result<Self, ModelError> {
        Ok(BernoulliLoss {
            p: check_probability("loss probability", p)?,
        })
    }

    /// The per-message loss probability.
    pub fn probability(&self) -> f64 {
        self.p
    }
}

impl LossModel for BernoulliLoss {
    fn is_lost(&mut self, rng: &mut SimRng) -> bool {
        rng.bernoulli(self.p)
    }
}

/// The channel state of a [`GilbertElliottLoss`] model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelState {
    /// Low-loss state.
    Good,
    /// High-loss (burst) state.
    Bad,
}

/// The Gilbert–Elliott two-state burst-loss model.
///
/// The channel alternates between a *good* state (loss probability
/// `loss_good`, usually ≈ 0) and a *bad* state (loss probability
/// `loss_bad`, usually ≈ 1). Transitions happen per message with
/// probabilities `p_good_to_bad` and `p_bad_to_good`; the expected burst
/// length is `1 / p_bad_to_good` messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliottLoss {
    p_good_to_bad: f64,
    p_bad_to_good: f64,
    loss_good: f64,
    loss_bad: f64,
    state: ChannelState,
}

impl GilbertElliottLoss {
    /// Creates the model, starting in the good state.
    ///
    /// # Panics
    ///
    /// Panics if any probability is NaN or outside `[0, 1]`; use
    /// [`try_new`](Self::try_new) to handle that as a value instead.
    pub fn new(p_good_to_bad: f64, p_bad_to_good: f64, loss_good: f64, loss_bad: f64) -> Self {
        Self::try_new(p_good_to_bad, p_bad_to_good, loss_good, loss_bad)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates the model, rejecting NaN and out-of-range probabilities with
    /// a typed error.
    pub fn try_new(
        p_good_to_bad: f64,
        p_bad_to_good: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> Result<Self, ModelError> {
        Ok(GilbertElliottLoss {
            p_good_to_bad: check_probability("p_good_to_bad", p_good_to_bad)?,
            p_bad_to_good: check_probability("p_bad_to_good", p_bad_to_good)?,
            loss_good: check_probability("loss_good", loss_good)?,
            loss_bad: check_probability("loss_bad", loss_bad)?,
            state: ChannelState::Good,
        })
    }

    /// A convenient burst parameterization: bursts begin with probability
    /// `burst_start` per message, last `mean_burst_len` messages on
    /// average, and drop everything while active.
    ///
    /// # Panics
    ///
    /// Panics if `burst_start` is NaN or outside `[0, 1]`, or if
    /// `mean_burst_len` is NaN or below 1; use
    /// [`try_bursts`](Self::try_bursts) to handle that as a value instead.
    pub fn bursts(burst_start: f64, mean_burst_len: f64) -> Self {
        Self::try_bursts(burst_start, mean_burst_len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The burst parameterization of [`bursts`](Self::bursts), rejecting bad
    /// parameters with a typed error.
    pub fn try_bursts(burst_start: f64, mean_burst_len: f64) -> Result<Self, ModelError> {
        if mean_burst_len.is_nan() || mean_burst_len < 1.0 {
            return Err(ModelError::BurstLengthTooShort {
                value: mean_burst_len,
            });
        }
        GilbertElliottLoss::try_new(burst_start, 1.0 / mean_burst_len, 0.0, 1.0)
    }

    /// The current channel state.
    pub fn state(&self) -> ChannelState {
        self.state
    }

    /// The stationary probability of being in the bad state.
    pub fn stationary_bad(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        // lint:allow(no-float-eq, exact zero guard against division by zero)
        if denom == 0.0 {
            0.0
        } else {
            self.p_good_to_bad / denom
        }
    }
}

impl LossModel for GilbertElliottLoss {
    fn is_lost(&mut self, rng: &mut SimRng) -> bool {
        // Transition first, then apply the new state's loss probability.
        self.state = match self.state {
            ChannelState::Good if rng.bernoulli(self.p_good_to_bad) => ChannelState::Bad,
            ChannelState::Bad if rng.bernoulli(self.p_bad_to_good) => ChannelState::Good,
            s => s,
        };
        let p = match self.state {
            ChannelState::Good => self.loss_good,
            ChannelState::Bad => self.loss_bad,
        };
        rng.bernoulli(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(23)
    }

    #[test]
    fn no_loss_never_drops() {
        let mut m = NoLoss;
        let mut r = rng();
        assert!((0..100).all(|_| !m.is_lost(&mut r)));
    }

    #[test]
    fn bernoulli_matches_rate() {
        let mut m = BernoulliLoss::new(0.2);
        let mut r = rng();
        let losses = (0..50_000).filter(|_| m.is_lost(&mut r)).count();
        let rate = losses as f64 / 50_000.0;
        assert!((rate - 0.2).abs() < 0.01, "rate = {rate}");
        assert_eq!(m.probability(), 0.2);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn bernoulli_rejects_bad_probability() {
        let _ = BernoulliLoss::new(1.5);
    }

    #[test]
    fn try_constructors_reject_nan_and_out_of_range() {
        use crate::error::ModelError;

        for bad in [f64::NAN, -0.5, 2.0] {
            assert!(matches!(
                BernoulliLoss::try_new(bad),
                Err(ModelError::ProbabilityOutOfRange {
                    name: "loss probability",
                    ..
                })
            ));
            assert!(matches!(
                GilbertElliottLoss::try_new(0.1, bad, 0.0, 1.0),
                Err(ModelError::ProbabilityOutOfRange {
                    name: "p_bad_to_good",
                    ..
                })
            ));
            assert!(matches!(
                GilbertElliottLoss::try_bursts(bad, 5.0),
                Err(ModelError::ProbabilityOutOfRange {
                    name: "p_good_to_bad",
                    ..
                })
            ));
        }
        for bad_len in [f64::NAN, 0.0, 0.99] {
            assert!(matches!(
                GilbertElliottLoss::try_bursts(0.1, bad_len),
                Err(ModelError::BurstLengthTooShort { .. })
            ));
        }
        assert!(BernoulliLoss::try_new(0.2).is_ok());
        assert!(GilbertElliottLoss::try_bursts(0.02, 1.0).is_ok());
    }

    #[test]
    fn gilbert_elliott_matches_stationary_rate() {
        let mut m = GilbertElliottLoss::new(0.05, 0.25, 0.0, 1.0);
        let expect = m.stationary_bad(); // 0.05 / 0.30 ≈ 0.1667 of messages lost
        let mut r = rng();
        let losses = (0..100_000).filter(|_| m.is_lost(&mut r)).count();
        let rate = losses as f64 / 100_000.0;
        assert!(
            (rate - expect).abs() < 0.01,
            "rate = {rate}, expect {expect}"
        );
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Compare run-length distribution against Bernoulli at the same
        // overall rate: mean loss-run length must be much larger.
        let mut ge = GilbertElliottLoss::bursts(0.02, 10.0);
        let rate = ge.stationary_bad();
        let mut be = BernoulliLoss::new(rate);
        let mut r1 = SimRng::seed_from_u64(31);
        let mut r2 = SimRng::seed_from_u64(37);

        fn mean_run(mut f: impl FnMut() -> bool, n: usize) -> f64 {
            let (mut runs, mut losses, mut in_run) = (0u64, 0u64, false);
            for _ in 0..n {
                let lost = f();
                if lost {
                    losses += 1;
                    if !in_run {
                        runs += 1;
                        in_run = true;
                    }
                } else {
                    in_run = false;
                }
            }
            if runs == 0 {
                0.0
            } else {
                losses as f64 / runs as f64
            }
        }

        let ge_run = mean_run(|| ge.is_lost(&mut r1), 200_000);
        let be_run = mean_run(|| be.is_lost(&mut r2), 200_000);
        assert!(
            ge_run > 3.0 * be_run,
            "expected bursty runs: GE {ge_run:.2} vs Bernoulli {be_run:.2}"
        );
    }

    #[test]
    fn burst_constructor_drops_everything_in_burst() {
        let m = GilbertElliottLoss::bursts(0.01, 5.0);
        assert_eq!(m.state(), ChannelState::Good);
        assert!((m.stationary_bad() - 0.01 / 0.21).abs() < 1e-12);
    }

    #[test]
    fn boxed_model_forwards() {
        let mut m: Box<dyn LossModel> = Box::new(NoLoss);
        assert!(!m.is_lost(&mut rng()));
    }
}
