//! Declarative run configurations.
//!
//! A [`Scenario`] fully describes one monitored pair's environment: the
//! heartbeat protocol, the network (delay, loss, partitions and optional
//! pre-GST chaos), the two local clocks, the sender's outages, and an
//! optional crash. Being a plain value, it can be swept by the experiment
//! harness and reproduced exactly from `(scenario, seed)`.

use afd_core::time::{Duration, Timestamp};

use crate::channel::PartialSynchrony;
use crate::clock::DriftingClock;
use crate::delay::{ConstantDelay, DelayModel, NormalDelay, ShiftedExponentialDelay, UniformDelay};
use crate::loss::{BernoulliLoss, GilbertElliottLoss, LossModel, NoLoss};
use crate::rng::SimRng;

/// The delay model choices a scenario can name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayKind {
    /// Fixed delay.
    Constant(ConstantDelay),
    /// Uniform jitter.
    Uniform(UniformDelay),
    /// Truncated-normal jitter.
    Normal(NormalDelay),
    /// Base plus exponential excess.
    ShiftedExponential(ShiftedExponentialDelay),
}

impl DelayModel for DelayKind {
    fn sample(&mut self, rng: &mut SimRng) -> Duration {
        match self {
            DelayKind::Constant(m) => m.sample(rng),
            DelayKind::Uniform(m) => m.sample(rng),
            DelayKind::Normal(m) => m.sample(rng),
            DelayKind::ShiftedExponential(m) => m.sample(rng),
        }
    }
}

/// The loss model choices a scenario can name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossKind {
    /// No loss.
    None(NoLoss),
    /// Independent loss.
    Bernoulli(BernoulliLoss),
    /// Bursty (Gilbert–Elliott) loss.
    GilbertElliott(GilbertElliottLoss),
}

impl LossModel for LossKind {
    fn is_lost(&mut self, rng: &mut SimRng) -> bool {
        match self {
            LossKind::None(m) => m.is_lost(rng),
            LossKind::Bernoulli(m) => m.is_lost(rng),
            LossKind::GilbertElliott(m) => m.is_lost(rng),
        }
    }
}

/// A complete monitored-pair run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Nominal heartbeat interval (on the sender's clock).
    pub heartbeat_interval: Duration,
    /// Standard deviation of normal jitter on heartbeat *send* times.
    pub send_jitter_std: Duration,
    /// The network delay model.
    pub delay: DelayKind,
    /// The network loss model.
    pub loss: LossKind,
    /// Pre-GST chaos, if modelling partial synchrony explicitly.
    pub partial_synchrony: Option<PartialSynchrony>,
    /// The sender's local clock.
    pub sender_clock: DriftingClock,
    /// The monitor's local clock.
    pub monitor_clock: DriftingClock,
    /// Global time at which the sender crashes for good, if it does.
    pub crash_at: Option<Timestamp>,
    /// Link partitions `[from, to)` in global time: a heartbeat sent
    /// inside one is lost, and the loss model draws nothing for it.
    pub partitions: Vec<(Timestamp, Timestamp)>,
    /// Sender outages `[from, to)` in global time, each a crash followed
    /// by a recovery: nothing is sent inside one, and the next heartbeat
    /// goes out at `to` with the next sequence number.
    pub outages: Vec<(Timestamp, Timestamp)>,
    /// End of the run (global time).
    pub horizon: Timestamp,
}

impl Scenario {
    /// A quiet LAN: 100 ms heartbeats, ~1 ms delay with small jitter, no
    /// loss, perfect clocks, 60 s horizon.
    pub fn lan() -> Self {
        Scenario {
            heartbeat_interval: Duration::from_millis(100),
            send_jitter_std: Duration::from_millis(1),
            delay: DelayKind::Normal(NormalDelay::new(
                Duration::from_millis(1),
                Duration::from_micros(200),
                Duration::from_micros(100),
            )),
            loss: LossKind::None(NoLoss),
            partial_synchrony: None,
            sender_clock: DriftingClock::perfect(),
            monitor_clock: DriftingClock::perfect(),
            crash_at: None,
            partitions: Vec::new(),
            outages: Vec::new(),
            horizon: Timestamp::from_secs(60),
        }
    }

    /// An ideal link: 1 s heartbeats delivered at once, no loss, no send
    /// jitter, perfect clocks, 60 s horizon. The baseline a chaos run adds
    /// its faults to, one at a time.
    pub fn ideal() -> Self {
        Scenario {
            heartbeat_interval: Duration::from_secs(1),
            send_jitter_std: Duration::ZERO,
            delay: DelayKind::Constant(ConstantDelay::new(Duration::ZERO)),
            ..Scenario::lan()
        }
    }

    /// A jittery WAN: 1 s heartbeats, 100 ms mean delay with 40 ms normal
    /// jitter, 1% independent loss, 10-minute horizon. This is the regime
    /// where the adaptive detectors of §5.2–5.3 earn their keep.
    pub fn wan_jitter() -> Self {
        Scenario {
            heartbeat_interval: Duration::from_secs(1),
            send_jitter_std: Duration::from_millis(5),
            delay: DelayKind::Normal(NormalDelay::new(
                Duration::from_millis(100),
                Duration::from_millis(40),
                Duration::from_millis(20),
            )),
            loss: LossKind::Bernoulli(BernoulliLoss::new(0.01)),
            partial_synchrony: None,
            sender_clock: DriftingClock::perfect(),
            monitor_clock: DriftingClock::perfect(),
            crash_at: None,
            partitions: Vec::new(),
            outages: Vec::new(),
            horizon: Timestamp::from_secs(600),
        }
    }

    /// A WAN with bursty loss: like [`Scenario::wan_jitter`] but messages
    /// are dropped in Gilbert–Elliott bursts (~1% of messages start a
    /// burst; bursts last 5 heartbeats on average). The regime motivating
    /// the κ framework (§5.4).
    pub fn bursty_loss() -> Self {
        Scenario {
            loss: LossKind::GilbertElliott(GilbertElliottLoss::bursts(0.01, 5.0)),
            ..Scenario::wan_jitter()
        }
    }

    /// A partially synchronous run (Appendix A.4): chaotic delays and loss
    /// until GST at 20% of the horizon, drifting clocks on both sides.
    pub fn partially_synchronous() -> Self {
        let horizon = Timestamp::from_secs(600);
        Scenario {
            partial_synchrony: Some(PartialSynchrony::new(
                Timestamp::from_secs(120),
                Duration::from_secs(3),
                0.2,
            )),
            sender_clock: DriftingClock::new(Duration::from_millis(40), 1.0005),
            monitor_clock: DriftingClock::new(Duration::from_millis(15), 0.9995),
            horizon,
            ..Scenario::wan_jitter()
        }
    }

    /// Returns a copy in which the sender crashes at `at`.
    pub fn with_crash_at(mut self, at: Timestamp) -> Self {
        self.crash_at = Some(at);
        self
    }

    /// Returns a copy whose link is partitioned over `[from, to)`.
    pub fn with_partition(mut self, from: Timestamp, to: Timestamp) -> Self {
        self.partitions.push((from, to));
        self
    }

    /// Returns a copy whose sender is down over `[from, to)`.
    pub fn with_outage(mut self, from: Timestamp, to: Timestamp) -> Self {
        self.outages.push((from, to));
        self
    }

    /// Whether the link is partitioned at global time `t`.
    pub fn partitioned_at(&self, t: Timestamp) -> bool {
        self.partitions
            .iter()
            .any(|&(from, to)| from <= t && t < to)
    }

    /// When the sender, down at global time `t`, comes back up; `None` if
    /// it is up (or crashed for good).
    pub(crate) fn outage_end(&self, t: Timestamp) -> Option<Timestamp> {
        self.outages
            .iter()
            .find(|&&(from, to)| from <= t && t < to)
            .map(|&(_, to)| to)
    }

    /// Returns a copy with a different horizon.
    pub fn with_horizon(mut self, horizon: Timestamp) -> Self {
        self.horizon = horizon;
        self
    }

    /// Returns a copy with a different heartbeat interval.
    pub fn with_heartbeat_interval(mut self, interval: Duration) -> Self {
        self.heartbeat_interval = interval;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        for s in [
            Scenario::ideal(),
            Scenario::lan(),
            Scenario::wan_jitter(),
            Scenario::bursty_loss(),
            Scenario::partially_synchronous(),
        ] {
            assert!(!s.heartbeat_interval.is_zero());
            assert!(s.horizon > Timestamp::ZERO);
            assert!(s.crash_at.is_none());
            assert!(s.partitions.is_empty() && s.outages.is_empty());
        }
    }

    #[test]
    fn builders_override_fields() {
        let s = Scenario::lan()
            .with_crash_at(Timestamp::from_secs(30))
            .with_horizon(Timestamp::from_secs(90))
            .with_heartbeat_interval(Duration::from_millis(250));
        assert_eq!(s.crash_at, Some(Timestamp::from_secs(30)));
        assert_eq!(s.horizon, Timestamp::from_secs(90));
        assert_eq!(s.heartbeat_interval, Duration::from_millis(250));
    }

    #[test]
    fn link_event_windows_are_half_open() {
        let at = Timestamp::from_secs;
        let s = Scenario::lan()
            .with_partition(at(2), at(3))
            .with_outage(at(5), at(7));
        assert!(!s.partitioned_at(at(1)));
        assert!(s.partitioned_at(at(2)));
        assert!(!s.partitioned_at(at(3)));
        assert_eq!(s.outage_end(at(4)), None);
        assert_eq!(s.outage_end(at(5)), Some(at(7)));
        assert_eq!(s.outage_end(at(7)), None);
    }

    #[test]
    fn kind_enums_delegate() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut d = DelayKind::Constant(ConstantDelay::new(Duration::from_millis(7)));
        assert_eq!(d.sample(&mut rng), Duration::from_millis(7));
        let mut l = LossKind::None(NoLoss);
        assert!(!l.is_lost(&mut rng));
        let mut lb = LossKind::Bernoulli(BernoulliLoss::new(1.0));
        assert!(lb.is_lost(&mut rng));
    }

    #[test]
    fn bursty_differs_from_wan_only_in_loss() {
        let a = Scenario::wan_jitter();
        let b = Scenario::bursty_loss();
        assert_eq!(a.delay, b.delay);
        assert_ne!(a.loss, b.loss);
    }
}
