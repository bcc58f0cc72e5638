//! Declarative run configurations.
//!
//! A [`Scenario`] fully describes one monitored pair's environment: the
//! heartbeat protocol, the network (delay and loss), the two local clocks,
//! an optional crash, and the [`Phase`]s — windows of global time in which
//! something differs: the sender is down, the link is cut, the link is
//! chaotic (pre-GST), or the sender's jitter changes. Being a plain value,
//! it can be swept by the experiment harness and reproduced exactly from
//! `(scenario, seed)`.

use afd_core::time::{Duration, Timestamp};

use crate::channel::Chaos;
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

/// What a [`Phase`] changes while it lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// The sender is down (a crash, then a recovery): the next heartbeat
    /// goes out at the phase's end with the next sequence number.
    SenderDown,
    /// The link is cut (a partition): a heartbeat sent is lost, and the
    /// loss model draws nothing for it.
    LinkCut,
    /// The link is chaotic (pre-GST): a heartbeat sent meets [`Chaos`]
    /// before the link's own loss and delay.
    Chaos(Chaos),
    /// Send jitter of this standard deviation replaces `send_jitter_std`
    /// for each heartbeat scheduled inside the phase: a send's jitter is
    /// drawn when its predecessor goes out.
    SendJitter(Duration),
}

/// A window `[from, to)` of global time with one [`Effect`] on the link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Start of the window (inclusive).
    pub from: Timestamp,
    /// End of the window (exclusive).
    pub to: Timestamp,
    /// What differs inside it.
    pub effect: Effect,
}

/// The link at one instant of global time ([`Scenario::link_at`],
/// [`LinkAt::of`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkAt {
    /// The end of an [`Effect::SenderDown`] phase in force.
    pub down_until: Option<Timestamp>,
    /// Whether a [`Effect::LinkCut`] phase is in force.
    pub cut: bool,
    /// The [`Effect::Chaos`] in force, if any.
    pub chaos: Option<Chaos>,
    /// The standard deviation of the send jitter in force.
    pub send_jitter_std: Duration,
}

impl LinkAt {
    /// The link at global time `t` under `phases`, with `send_jitter_std`
    /// outside [`Effect::SendJitter`] phases: every phase covering `t`
    /// applies. Of several covering phases with the same effect, the first
    /// listed decides its end, chaos or jitter. The one lookup of a phase
    /// list — a scenario's and a live fault plan's.
    pub fn of(phases: &[Phase], t: Timestamp, send_jitter_std: Duration) -> LinkAt {
        let mut link = LinkAt {
            down_until: None,
            cut: false,
            chaos: None,
            send_jitter_std,
        };
        // Backwards, so that the first listed phase of an effect writes last.
        for phase in phases.iter().rev().filter(|p| p.from <= t && t < p.to) {
            match phase.effect {
                Effect::SenderDown => link.down_until = Some(phase.to),
                Effect::LinkCut => link.cut = true,
                Effect::Chaos(chaos) => link.chaos = Some(chaos),
                Effect::SendJitter(std) => link.send_jitter_std = std,
            }
        }
        link
    }
}

/// A complete monitored-pair run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Nominal heartbeat interval (on the sender's clock).
    pub heartbeat_interval: Duration,
    /// Standard deviation of normal jitter on heartbeat *send* times,
    /// outside [`Effect::SendJitter`] phases.
    pub send_jitter_std: Duration,
    /// The network delay model.
    pub delay: DelayKind,
    /// The network loss model.
    pub loss: LossKind,
    /// The sender's local clock.
    pub sender_clock: DriftingClock,
    /// The monitor's local clock.
    pub monitor_clock: DriftingClock,
    /// Global time at which the sender crashes for good, if it does.
    pub crash_at: Option<Timestamp>,
    /// Windows of global time in which something differs; they may
    /// overlap (see [`Scenario::link_at`]).
    pub phases: Vec<Phase>,
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
            sender_clock: DriftingClock::perfect(),
            monitor_clock: DriftingClock::perfect(),
            crash_at: None,
            phases: Vec::new(),
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
            horizon: Timestamp::from_secs(600),
            ..Scenario::lan()
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
            phases: vec![Phase {
                from: Timestamp::ZERO,
                to: Timestamp::from_secs(120),
                effect: Effect::Chaos(Chaos::new(0.2, Duration::from_secs(3))),
            }],
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

    /// Returns a copy with `effect` over `[from, to)`.
    pub fn with_phase(mut self, from: Timestamp, to: Timestamp, effect: Effect) -> Self {
        self.phases.push(Phase { from, to, effect });
        self
    }

    /// Returns a copy whose link is partitioned over `[from, to)`.
    pub fn with_partition(self, from: Timestamp, to: Timestamp) -> Self {
        self.with_phase(from, to, Effect::LinkCut)
    }

    /// Returns a copy whose sender is down over `[from, to)`.
    pub fn with_outage(self, from: Timestamp, to: Timestamp) -> Self {
        self.with_phase(from, to, Effect::SenderDown)
    }

    /// The link at global time `t` ([`LinkAt::of`] the scenario's phases):
    /// every phase covering `t` applies. A heartbeat due at `t` is not sent
    /// while the sender is down, draws nothing on a cut link, and meets
    /// chaos only on a link that is not cut.
    pub fn link_at(&self, t: Timestamp) -> LinkAt {
        LinkAt::of(&self.phases, t, self.send_jitter_std)
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
            // Only the partially synchronous preset has a phase: its chaos.
            assert!(s
                .phases
                .iter()
                .all(|p| matches!(p.effect, Effect::Chaos(_))));
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
        assert!(!s.link_at(at(1)).cut);
        assert!(s.link_at(at(2)).cut);
        assert!(!s.link_at(at(3)).cut);
        assert_eq!(s.link_at(at(4)).down_until, None);
        assert_eq!(s.link_at(at(5)).down_until, Some(at(7)));
        assert_eq!(s.link_at(at(7)).down_until, None);
    }

    #[test]
    fn overlapping_phases_all_apply_and_the_first_listed_decides() {
        let at = Timestamp::from_secs;
        let ms = Duration::from_millis;
        let chaos = Chaos::new(0.5, ms(100));
        let s = Scenario::lan()
            .with_phase(at(0), at(10), Effect::SendJitter(ms(7)))
            .with_phase(at(0), at(10), Effect::SendJitter(ms(9)))
            .with_phase(at(2), at(6), Effect::Chaos(chaos))
            .with_outage(at(4), at(8))
            .with_outage(at(3), at(5))
            .with_partition(at(5), at(6));
        let link = s.link_at(at(5));
        assert_eq!(link.down_until, Some(at(8)));
        assert!(link.cut);
        assert_eq!(link.chaos, Some(chaos));
        assert_eq!(link.send_jitter_std, ms(7));
        assert_eq!(s.link_at(at(11)).send_jitter_std, ms(1));
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
