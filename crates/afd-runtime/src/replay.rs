//! Replaying a recorded arrival trace through the monitor that ships.
//!
//! [`replay`] turns an [`ArrivalTrace`] into the [`SuspicionTrace`] (the
//! history `H(p, t)` of §2) on the production receive path:
//!
//! 1. every delivered heartbeat, in arrival order (`(delivered_local,
//!    seq)`), becomes a v2 [`DeltaEncoder`] frame, so the wire carries
//!    exactly what arrived — an overtaken frame reaches the monitor after
//!    its successor, as it would from a socket;
//! 2. the frames cross a [`ChannelTransport`] into a one-shard inline
//!    [`ShardedMonitor`] on a [`VirtualClock`] that ticks at each
//!    arrival's local time, so Algorithm 4's freshness rule (lines 8–10)
//!    is [`seq::classify`](crate::seq::classify) in the shard's accept
//!    stage, as in every deployment;
//! 3. at each query's local time it reads the detector's exact-now level
//!    through [`ShardedMonitor::level`] — the level a tick at that
//!    instant would publish, without the tick — and files it under the
//!    *global* query time QoS analysis compares crash times against;
//! 4. at the horizon it unwatches the peer and hands back, beside the
//!    levels, the intake's [`MonitorStats`] and the detector itself.
//!
//! Steps 1–3 are the [`Replay`] iterator, one query per `next`, so a
//! caller that needs a link's levels only up to some instant (a master
//! whose bag is done, an Ω process that crashed) stops there; step 4 is
//! [`Replay::finish`]. afd-sim's [`ReplayConfig`] is the query schedule
//! and the clock mapping. A trace replays any number of times, so every
//! detector and threshold in an experiment — and every member of a chaos
//! run ([`run_chaos`](crate::chaos::run_chaos)) — sees the *same* network
//! behaviour.

use afd_core::accrual::AccrualFailureDetector;
use afd_core::history::{SuspicionSample, SuspicionTrace};
use afd_core::process::ProcessId;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;
use afd_sim::replay::ReplayConfig;
use afd_sim::trace::ArrivalTrace;

use crate::clock::VirtualClock;
use crate::shard::{MonitorStats, ShardConfig, ShardedMonitor};
use crate::transport::{ChannelTransport, Transport};
use crate::wire::{DeltaEncoder, Heartbeat, MAX_V2_FRAME};

/// The one sender a replay watches; its id is also its intern index.
pub(crate) const PEER: ProcessId = ProcessId::new(0);

/// Frames between two checkpoint (intern) frames on the replay's wire. A
/// frame older than the checkpoint is re-interned by the encoder, so on
/// a wire that loses nothing every frame decodes whatever the value.
const RESYNC_EVERY: u32 = 8;

/// What a [`replay`] produced.
#[derive(Debug)]
pub struct Replayed<D> {
    /// The monitor's level history at the query instants.
    pub levels: SuspicionTrace,
    /// What the monitor's intake saw: every frame sent was accepted or
    /// judged stale.
    pub stats: MonitorStats,
    /// The detector as the last query left it.
    pub detector: D,
}

/// Replays `trace` through a monitor whose detector `factory` builds,
/// querying on `config`'s schedule until the trace horizon; returns the
/// monitor's level history at the query instants, with the intake's
/// counters and the detector.
///
/// A delivery whose sequence number is not ahead of the highest accepted
/// one is judged stale by the monitor and never reaches the detector, so
/// reordered heartbeats cannot move its notion of "last heartbeat"
/// backwards. In debug builds the replay checks that every frame it sent
/// was accepted or judged stale, and none was corrupt or unwatched.
///
/// # Examples
///
/// ```
/// use afd_core::time::{Duration, Timestamp};
/// use afd_detectors::simple::SimpleAccrual;
/// use afd_runtime::replay::replay;
/// use afd_sim::replay::ReplayConfig;
/// use afd_sim::scenario::Scenario;
/// use afd_sim::simulate;
///
/// let scenario = Scenario::lan().with_horizon(Timestamp::from_secs(10));
/// let trace = simulate(&scenario, 1);
/// let levels = replay(
///     &trace,
///     |_| SimpleAccrual::default(),
///     ReplayConfig::every(Duration::from_millis(250)),
/// )
/// .levels;
/// assert_eq!(levels.len(), 40);
/// assert!(levels.iter().all(|s| s.level.value() < 1.5));
/// ```
pub fn replay<D, F>(trace: &ArrivalTrace, factory: F, config: ReplayConfig) -> Replayed<D>
where
    D: AccrualFailureDetector,
    F: FnMut(ProcessId) -> D + Send + Clone + 'static,
{
    let mut run = Replay::new(trace, factory, config);
    let levels = run.by_ref().collect();
    let (stats, detector) = run.finish();
    Replayed {
        levels,
        stats,
        detector,
    }
}

/// A [`replay`] in progress: each `next` delivers the heartbeats that
/// arrived by the next query and yields the monitor's level there, until
/// the trace horizon. A caller may stop early and [`finish`](Self::finish)
/// wherever it stopped.
#[derive(Debug)]
pub struct Replay<D> {
    /// Deliveries not yet sent, by local arrival time.
    arrivals: std::iter::Peekable<std::vec::IntoIter<(Timestamp, Heartbeat)>>,
    clock: VirtualClock,
    wire: ChannelTransport,
    monitor: ShardedMonitor<ChannelTransport, VirtualClock, D>,
    encoder: DeltaEncoder,
    sent: u64,
    config: ReplayConfig,
    query_at: Timestamp,
    horizon: Timestamp,
}

impl<D: AccrualFailureDetector> Replay<D> {
    /// Starts replaying `trace` through a monitor whose detector `factory`
    /// builds, querying on `config`'s schedule.
    pub fn new<F>(trace: &ArrivalTrace, factory: F, config: ReplayConfig) -> Self
    where
        F: FnMut(ProcessId) -> D + Send + Clone + 'static,
    {
        let arrivals: Vec<_> = trace
            .deliveries_in_arrival_order()
            .into_iter()
            .map(|(at, record)| {
                let hb = Heartbeat {
                    sender: PEER,
                    seq: record.seq,
                    sent_at: record.sent_at,
                };
                (at, hb)
            })
            .collect();
        let clock = VirtualClock::new();
        // Each frame is drained by the tick after its send: one cell is room.
        let (wire, intake) = ChannelTransport::pair_bounded(1);
        let one = ShardConfig {
            shards: 1,
            slots_per_shard: 1,
        };
        let mut monitor = ShardedMonitor::new(intake, clock.clone(), one, factory);
        let watched = monitor.watch(PEER);
        debug_assert_eq!(watched, Ok(true), "a fresh one-slot shard takes its peer");
        let interval = std::time::Duration::from_nanos(trace.interval().as_nanos());
        Replay {
            arrivals: arrivals.into_iter().peekable(),
            clock,
            wire,
            monitor,
            encoder: DeltaEncoder::new(PEER, PEER.as_u32(), interval, RESYNC_EVERY),
            sent: 0,
            config,
            query_at: config.first_query,
            horizon: trace.horizon(),
        }
    }

    /// Ends the replay where the last query left it: unwatches the peer
    /// and returns the intake's counters and the detector. In debug builds
    /// it checks that every frame sent so far was accepted or judged
    /// stale, and none was corrupt or unwatched.
    pub fn finish(mut self) -> (MonitorStats, D) {
        // Conservation: every frame on the wire ends in exactly one outcome,
        // and on this wire only two are possible.
        let stats = self.monitor.stats().totals;
        debug_assert!(
            stats.accepted + stats.stale == self.sent && stats.corrupt == 0 && stats.unwatched == 0,
            "replay lost a frame: {stats:?} for {} sent",
            self.sent
        );
        #[expect(
            clippy::expect_used,
            reason = "the one-slot shard took its peer at the start and never let it go"
        )]
        let detector = self
            .monitor
            .unwatch(PEER)
            .expect("the replayed peer is watched");
        (stats, detector)
    }

    /// Moves to the next query: delivers every heartbeat that arrived
    /// (locally) by then, each in a receive step of its own at its arrival
    /// time, and sets the clock to the query's local time. Returns the
    /// query's global time, or `None` past the horizon.
    fn advance(&mut self) -> Option<Timestamp> {
        let at = self.query_at;
        if at > self.horizon {
            return None;
        }
        self.query_at += self.config.query_interval;
        // The monitor's view of this instant.
        let local_now = self.config.monitor_clock.local_time(at);
        let mut frame = [0u8; MAX_V2_FRAME];
        while let Some((arrived, hb)) = self.arrivals.next_if(|&(t, _)| t <= local_now) {
            let len = self.encoder.encode(&hb, &mut frame);
            self.clock.set(arrived);
            let ticked = self
                .wire
                .send(&frame[..len])
                .and_then(|()| self.monitor.tick());
            debug_assert!(ticked.is_ok(), "{ticked:?}");
            self.sent += 1;
        }
        self.clock.set(local_now);
        Some(at)
    }
}

impl<D: AccrualFailureDetector> Iterator for Replay<D> {
    type Item = SuspicionSample;

    fn next(&mut self) -> Option<SuspicionSample> {
        let at = self.advance()?;
        // The level a tick now would publish; only arrivals tick.
        let level = self.monitor.level(PEER).unwrap_or(SuspicionLevel::ZERO);
        Some(SuspicionSample { at, level })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::time::{Duration, Timestamp};
    use afd_detectors::adversary::WeakAccruementAdversary;
    use afd_detectors::simple::SimpleAccrual;
    use afd_detectors::spec;
    use afd_sim::loss::BernoulliLoss;
    use afd_sim::scenario::{LossKind, Scenario};
    use afd_sim::trace::HeartbeatRecord;
    use afd_sim::{read_csv, simulate, write_csv};

    fn record(seq: u64, sent_s: f64, delivered_s: Option<f64>) -> HeartbeatRecord {
        let delivered = delivered_s.map(Timestamp::from_secs_f64);
        HeartbeatRecord {
            seq,
            sent_at: Timestamp::from_secs_f64(sent_s),
            delivered_at: delivered,
            delivered_local: delivered,
        }
    }

    fn trace(records: Vec<HeartbeatRecord>, horizon_s: u64) -> ArrivalTrace {
        let horizon = Timestamp::from_secs(horizon_s);
        ArrivalTrace::new(records, None, horizon, Duration::from_secs(1))
    }

    /// Replays `trace` through the elapsed-time detector started at
    /// `start_s` (zero before its start), querying every second.
    fn simple_levels(trace: &ArrivalTrace, start_s: u64) -> Vec<f64> {
        let start = Timestamp::from_secs(start_s);
        let every = ReplayConfig::every(Duration::from_secs(1));
        let out = replay(trace, move |_| SimpleAccrual::new(start), every).levels;
        out.iter().map(|s| s.level.value()).collect()
    }

    fn query_seconds(trace: &ArrivalTrace, config: ReplayConfig) -> Vec<u64> {
        let out = replay(trace, |_| SimpleAccrual::default(), config).levels;
        out.iter()
            .map(|s| s.at.as_nanos() / 1_000_000_000)
            .collect()
    }

    #[test]
    fn queries_follow_schedule() {
        let trace = trace(vec![record(1, 1.0, Some(1.1))], 5);
        let every = ReplayConfig::every(Duration::from_secs(1));
        assert_eq!(query_seconds(&trace, every), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn custom_start_time() {
        let cfg = ReplayConfig::every(Duration::from_secs(2)).starting_at(Timestamp::from_secs(3));
        assert_eq!(query_seconds(&trace(Vec::new(), 5), cfg), vec![3, 5]);
    }

    #[test]
    fn suspicion_resets_on_heartbeat_and_grows_after() {
        let trace = trace(
            vec![record(1, 1.0, Some(1.0)), record(2, 2.0, Some(2.0))],
            6,
        );
        // t=1: hb@1 arrived → 0; t=2: hb@2 → 0; then grows 1, 2, 3, 4.
        assert_eq!(simple_levels(&trace, 0), [0.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn stale_heartbeats_are_dropped() {
        // seq 2 arrives first (overtaking); seq 1 arrives later and must be
        // judged stale, not rewind the detector: from t=4 on, the level
        // counts from 2.2 (seq 2), not from 3.5 (seq 1).
        let trace = trace(
            vec![record(1, 1.0, Some(3.5)), record(2, 2.0, Some(2.2))],
            6,
        );
        assert_eq!(simple_levels(&trace, 2), [0.0, 0.0, 0.8, 1.8, 2.8, 3.8]);
    }

    #[test]
    fn empty_trace_yields_zero_levels() {
        // Nothing arrives: a detector started at the horizon reads zero at
        // every query, and one started at zero the bare elapsed time.
        let trace = trace(Vec::new(), 3);
        assert_eq!(simple_levels(&trace, 3), [0.0; 3]);
        assert_eq!(simple_levels(&trace, 0), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn a_first_frame_of_seq_zero_is_accepted() {
        let trace = trace(vec![record(0, 1.0, Some(1.0))], 3);
        assert_eq!(simple_levels(&trace, 0), [0.0, 1.0, 2.0]);
    }

    #[test]
    fn hand_written_trace_replays() {
        let text =
            "# accrual-fd-trace v1 crash_ns=- horizon_ns=5000000000 interval_ns=1000000000\n\
             seq,sent_ns,delivered_ns,delivered_local_ns\n\
             1,1000000000,1100000000,1100000000\n\
             2,2000000000,2100000000,2100000000\n";
        let levels = simple_levels(&read_csv(text.as_bytes()).unwrap(), 0);
        assert_eq!(levels.len(), 5);
        assert!((levels[4] - 2.9).abs() < 1e-9);
    }

    #[test]
    fn a_csv_round_trip_replays_bit_for_bit() {
        // Reordering, loss and a crash, through the file format and back:
        // every kind reads the same level bits as from the original trace.
        let scenario = Scenario::wan_jitter()
            .with_horizon(Timestamp::from_secs(120))
            .with_crash_at(Timestamp::from_secs(80));
        let every = ReplayConfig::every(Duration::from_millis(250));
        for seed in 0..2 {
            let original = simulate(&scenario, seed);
            let mut csv = Vec::new();
            write_csv(&original, &mut csv).unwrap();
            let restored = read_csv(csv.as_slice()).unwrap();
            for spec in spec::series() {
                let bits = |trace: &ArrivalTrace| -> Vec<u64> {
                    let out = replay(trace, move |_| spec.build(), every).levels;
                    out.iter().map(|s| s.level.value().to_bits()).collect()
                };
                assert_eq!(bits(&restored), bits(&original), "{}", spec.name());
            }
        }
    }

    #[test]
    fn a_stopped_replay_yields_a_prefix_and_finishes_there() {
        // 1 s heartbeats under 40 ms jitter, 10 % lost, and a crash at 60 s:
        // stops before any arrival, mid-run, at the crash and at the end.
        let scenario = Scenario {
            loss: LossKind::Bernoulli(BernoulliLoss::new(0.1)),
            ..Scenario::wan_jitter()
        }
        .with_horizon(Timestamp::from_secs(90))
        .with_crash_at(Timestamp::from_secs(60));
        let trace = simulate(&scenario, 5);
        assert!(trace.loss_rate() > 0.05);
        let arrivals = trace.deliveries_in_arrival_order();
        let every = ReplayConfig::every(Duration::from_millis(250));
        let bits = |samples: &[SuspicionSample]| -> Vec<(Timestamp, u64)> {
            samples
                .iter()
                .map(|s| (s.at, s.level.value().to_bits()))
                .collect()
        };
        let kinds = spec::zoo().map(|member| member.detector);
        for spec in kinds.into_iter().chain(spec::series()) {
            let name = spec.name();
            let whole = replay(&trace, move |_| spec.build(), every).levels;
            for k in [0, 3, 101, 240, 300, whole.len()] {
                let mut run = Replay::new(&trace, move |_| spec.build(), every);
                let prefix: Vec<_> = run.by_ref().take(k).collect();
                assert_eq!(bits(&prefix), bits(&whole.samples()[..k]), "{name}");
                // The frames sent are the deliveries by the last query read.
                let by = prefix.last().map_or(Timestamp::ZERO, |s| s.at);
                let sent = arrivals.iter().filter(|&&(at, _)| at <= by).count();
                let (stats, _) = run.finish();
                assert_eq!(stats.accepted + stats.stale, sent as u64, "{name}");
            }
        }
    }

    /// The level bits a reader of the published snapshot sees at the
    /// queries when the monitor also ticks at each query: the replay's
    /// wire and arrival ticks, then a query tick read through
    /// `monitor.reader()`, as a lock-free client reads.
    fn published_bits<D, F>(trace: &ArrivalTrace, factory: F, config: ReplayConfig) -> Vec<u64>
    where
        D: AccrualFailureDetector,
        F: FnMut(ProcessId) -> D + Send + Clone + 'static,
    {
        let mut run = Replay::new(trace, factory, config);
        let reader = run.monitor.reader();
        let mut bits = Vec::new();
        while run.advance().is_some() {
            run.monitor.tick().unwrap();
            bits.push(reader.level(PEER).unwrap().value().to_bits());
        }
        bits
    }

    #[test]
    fn the_query_read_is_the_level_a_query_tick_publishes() {
        // 50 ms heartbeats under 40 ms delay jitter overtake each other,
        // 10 % are lost, and the sender is down for 3 s.
        let scenario = Scenario {
            loss: LossKind::Bernoulli(BernoulliLoss::new(0.1)),
            ..Scenario::wan_jitter()
        }
        .with_heartbeat_interval(Duration::from_millis(50))
        .with_horizon(Timestamp::from_secs(40))
        .with_outage(Timestamp::from_secs(20), Timestamp::from_secs(23));
        let trace = simulate(&scenario, 3);
        let arrivals = trace.deliveries_in_arrival_order();
        assert!(arrivals.windows(2).any(|w| w[1].1.seq < w[0].1.seq));
        assert!(trace.loss_rate() > 0.05);
        let every = ReplayConfig::every(Duration::from_millis(30));
        let bits = |out: SuspicionTrace| -> Vec<u64> {
            out.iter().map(|s| s.level.value().to_bits()).collect()
        };
        let kinds = spec::zoo().map(|member| member.detector);
        for spec in kinds.into_iter().chain(spec::series()) {
            let read = bits(replay(&trace, move |_| spec.build(), every).levels);
            let published = published_bits(&trace, move |_| spec.build(), every);
            assert_eq!(read, published, "{}", spec.name());
        }
        // A query-driven detector: Appendix A.5's adversary raises its
        // level at every evaluation, arrival ticks' and queries' alike.
        let adversary = |_| WeakAccruementAdversary::new(0.5);
        let read = bits(replay(&trace, adversary, every).levels);
        assert_eq!(read, published_bits(&trace, adversary, every));
        assert!(read
            .windows(2)
            .all(|w| f64::from_bits(w[1]) > f64::from_bits(w[0])));
    }
}
