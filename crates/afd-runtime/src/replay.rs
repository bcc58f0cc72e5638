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
//! 3. it ticks again at each query's local time, and the level is read
//!    through [`SnapshotReader::level`](crate::SnapshotReader::level) and
//!    filed under the *global* query time QoS analysis compares crash
//!    times against;
//! 4. at the horizon it unwatches the peer and hands back, beside the
//!    levels, the intake's [`MonitorStats`] and the detector itself.
//!
//! afd-sim's [`ReplayConfig`] is the query schedule and the clock
//! mapping. A trace replays any number of times, so every detector and
//! threshold in an experiment — and every member of a chaos run
//! ([`run_chaos`](crate::chaos::run_chaos)) — sees the *same* network
//! behaviour.

use afd_core::accrual::AccrualFailureDetector;
use afd_core::history::SuspicionTrace;
use afd_core::process::ProcessId;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;
use afd_sim::replay::ReplayConfig;
use afd_sim::trace::{ArrivalTrace, HeartbeatRecord};

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
    /// The level history the monitor published at the query instants.
    pub levels: SuspicionTrace,
    /// What the monitor's intake saw: every frame sent was accepted or
    /// judged stale.
    pub stats: MonitorStats,
    /// The detector as the last query left it.
    pub detector: D,
}

/// Replays `trace` through a monitor whose detector `factory` builds,
/// querying on `config`'s schedule until the trace horizon; returns the
/// level history the monitor published at the query instants, with the
/// intake's counters and the detector.
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
    let mut arrivals: Vec<(Timestamp, &HeartbeatRecord)> = trace
        .records()
        .iter()
        .filter_map(|r| Some((r.delivered_local?, r)))
        .collect();
    arrivals.sort_by_key(|&(at, r)| (at, r.seq));
    let mut arrivals = arrivals.into_iter().peekable();

    let clock = VirtualClock::new();
    // Each frame is drained by the tick after its send: one cell is room.
    let (mut wire, intake) = ChannelTransport::pair_bounded(1);
    let one = ShardConfig {
        shards: 1,
        slots_per_shard: 1,
    };
    let mut monitor = ShardedMonitor::new(intake, clock.clone(), one, factory);
    let watched = monitor.watch(PEER);
    debug_assert_eq!(watched, Ok(true), "a fresh one-slot shard takes its peer");
    let reader = monitor.reader();
    let interval = std::time::Duration::from_nanos(trace.interval().as_nanos());
    let mut encoder = DeltaEncoder::new(PEER, PEER.as_u32(), interval, RESYNC_EVERY);
    let mut frame = [0u8; MAX_V2_FRAME];
    let mut sent = 0u64;

    let mut out = SuspicionTrace::new();
    let mut query_at = config.first_query;
    while query_at <= trace.horizon() {
        // The monitor's view of this instant.
        let local_now = config.monitor_clock.local_time(query_at);
        // Deliver every heartbeat that arrived (locally) by this query,
        // each in a receive step of its own at its arrival time.
        while let Some((at, record)) = arrivals.next_if(|&(at, _)| at <= local_now) {
            let hb = Heartbeat {
                sender: PEER,
                seq: record.seq,
                sent_at: record.sent_at,
            };
            let len = encoder.encode(&hb, &mut frame);
            clock.set(at);
            let ticked = wire.send(&frame[..len]).and_then(|()| monitor.tick());
            debug_assert!(ticked.is_ok(), "{ticked:?}");
            sent += 1;
        }
        clock.set(local_now);
        let ticked = monitor.tick();
        debug_assert!(ticked.is_ok(), "{ticked:?}");
        let level = reader.level(PEER).unwrap_or(SuspicionLevel::ZERO);
        out.push(query_at, level);
        query_at += config.query_interval;
    }
    // Conservation: every frame on the wire ends in exactly one outcome,
    // and on this wire only two are possible.
    let stats = monitor.stats().totals;
    debug_assert!(
        stats.accepted + stats.stale == sent && stats.corrupt == 0 && stats.unwatched == 0,
        "replay lost a frame: {stats:?} for {sent} sent"
    );
    let detector = monitor
        .unwatch(PEER)
        // lint:allow(no-panic-paths, the one-slot shard took its peer above and never let it go)
        .expect("the replayed peer is watched");
    Replayed {
        levels: out,
        stats,
        detector,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::time::Duration;
    use afd_detectors::simple::SimpleAccrual;
    use afd_detectors::spec;
    use afd_sim::scenario::Scenario;
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
}
