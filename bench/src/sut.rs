//! The adapter: the only file of the ledger that names a type or calls a
//! function of the system under test (`afd-runtime`, `afd-detectors`,
//! `afd-core`). Everything else in `bench/` speaks the plain types
//! defined here, so a later API change has one place to follow.
//!
//! Only public items of the crates are used. Time is read through
//! [`SystemClock`] — the same clock the monitors stamp arrivals with —
//! never through `std::time::Instant` directly.

use std::hint::black_box;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use afd_core::accrual::AccrualFailureDetector;
use afd_core::process::ProcessId;
use afd_core::time::{Duration, Timestamp};
use afd_detectors::phi::{PhiAccrual, PhiConfig};
use afd_runtime::{
    heartbeat_ring, ChannelTransport, CheckpointConfig, Checkpointer, Clock, DeltaEncoder,
    EngineConfig, FrameBatch, Heartbeat, InternEntry, InternSlab, MemSink, MonitorStats,
    NullTransport, ParallelShardEngine, RestoredPeer, RingConsumer, RingProducer, ShardConfig,
    ShardedMonitor, SnapshotReader, SystemClock, Transport, UdpLane, UdpLaneStats, WireDecoder,
    FRAME_LEN, INTERN_LEN, MAX_V2_FRAME,
};

/// Every detector in the ledger is a φ detector with this window: small
/// enough that 40 warm-up heartbeats fill it, so the eviction path runs
/// in steady state.
pub const WINDOW_SIZE: usize = 32;

/// Longest frame the v2 encoder emits; size frame buffers with it.
pub const MAX_FRAME: usize = MAX_V2_FRAME;

/// Length of a v2 intern/checkpoint frame.
pub const INTERN_FRAME: usize = INTERN_LEN;

/// Slots of the intake arena used when timing a lane on its own (the
/// monitors' own arena has the same size).
const LANE_BATCH_SLOTS: usize = 512;

/// The heartbeat interval of an ordinary peer: ten a second.
pub const NOMINAL_INTERVAL_NS: u64 = 100_000_000;

fn phi() -> PhiAccrual {
    PhiAccrual::new(PhiConfig {
        window_size: WINDOW_SIZE,
        ..PhiConfig::default()
    })
    .expect("the ledger's phi configuration is valid")
}

fn loopback() -> SocketAddr {
    SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))
}

/// The stopwatch: nanoseconds on the system's monotonic clock.
#[derive(Debug, Clone, Copy)]
pub struct Timer(SystemClock);

impl Timer {
    pub fn new() -> Self {
        Timer(SystemClock::new())
    }

    #[inline]
    pub fn ns(&self) -> u64 {
        self.0.now().as_nanos()
    }
}

/// Monitor time every clock read moves on by, so that no two arrivals and
/// no arrival and the publish after it carry the same stamp.
const STAMP_STEP_NS: u64 = 1_000;

/// The clock an inline monitor is given: it *costs* what the system clock
/// costs — every `now()` reads it, as the monitor does in production, once
/// per decoded frame — but *says* what the generator's schedule says.
///
/// Why: what a φ level costs to evaluate depends on how long its peer has
/// been silent against its usual gap (the tail function iterates until it
/// converges). On wall-clock arrivals the same 4 096-peer tick cost 0.7 ms
/// or 1.6 ms depending on how evenly the host had scheduled the previous
/// second. On paced time the same seed gives the same detector states and
/// so the same work, and only the host's own noise is left to filter.
#[derive(Debug, Clone)]
struct PacedClock {
    real: SystemClock,
    paced: Arc<AtomicU64>,
}

impl Clock for PacedClock {
    #[inline]
    fn now(&self) -> Timestamp {
        black_box(self.real.now());
        let before = self.paced.fetch_add(STAMP_STEP_NS, Ordering::SeqCst);
        Timestamp::from_nanos(before + STAMP_STEP_NS)
    }
}

/// Outcome counters of a monitor, one heartbeat in exactly one of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub accepted: u64,
    pub duplicate: u64,
    pub stale: u64,
    pub unwatched: u64,
    pub corrupt: u64,
}

impl Counts {
    pub fn total(&self) -> u64 {
        self.accepted + self.duplicate + self.stale + self.unwatched + self.corrupt
    }
}

impl From<MonitorStats> for Counts {
    fn from(s: MonitorStats) -> Self {
        Counts {
            accepted: s.accepted,
            duplicate: s.duplicate,
            stale: s.stale,
            unwatched: s.unwatched,
            corrupt: s.corrupt,
        }
    }
}

/// Where a generator puts frames.
pub trait Feed {
    fn send(&mut self, frame: &[u8]) -> Result<(), String>;
}

/// Sender side of a real loopback socket aimed at one lane.
#[derive(Debug)]
pub struct UdpFeed {
    socket: UdpSocket,
    to: SocketAddr,
    lane: LaneCounters,
}

impl Feed for UdpFeed {
    #[inline]
    fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        match self.socket.send_to(frame, self.to) {
            Ok(n) if n == frame.len() => Ok(()),
            Ok(n) => Err(format!("short send: {n} of {} bytes", frame.len())),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Sender side of an in-process channel.
#[derive(Debug)]
pub struct ChanFeed(ChannelTransport);

impl Feed for ChanFeed {
    #[inline]
    fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        self.0.send(frame).map_err(|e| e.to_string())
    }
}

impl ChanFeed {
    /// Frames the receiving side evicted because its queue was full.
    pub fn dropped(&self) -> u64 {
        self.0.tx_dropped()
    }
}

fn bind_lane() -> Result<(UdpLane, UdpFeed), String> {
    let lane = UdpLane::bind(loopback()).map_err(|e| e.to_string())?;
    let to = lane.local_addr().map_err(|e| e.to_string())?;
    let socket = UdpSocket::bind(loopback()).map_err(|e| e.to_string())?;
    let counters = LaneCounters(lane.stats());
    Ok((
        lane,
        UdpFeed {
            socket,
            to,
            lane: counters,
        },
    ))
}

/// The lock-free read side a consumer of suspicion levels holds.
#[derive(Debug, Clone)]
pub struct Reader(SnapshotReader);

impl Reader {
    #[inline]
    pub fn level(&self, id: u32) -> Option<f64> {
        self.0.level(ProcessId::new(id)).map(|l| l.value())
    }

    /// Copies out every published level; returns how many there were.
    pub fn snapshot_len(&self) -> usize {
        self.0.snapshot().len()
    }
}

/// What one checkpoint wrote.
#[derive(Debug, Clone, Copy)]
pub struct Dump {
    pub peers: usize,
    pub bytes: usize,
}

/// A checkpoint store in memory.
pub struct Store(Checkpointer<MemSink>);

/// Peers read back from a [`Store`].
pub struct Recovered(Vec<RestoredPeer>);

impl Recovered {
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

impl Store {
    pub fn new() -> Self {
        Store(Checkpointer::new(
            MemSink::new(),
            CheckpointConfig::default(),
        ))
    }

    /// Reads the newest complete generation back and verifies it.
    pub fn load(&mut self, timer: &Timer) -> Result<Recovered, String> {
        let restored = self.0.restore(&timer.0).map_err(|e| e.to_string())?;
        if restored.segments_rejected != 0 || restored.manifests_rejected != 0 {
            return Err(format!(
                "checkpoint read back damaged: {} segments, {} manifests rejected",
                restored.segments_rejected, restored.manifests_rejected
            ));
        }
        Ok(Recovered(restored.peers))
    }
}

/// The single-threaded monitor: one `tick()` drains, decodes, routes,
/// updates and publishes. The transport is boxed so the ledger's generic
/// code needs no type of the system; that costs one indirect call per
/// drain, not per frame.
pub struct Inline {
    mon: ShardedMonitor<Box<dyn Transport>, PacedClock, PhiAccrual>,
    paced: Arc<AtomicU64>,
}

impl Inline {
    fn over(
        transport: Box<dyn Transport>,
        timer: &Timer,
        shards: usize,
        slots_per_shard: usize,
    ) -> Self {
        let config = ShardConfig {
            shards,
            slots_per_shard,
        };
        // Paced time starts late enough that nothing is ever earlier.
        let paced = Arc::new(AtomicU64::new(NOMINAL_INTERVAL_NS));
        let clock = PacedClock {
            real: timer.0,
            paced: Arc::clone(&paced),
        };
        Inline {
            mon: ShardedMonitor::new(transport, clock, config, |_| phi()),
            paced,
        }
    }

    /// Moves the monitor's time on: the generator's schedule.
    pub fn advance(&self, ns: u64) {
        self.paced.fetch_add(ns, Ordering::SeqCst);
    }

    /// The monitor's time.
    pub fn now_ns(&self) -> u64 {
        self.paced.load(Ordering::SeqCst)
    }

    pub fn watch(&mut self, id: u32) -> Result<bool, String> {
        self.mon
            .watch(ProcessId::new(id))
            .map_err(|e| e.to_string())
    }

    pub fn unwatch(&mut self, id: u32) -> bool {
        self.mon.unwatch(ProcessId::new(id)).is_some()
    }

    /// One tick; returns how many heartbeats it accepted.
    #[inline]
    pub fn tick(&mut self) -> Result<usize, String> {
        self.mon
            .tick()
            .map(|r| r.accepted)
            .map_err(|e| e.to_string())
    }

    pub fn reader(&self) -> Reader {
        Reader(self.mon.reader())
    }

    pub fn counts(&self) -> Counts {
        self.mon.stats().totals.into()
    }

    pub fn checkpoint(&mut self, store: &mut Store) -> Result<Dump, String> {
        let report = self
            .mon
            .checkpoint(&mut store.0)
            .map_err(|e| e.to_string())?;
        Ok(Dump {
            peers: report.peers,
            bytes: report.bytes,
        })
    }

    /// Imports recovered peers; returns how many detectors were re-seeded.
    pub fn import(&mut self, recovered: &Recovered) -> Result<u64, String> {
        let import = self.mon.restore(&recovered.0);
        if import.capacity_rejected != 0 {
            return Err(format!(
                "{} recovered peers did not fit their shard",
                import.capacity_rejected
            ));
        }
        Ok(import.seeded)
    }

    /// The detector's level for `id` evaluated at an explicit time, so two
    /// monitors can be compared at the same instant.
    pub fn level_at(&mut self, id: u32, at_ns: u64) -> Option<f64> {
        self.mon
            .detector_mut(ProcessId::new(id))
            .map(|d| d.suspicion_level(Timestamp::from_nanos(at_ns)).value())
    }
}

/// Syscall counters of one UDP lane, readable after the lane moved into a
/// monitor.
#[derive(Debug, Clone)]
pub struct LaneCounters(Arc<UdpLaneStats>);

impl LaneCounters {
    pub fn syscalls(&self) -> u64 {
        self.0.syscalls()
    }

    pub fn datagrams(&self) -> u64 {
        self.0.datagrams()
    }
}

/// A feed that can open the inline monitor it feeds.
pub trait Open: Feed + Sized {
    /// Constructs the monitor and binds its transport: the part of a
    /// set-up that happens once.
    fn open(timer: &Timer, shards: usize, slots_per_shard: usize)
        -> Result<(Inline, Self), String>;

    /// Syscall counters of the receiving lane, where there is one.
    fn lane(&self) -> Option<LaneCounters> {
        None
    }
}

impl Open for UdpFeed {
    /// An inline monitor over one real loopback lane.
    fn open(
        timer: &Timer,
        shards: usize,
        slots_per_shard: usize,
    ) -> Result<(Inline, Self), String> {
        let (lane, feed) = bind_lane()?;
        Ok((
            Inline::over(Box::new(lane), timer, shards, slots_per_shard),
            feed,
        ))
    }

    fn lane(&self) -> Option<LaneCounters> {
        Some(self.lane.clone())
    }
}

impl Open for ChanFeed {
    /// An inline monitor over an in-process channel.
    fn open(
        timer: &Timer,
        shards: usize,
        slots_per_shard: usize,
    ) -> Result<(Inline, Self), String> {
        let (tx, rx) = ChannelTransport::pair();
        Ok((
            Inline::over(Box::new(rx), timer, shards, slots_per_shard),
            ChanFeed(tx),
        ))
    }
}

/// Cumulative per-stage clock time of a running engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub decode_ns: u64,
    pub route_ns: u64,
    pub update_ns: u64,
    pub intake_frames: u64,
    pub ring_dropped: u64,
}

/// The production topology: one lane thread and one worker thread over a
/// channel lane.
pub struct Engine {
    eng: ParallelShardEngine<NullTransport, SystemClock, PhiAccrual>,
}

impl Engine {
    pub fn new(
        timer: &Timer,
        slots_per_shard: usize,
        ring_capacity: usize,
        publish_every_ms: u64,
    ) -> Self {
        let config = EngineConfig {
            workers: 1,
            slots_per_shard,
            ring_capacity,
            publish_every: Duration::from_millis(publish_every_ms),
            ..EngineConfig::default()
        };
        Engine {
            eng: ParallelShardEngine::new(NullTransport, timer.0, config, |_| phi()),
        }
    }

    /// Only valid before [`start`](Engine::start).
    pub fn watch(&mut self, id: u32) -> Result<bool, String> {
        self.eng
            .watch(ProcessId::new(id))
            .map_err(|e| e.to_string())
    }

    /// Spawns the lane and worker threads; frames go in through the feed.
    pub fn start(&mut self) -> Result<ChanFeed, String> {
        let (tx, rx) = ChannelTransport::pair();
        self.eng.start_lanes(vec![rx]).map_err(|e| e.to_string())?;
        Ok(ChanFeed(tx))
    }

    /// Heartbeats accepted so far. Allocates (the engine's stats do), so
    /// call it once per epoch poll, never per frame.
    pub fn accepted(&self) -> u64 {
        self.eng.stats().totals.accepted
    }

    pub fn counts(&self) -> Counts {
        self.eng.stats().totals.into()
    }

    pub fn stages(&self) -> Stages {
        let s = self.eng.stats();
        Stages {
            decode_ns: s.stage.decode,
            route_ns: s.stage.route,
            update_ns: s.stage.update,
            intake_frames: s.intake_frames,
            ring_dropped: s.ring_dropped,
        }
    }

    pub fn reader(&self) -> Reader {
        Reader(self.eng.reader())
    }

    /// Stops and joins every engine thread.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.eng.shutdown().map_err(|e| e.to_string())
    }
}

/// Sender-side v2 encoder of one peer.
#[derive(Debug)]
pub struct Encoder {
    id: u32,
    enc: DeltaEncoder,
}

impl Encoder {
    pub fn new(id: u32, resync_every: u32, interval_ns: u64) -> Self {
        Encoder {
            id,
            enc: DeltaEncoder::new(
                ProcessId::new(id),
                id,
                std::time::Duration::from_nanos(interval_ns),
                resync_every,
            ),
        }
    }

    /// Encodes one heartbeat; returns the frame length (an intern frame is
    /// [`INTERN_FRAME`] bytes, a delta is shorter).
    #[inline]
    pub fn encode(&mut self, seq: u64, sent_at_ns: u64, buf: &mut [u8; MAX_FRAME]) -> usize {
        let hb = Heartbeat {
            sender: ProcessId::new(self.id),
            seq,
            sent_at: Timestamp::from_nanos(sent_at_ns),
        };
        self.enc.encode(&hb, buf)
    }
}

/// A self-contained v1 frame, for replays aimed at a monitor whose decoder
/// never saw the sender's intern frame.
pub fn encode_v1(id: u32, seq: u64, sent_at_ns: u64) -> [u8; FRAME_LEN] {
    Heartbeat {
        sender: ProcessId::new(id),
        seq,
        sent_at: Timestamp::from_nanos(sent_at_ns),
    }
    .encode()
}

// ---------------------------------------------------------------------------
// Single layers, for the per-layer timings of the traced run.
// ---------------------------------------------------------------------------

/// Decoded heartbeats, opaque outside this file.
#[derive(Debug, Default)]
pub struct Beats(Vec<Heartbeat>);

impl Beats {
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// `wire`: the receiver-side decoder.
pub struct Decoder(WireDecoder);

impl Decoder {
    pub fn new() -> Self {
        Decoder(WireDecoder::new())
    }

    /// Decodes one frame; `false` if the decoder rejected it.
    #[inline]
    pub fn decode(&mut self, frame: &[u8]) -> bool {
        self.0.decode(frame).is_ok()
    }

    /// Decodes one frame and keeps the heartbeat.
    #[inline]
    pub fn decode_into(&mut self, frame: &[u8], out: &mut Beats) -> bool {
        match self.0.decode(frame) {
            Ok(hb) => {
                out.0.push(hb);
                true
            }
            Err(_) => false,
        }
    }
}

/// `intern`: the flat intern table behind the decoder.
pub struct Slab(InternSlab);

impl Slab {
    pub fn new() -> Self {
        Slab(InternSlab::new(afd_runtime::wire::DEFAULT_INTERN_CAPACITY))
    }

    #[inline]
    pub fn insert(&mut self, id: u32, seq: u64) -> bool {
        self.0.insert(
            id,
            InternEntry {
                sender: id,
                ckpt_seq: seq,
                ckpt_sent_at_nanos: seq.wrapping_mul(NOMINAL_INTERVAL_NS),
                interval_nanos: NOMINAL_INTERVAL_NS,
            },
        )
    }

    #[inline]
    pub fn get(&mut self, id: u32) -> Option<u64> {
        self.0.get(id).map(|e| e.ckpt_seq)
    }
}

/// `ring`: the lane→worker SPSC ring.
pub struct Ring {
    tx: RingProducer,
    rx: RingConsumer,
}

impl Ring {
    pub fn new(capacity: usize) -> Self {
        let (tx, rx) = heartbeat_ring(capacity);
        Ring { tx, rx }
    }

    #[inline]
    pub fn push_batch(&mut self, beats: &Beats, at_ns: u64) {
        self.tx.push_batch(&beats.0, Timestamp::from_nanos(at_ns));
    }

    #[inline]
    pub fn pop(&mut self) -> bool {
        self.rx.pop().is_some()
    }

    pub fn dropped(&self) -> u64 {
        self.rx.watch().dropped()
    }
}

/// `detectors`: one φ detector on its own.
pub struct Detector(PhiAccrual);

impl Detector {
    pub fn new() -> Self {
        Detector(phi())
    }

    #[inline]
    pub fn record(&mut self, at_ns: u64) {
        self.0.record_heartbeat(Timestamp::from_nanos(at_ns));
    }

    #[inline]
    pub fn level(&mut self, at_ns: u64) -> f64 {
        self.0.suspicion_level(Timestamp::from_nanos(at_ns)).value()
    }
}

/// `lane`: one UDP lane drained on its own, outside any monitor.
pub struct LaneProbe {
    lane: UdpLane,
    batch: FrameBatch,
}

impl LaneProbe {
    pub fn bind() -> Result<(LaneProbe, UdpFeed), String> {
        let (lane, feed) = bind_lane()?;
        Ok((
            LaneProbe {
                lane,
                batch: FrameBatch::with_capacity(LANE_BATCH_SLOTS),
            },
            feed,
        ))
    }

    /// Drains the socket once; returns the datagrams received.
    #[inline]
    pub fn recv(&mut self) -> Result<usize, String> {
        self.batch.clear();
        self.lane
            .recv_batch(&mut self.batch)
            .map_err(|e| e.to_string())
    }
}

/// `transport`: the receiving end of a channel drained on its own.
pub struct ChanProbe {
    rx: ChannelTransport,
    batch: FrameBatch,
}

impl ChanProbe {
    pub fn pair() -> (ChanProbe, ChanFeed) {
        let (tx, rx) = ChannelTransport::pair();
        (
            ChanProbe {
                rx,
                batch: FrameBatch::with_capacity(LANE_BATCH_SLOTS),
            },
            ChanFeed(tx),
        )
    }

    #[inline]
    pub fn recv(&mut self) -> Result<usize, String> {
        self.batch.clear();
        self.rx
            .recv_batch(&mut self.batch)
            .map_err(|e| e.to_string())
    }
}
