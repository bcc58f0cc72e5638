//! The monitor pipeline's threaded executor.
//!
//! [`ShardedMonitor`](crate::shard::ShardedMonitor) runs the pipeline of
//! [`shard`](crate::shard) — intake, accept, publish — on one
//! thread, so its throughput ceiling is a single core.
//! [`ParallelShardEngine`] runs the *same* stages on a fixed topology of
//! `L` lane threads and `W` worker threads:
//!
//! ```text
//!   lane 0 ──► intake 0 ──┐ L×W SPSC rings ┌──► worker 0 ──► ShardCell 0
//!   lane 1 ──► intake 1 ──┤ (one per       ├──► worker 1 ──► ShardCell 1
//!     …           …       │  lane×worker   │       …             …
//!   lane L ──► intake L ──┘  pair)         └──► worker W ──► ShardCell W
//!                                                           SnapshotReader
//! ```
//!
//! Each lane thread owns one transport and one
//! `Intake` stage (`shard.rs`): it refills the reusable arena
//! (zero heap allocations per frame) and stamps the refill as the inline
//! executor does, decodes and routes every frame (v1 and compact v2
//! frames mix freely on every lane), and publishes each destination's
//! group into a bounded SPSC [`heartbeat_ring`] with a single `tail` store
//! ([`push_batch`](crate::ring::RingProducer::push_batch)). One ring per
//! lane×worker pair keeps the single-producer/single-consumer invariant
//! without any cross-lane locking; workers drain their rings round-robin.
//! One worker thread per shard owns that `Shard` — its accept and
//! publish code is the code the inline executor runs — and publishes
//! into the same double-buffered epoch snapshots, so [`SnapshotReader`]
//! works unchanged against either executor.
//!
//! [`start`](ParallelShardEngine::start) runs the engine's own transport
//! as the single lane; [`start_lanes`](ParallelShardEngine::start_lanes)
//! runs caller-supplied lanes (typically the sockets of a
//! [`MultiUdpTransport`](crate::lane::MultiUdpTransport)) and parks the
//! engine's transport. Both go through one lane loop and one worker
//! loop. The deterministic single-threaded path is `ShardedMonitor`; an
//! equivalence proptest in `tests/engine.rs` holds this executor to it
//! under a frozen virtual clock.
//!
//! # Backpressure is loss
//!
//! A full ring evicts its oldest entry (counted, exported via
//! [`export_metrics`](ParallelShardEngine::export_metrics)) instead of
//! blocking intake. The paper's detectors are *defined* over lossy
//! channels: a frame dropped at a full ring is indistinguishable from
//! one dropped by UDP, and dropping the oldest keeps the freshest
//! evidence, which is exactly what an accrual detector wants.
//!
//! # Faults and shutdown
//!
//! Every thread carries a drop guard that raises its panic flag if it
//! unwinds; [`poisoned`](ParallelShardEngine::poisoned) reads the flags
//! without blocking, and [`shutdown`](ParallelShardEngine::shutdown)
//! reports the casualty as [`EngineError::WorkerPanicked`] and leaves the
//! engine terminally failed (the dead thread's state is gone). A lane
//! that hits a transport fault records it for
//! [`intake_fault`](ParallelShardEngine::intake_fault) and stops; workers
//! keep serving reads. A stalled or stopped worker shows to every reader
//! as a [`published_at`](SnapshotReader::published_at) that stops
//! moving: an idle worker still republishes on the `publish_every`
//! cadence. Shutdown (or drop) raises the stop flag, joins the
//! lanes — taking the engine's transport back — then joins the workers,
//! each of which reads the flag *before* a final drain and publish, so
//! no frame routed before the stop is lost.

use std::fmt;
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use afd_core::accrual::AccrualFailureDetector;
use afd_core::process::ProcessId;
use afd_core::time::Duration;

use crate::clock::Clock;
use crate::error::{EngineError, TransportError};
use crate::persist::{RestoreImport, RestoredPeer};
use crate::ring::{heartbeat_ring, RingConsumer, RingProducer, RingWatch};
use crate::shard::{
    accept_batch, build_shards, import_peers, Intake, MonitorStats, Shard, Stamped,
};
use crate::snapshot::{bump, shard_index, ShardCell, SnapshotReader};
use crate::transport::Transport;
use crate::wire::Heartbeat;

/// Frames a worker drains from its rings per loop iteration before
/// re-checking stop/publish, so one flooded ring cannot starve the
/// publish cadence.
const WORKER_DRAIN_CAP: usize = 1024;

/// Sizing and cadence for a [`ParallelShardEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads — one per shard (floored at 1).
    pub workers: usize,
    /// Maximum watched processes per shard: a ceiling the snapshot grows
    /// up to, as in [`ShardConfig`](crate::shard::ShardConfig).
    pub slots_per_shard: usize,
    /// Slots per lane→worker ring (rounded up to a power of two).
    pub ring_capacity: usize,
    /// How often a worker republishes its epoch snapshot, on the engine
    /// clock's timeline. Zero republishes every loop.
    pub publish_every: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            slots_per_shard: 4096,
            ring_capacity: 1024,
            publish_every: Duration::from_millis(1),
        }
    }
}

/// Cumulative per-stage wall-clock nanoseconds, measured on the engine
/// clock by the lane threads (decode, route) and the workers (detector
/// update).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageNanos {
    /// Wire decode and grouping by destination, summed across lanes.
    pub decode: u64,
    /// Publishing the groups into the rings, summed across lanes.
    pub route: u64,
    /// Ring drain + detector update, summed across workers.
    pub update: u64,
}

/// Aggregated counters for a [`ParallelShardEngine`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Counters summed across workers; `corrupt` counts frames that
    /// failed decoding on the lanes.
    pub totals: MonitorStats,
    /// Per-worker intake counters (each worker's `corrupt` is always 0).
    pub per_worker: Vec<MonitorStats>,
    /// Watched processes per shard, for balance inspection.
    pub peers_per_shard: Vec<usize>,
    /// Frames evicted by drop-oldest ring backpressure, cumulative
    /// across engine runs.
    pub ring_dropped: u64,
    /// Frames the lanes decoded and routed (all lanes).
    pub intake_frames: u64,
    /// Frames each lane decoded, lane-indexed.
    pub per_lane_frames: Vec<u64>,
    /// Frames each lane rejected at decode, lane-indexed.
    pub per_lane_corrupt: Vec<u64>,
    /// Per-stage wall-clock profile of the pipeline.
    pub stage: StageNanos,
}

/// Counters one lane thread publishes. Single-writer: one thread per
/// lane.
#[derive(Default)]
struct LaneShared {
    frames: AtomicU64,
    corrupt: AtomicU64,
    /// Wall-clock nanos spent decoding and grouping, on the engine clock.
    decode_nanos: AtomicU64,
    /// Wall-clock nanos spent publishing groups into rings.
    route_nanos: AtomicU64,
    panicked: AtomicBool,
    fault: Mutex<Option<TransportError>>,
}

impl LaneShared {
    /// The fault slot, recovered from mutex poisoning: it holds a plain
    /// value, valid wherever a panicking thread stopped.
    fn fault(&self) -> MutexGuard<'_, Option<TransportError>> {
        match self.fault.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

/// Counters one worker publishes. Single-writer per worker.
#[derive(Default)]
struct WorkerShared {
    accepted: AtomicU64,
    stale: AtomicU64,
    duplicate: AtomicU64,
    unwatched: AtomicU64,
    loops: AtomicU64,
    busy_loops: AtomicU64,
    /// Wall-clock nanos spent draining rings into detectors, on the
    /// engine clock.
    update_nanos: AtomicU64,
    panicked: AtomicBool,
}

impl WorkerShared {
    /// Release stores, paired with the acquire loads of
    /// [`load_stats`](Self::load_stats): a worker stores its counters
    /// after the publish that covers them, so whoever reads a count also
    /// sees that epoch.
    fn store_stats(&self, stats: &MonitorStats) {
        self.accepted.store(stats.accepted, Ordering::Release);
        self.stale.store(stats.stale, Ordering::Release);
        self.duplicate.store(stats.duplicate, Ordering::Release);
        self.unwatched.store(stats.unwatched, Ordering::Release);
    }

    fn load_stats(&self) -> MonitorStats {
        MonitorStats {
            accepted: self.accepted.load(Ordering::Acquire),
            corrupt: 0,
            stale: self.stale.load(Ordering::Acquire),
            duplicate: self.duplicate.load(Ordering::Acquire),
            unwatched: self.unwatched.load(Ordering::Acquire),
        }
    }
}

/// Raises a thread's panic flag if the thread unwinds; a clean exit
/// drops this without effect.
struct PanicGuard<'a>(&'a AtomicBool);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// One running worker thread plus a watch on each ring that feeds it
/// (one per lane).
struct WorkerHandle<D> {
    handle: JoinHandle<Shard<D>>,
    watches: Vec<RingWatch>,
}

impl<D> WorkerHandle<D> {
    fn ring_depth(&self) -> usize {
        self.watches.iter().map(RingWatch::len).sum()
    }

    fn ring_dropped(&self) -> u64 {
        self.watches.iter().map(RingWatch::dropped).sum()
    }
}

enum EngineState<T, D> {
    /// Threads down; shards owned inline. `watch`/`unwatch` live here.
    Idle { transport: T, shards: Vec<Shard<D>> },
    /// Lane and worker threads up.
    Running {
        /// The engine's own transport while caller-supplied lanes do the
        /// intake; `None` while it runs as the lane itself (its thread
        /// hands it back on join).
        parked: Option<T>,
        lanes: Vec<JoinHandle<Option<T>>>,
        stop: Arc<AtomicBool>,
        workers: Vec<WorkerHandle<D>>,
    },
    /// A thread panicked and the state it owned is gone; terminal.
    Failed { worker: usize },
}

/// A multi-core monitor: batched zero-allocation intake, SPSC rings, one
/// worker thread per shard, lock-free epoch-snapshot reads.
///
/// Build it stopped, [`watch`](ParallelShardEngine::watch) the peer set,
/// then [`start`](ParallelShardEngine::start) it. Readers obtained from
/// [`reader`](ParallelShardEngine::reader) stay valid across
/// start/shutdown cycles.
pub struct ParallelShardEngine<T, C, D> {
    clock: C,
    config: EngineConfig,
    cells: Arc<[Arc<ShardCell>]>,
    state: EngineState<T, D>,
    /// One entry per lane of the current (or last) run; a lane index
    /// keeps its counters across restarts, like the workers.
    lane_shared: Vec<Arc<LaneShared>>,
    worker_shared: Vec<Arc<WorkerShared>>,
    /// Watched processes per shard as of the last start (a stopped
    /// engine reads its shards directly).
    peers_per_shard: Vec<usize>,
    /// Ring drops accumulated from finished runs (live rings are read
    /// through their watches).
    ring_dropped_past: u64,
}

impl<T, C, D> fmt::Debug for ParallelShardEngine<T, C, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match &self.state {
            EngineState::Idle { .. } => "idle",
            EngineState::Running { .. } => "running",
            EngineState::Failed { .. } => "failed",
        };
        f.debug_struct("ParallelShardEngine")
            .field("config", &self.config)
            .field("state", &state)
            .finish_non_exhaustive()
    }
}

impl<T, C, D> ParallelShardEngine<T, C, D>
where
    T: Transport + Send + 'static,
    C: Clock + Clone + Send + 'static,
    D: AccrualFailureDetector + Send + 'static,
{
    /// Creates a stopped engine; `factory` is cloned once per shard and
    /// builds one detector per watched process.
    pub fn new(
        transport: T,
        clock: C,
        config: EngineConfig,
        factory: impl FnMut(ProcessId) -> D + Send + Clone + 'static,
    ) -> Self {
        let config = EngineConfig {
            workers: config.workers.max(1),
            slots_per_shard: config.slots_per_shard.max(1),
            ring_capacity: config.ring_capacity.max(2),
            publish_every: config.publish_every,
        };
        let (cells, shards) = build_shards(config.workers, config.slots_per_shard, factory);
        let worker_shared = (0..config.workers)
            .map(|_| Arc::new(WorkerShared::default()))
            .collect();
        ParallelShardEngine {
            clock,
            config,
            cells,
            state: EngineState::Idle { transport, shards },
            // lint:allow(no-alloc-in-hot-path, one-time construction)
            lane_shared: Vec::new(),
            worker_shared,
            // lint:allow(no-alloc-in-hot-path, one-time construction)
            peers_per_shard: Vec::new(),
            ring_dropped_past: 0,
        }
    }

    /// Number of shards (= worker threads when running).
    pub fn shard_count(&self) -> usize {
        self.config.workers
    }

    /// The shard `process` routes to.
    pub fn shard_of(&self, process: ProcessId) -> usize {
        shard_index(process, self.config.workers)
    }

    /// The shards, which the engine holds only while stopped — the watch
    /// set is distributed to worker threads at [`start`](Self::start).
    fn idle_shards(&mut self) -> Result<&mut [Shard<D>], EngineError> {
        match &mut self.state {
            EngineState::Idle { shards, .. } => Ok(shards),
            EngineState::Failed { worker } => Err(EngineError::WorkerPanicked { worker: *worker }),
            EngineState::Running { .. } => Err(EngineError::Running),
        }
    }

    /// Starts monitoring `process`. Only valid while stopped.
    ///
    /// # Errors
    ///
    /// [`EngineError::Running`] if workers are up,
    /// [`EngineError::WorkerPanicked`] if the engine already failed, and
    /// [`EngineError::Capacity`] if the target shard is full.
    pub fn watch(&mut self, process: ProcessId) -> Result<bool, EngineError> {
        let idx = self.shard_of(process);
        Ok(self.idle_shards()?[idx].watch(process)?)
    }

    /// Stops monitoring `process`. Only valid while stopped.
    ///
    /// # Errors
    ///
    /// [`EngineError::Running`] if workers are up,
    /// [`EngineError::WorkerPanicked`] if the engine already failed.
    pub fn unwatch(&mut self, process: ProcessId) -> Result<Option<D>, EngineError> {
        let idx = self.shard_of(process);
        Ok(self.idle_shards()?[idx].unwatch(process))
    }

    /// Dumps the currently published epoch snapshots as a new checkpoint
    /// generation through `ckpt`.
    ///
    /// Valid in **any** state: the dump reads only the double-buffered
    /// snapshot cells, never worker-owned detector state, so on a running
    /// engine it proceeds concurrently with lanes and workers: the caller
    /// can checkpoint on any cadence without stopping it.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`](crate::persist::PersistError) if the sink
    /// fails.
    pub fn checkpoint<S: crate::persist::SegmentSink>(
        &self,
        ckpt: &mut crate::persist::Checkpointer<S>,
    ) -> Result<crate::persist::CheckpointReport, crate::persist::PersistError> {
        ckpt.checkpoint(&self.reader(), &self.clock)
    }

    /// Bulk-imports peers recovered by
    /// [`Checkpointer::restore`](crate::persist::Checkpointer::restore):
    /// re-watches each, seeds its detector with the saved window moments,
    /// re-arms replay rejection, and publishes every shard so readers see
    /// pre-crash-quality levels before the first worker loop. Peers whose
    /// shard is full are counted in [`RestoreImport::capacity_rejected`].
    ///
    /// Only valid while stopped, like [`watch`](Self::watch). As with
    /// [`ShardedMonitor::restore`](crate::shard::ShardedMonitor::restore),
    /// a restarted engine should **restore before re-watching**: import
    /// the last complete generation, then watch the peers it did not
    /// hold, then [`start`](Self::start).
    ///
    /// # Errors
    ///
    /// [`EngineError::Running`] if workers are up,
    /// [`EngineError::WorkerPanicked`] if the engine already failed.
    pub fn restore(&mut self, peers: &[RestoredPeer]) -> Result<RestoreImport, EngineError> {
        let now = self.clock.now();
        Ok(import_peers(self.idle_shards()?, peers, now))
    }

    /// Spawns the worker threads and one lane thread draining the
    /// engine's own transport, which [`shutdown`](Self::shutdown) hands
    /// back.
    ///
    /// # Errors
    ///
    /// [`EngineError::Running`] if already started,
    /// [`EngineError::WorkerPanicked`] if the engine already failed.
    pub fn start(&mut self) -> Result<(), EngineError> {
        let (transport, shards) = self.take_idle()?;
        // lint:allow(no-alloc-in-hot-path, one-time construction at start)
        self.spawn(None, shards, vec![transport], Some);
        Ok(())
    }

    /// Spawns the worker threads and one lane thread per transport in
    /// `lanes`. The engine's own transport sits parked until
    /// [`shutdown`](Self::shutdown); heartbeats arrive on the lanes.
    ///
    /// Lane transports are consumed: shutdown drops them (they are bound
    /// sockets), so each `start_lanes` takes freshly bound lanes —
    /// typically [`MultiUdpTransport::into_lanes`](crate::lane::MultiUdpTransport::into_lanes).
    ///
    /// # Errors
    ///
    /// [`EngineError::Running`] if already started,
    /// [`EngineError::WorkerPanicked`] if the engine already failed, and
    /// [`EngineError::Transport`] if `lanes` is empty.
    pub fn start_lanes<L: Transport + 'static>(
        &mut self,
        lanes: Vec<L>,
    ) -> Result<(), EngineError> {
        if lanes.is_empty() {
            return Err(EngineError::Transport(TransportError::Io(
                "start_lanes requires at least one lane".into(),
            )));
        }
        let (transport, shards) = self.take_idle()?;
        self.spawn(Some(transport), shards, lanes, |_| None);
        Ok(())
    }

    /// Moves the transport and shards out of a stopped engine.
    fn take_idle(&mut self) -> Result<(T, Vec<Shard<D>>), EngineError> {
        self.idle_shards()?;
        match mem::replace(&mut self.state, EngineState::Failed { worker: usize::MAX }) {
            EngineState::Idle { transport, shards } => Ok((transport, shards)),
            // Unreachable: checked Idle above; the placeholder keeps the
            // state machine total without panicking.
            other => {
                self.state = other;
                Err(EngineError::Running)
            }
        }
    }

    /// Wires `lanes` to the shards through lane×worker rings and spawns
    /// every thread. `hand_back` says what a lane thread returns of its
    /// transport on exit.
    fn spawn<L: Transport + 'static>(
        &mut self,
        parked: Option<T>,
        shards: Vec<Shard<D>>,
        lanes: Vec<L>,
        hand_back: fn(L) -> Option<T>,
    ) {
        // One ring per lane×worker pair: lane l's thread is the only
        // producer and worker w the only consumer of ring (l, w), so the
        // SPSC invariant holds with no cross-lane locking.
        let mut lane_producers: Vec<Vec<RingProducer>> = Vec::with_capacity(lanes.len());
        let mut worker_rings: Vec<Vec<RingConsumer>> = shards
            .iter()
            .map(|_| Vec::with_capacity(lanes.len()))
            .collect();
        for _ in 0..lanes.len() {
            let mut producers = Vec::with_capacity(shards.len());
            for rings in worker_rings.iter_mut() {
                let (tx, rx) = heartbeat_ring(self.config.ring_capacity);
                producers.push(tx);
                rings.push(rx);
            }
            lane_producers.push(producers);
        }
        self.lane_shared.resize_with(lanes.len(), Arc::default);
        for lane in &self.lane_shared {
            *lane.fault() = None;
        }
        self.peers_per_shard = shards.iter().map(Shard::len).collect();

        let stop = Arc::new(AtomicBool::new(false));
        let workers = shards
            .into_iter()
            .zip(worker_rings)
            .zip(&self.worker_shared)
            .map(|((shard, rings), shared)| {
                let watches = rings.iter().map(RingConsumer::watch).collect();
                let stop = Arc::clone(&stop);
                let shared = Arc::clone(shared);
                let clock = self.clock.clone();
                let publish_every = self.config.publish_every;
                let handle = std::thread::spawn(move || {
                    worker_loop(shard, rings, clock, stop, shared, publish_every)
                });
                WorkerHandle { handle, watches }
            })
            .collect();
        let lanes = lanes
            .into_iter()
            .zip(lane_producers)
            .zip(&self.lane_shared)
            .map(|((lane, producers), shared)| {
                let shared = Arc::clone(shared);
                let stop = Arc::clone(&stop);
                let clock = self.clock.clone();
                std::thread::spawn(move || {
                    hand_back(lane_loop(lane, clock, producers, shared, stop))
                })
            })
            .collect();
        self.state = EngineState::Running {
            parked,
            lanes,
            stop,
            workers,
        };
    }

    /// Joins every thread and returns the engine to the stopped state,
    /// preserving all detector state (a later [`start`](Self::start)
    /// resumes where monitoring left off).
    ///
    /// # Errors
    ///
    /// [`EngineError::WorkerPanicked`] if any thread died — the engine is
    /// then terminally failed, since the dead thread's state is gone.
    pub fn shutdown(&mut self) -> Result<(), EngineError> {
        match mem::replace(&mut self.state, EngineState::Failed { worker: usize::MAX }) {
            EngineState::Running {
                parked,
                lanes,
                stop,
                workers,
            } => {
                stop.store(true, Ordering::Release);
                // Caller-supplied lanes are dropped here (they are bound
                // sockets); the engine's own transport comes back from
                // its lane thread or from the parking slot.
                let mut transport = parked;
                let mut lane_panicked = false;
                for lane in lanes {
                    match lane.join() {
                        Ok(back) => transport = transport.or(back),
                        Err(_) => lane_panicked = true,
                    }
                }
                let shards = self.join_workers(workers)?;
                match transport {
                    Some(transport) if !lane_panicked => {
                        self.state = EngineState::Idle { transport, shards };
                        Ok(())
                    }
                    // A lane thread died, and what it owned with it.
                    _ => Err(EngineError::WorkerPanicked { worker: usize::MAX }),
                }
            }
            EngineState::Failed { worker } => {
                self.state = EngineState::Failed { worker };
                Err(EngineError::WorkerPanicked { worker })
            }
            idle @ EngineState::Idle { .. } => {
                self.state = idle;
                Ok(())
            }
        }
    }

    /// Joins workers, folding their rings' drop counts into the running
    /// total. On a panicked worker the engine stays `Failed`.
    fn join_workers(
        &mut self,
        workers: Vec<WorkerHandle<D>>,
    ) -> Result<Vec<Shard<D>>, EngineError> {
        let mut shards = Vec::with_capacity(workers.len());
        let mut panicked = None;
        for (idx, worker) in workers.into_iter().enumerate() {
            self.ring_dropped_past = self.ring_dropped_past.wrapping_add(worker.ring_dropped());
            match worker.handle.join() {
                Ok(shard) => shards.push(shard),
                Err(_) => panicked = Some(idx),
            }
        }
        match panicked {
            Some(worker) => {
                self.state = EngineState::Failed { worker };
                Err(EngineError::WorkerPanicked { worker })
            }
            None => Ok(shards),
        }
    }

    /// The transport, readable while the engine is stopped (a running
    /// engine's lane thread may own it). Useful for draining
    /// fault-injector statistics after [`shutdown`](Self::shutdown).
    pub fn transport(&self) -> Option<&T> {
        match &self.state {
            EngineState::Idle { transport, .. } => Some(transport),
            _ => None,
        }
    }

    /// A cloneable lock-free reader over the published epoch snapshots —
    /// the identical [`SnapshotReader`] type the sharded monitor serves.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader::from_cells(Arc::clone(&self.cells))
    }

    /// A transport fault a lane thread hit, if any. A lane stops on its
    /// first fault; workers keep serving reads until
    /// [`shutdown`](Self::shutdown).
    pub fn intake_fault(&self) -> Option<TransportError> {
        self.lane_shared
            .iter()
            .find_map(|lane| lane.fault().clone())
    }

    /// The workers of a running engine.
    fn live_workers(&self) -> &[WorkerHandle<D>] {
        match &self.state {
            EngineState::Running { workers, .. } => workers,
            _ => &[],
        }
    }

    /// Aggregated counters. Callable in any state; while running, values
    /// are the threads' latest published snapshots.
    pub fn stats(&self) -> EngineStats {
        let per_worker: Vec<MonitorStats> =
            self.worker_shared.iter().map(|w| w.load_stats()).collect();
        let mut stage = StageNanos::default();
        let mut per_lane_frames = Vec::with_capacity(self.lane_shared.len());
        let mut per_lane_corrupt = Vec::with_capacity(self.lane_shared.len());
        for lane in &self.lane_shared {
            per_lane_frames.push(lane.frames.load(Ordering::Relaxed));
            per_lane_corrupt.push(lane.corrupt.load(Ordering::Relaxed));
            stage.decode += lane.decode_nanos.load(Ordering::Relaxed);
            stage.route += lane.route_nanos.load(Ordering::Relaxed);
        }
        for shared in &self.worker_shared {
            stage.update += shared.update_nanos.load(Ordering::Relaxed);
        }
        EngineStats {
            totals: MonitorStats::totals(per_lane_corrupt.iter().sum(), &per_worker),
            per_worker,
            peers_per_shard: match &self.state {
                EngineState::Idle { shards, .. } => shards.iter().map(Shard::len).collect(),
                _ => self.peers_per_shard.clone(),
            },
            ring_dropped: self.ring_dropped_total(),
            intake_frames: per_lane_frames.iter().sum(),
            per_lane_frames,
            per_lane_corrupt,
            stage,
        }
    }

    /// Total frames evicted by drop-oldest ring backpressure, across all
    /// workers and surviving engine restarts.
    pub fn ring_dropped_total(&self) -> u64 {
        let live: u64 = self
            .live_workers()
            .iter()
            .map(WorkerHandle::ring_dropped)
            .sum();
        self.ring_dropped_past.wrapping_add(live)
    }

    /// `Some(worker)` if any worker (or, as `usize::MAX`, a lane thread)
    /// has panicked, read from the threads' panic flags without blocking
    /// on a join.
    pub fn poisoned(&self) -> Option<usize> {
        if let EngineState::Failed { worker } = &self.state {
            return Some(*worker);
        }
        if self
            .lane_shared
            .iter()
            .any(|lane| lane.panicked.load(Ordering::Acquire))
        {
            return Some(usize::MAX);
        }
        self.worker_shared
            .iter()
            .position(|w| w.panicked.load(Ordering::Acquire))
    }

    /// Publishes the engine's counters into `registry` under `engine.*`:
    /// aggregate totals, the per-stage profile, per-lane counters,
    /// per-worker ring depth/drop gauges, and per-worker utilization
    /// (fraction of loop iterations that processed frames).
    pub fn export_metrics(&self, registry: &afd_obs::Registry) {
        let stats = self.stats();
        registry
            .counter("engine.accepted")
            .set(stats.totals.accepted);
        registry.counter("engine.corrupt").set(stats.totals.corrupt);
        registry.counter("engine.stale").set(stats.totals.stale);
        registry
            .counter("engine.duplicate")
            .set(stats.totals.duplicate);
        registry
            .counter("engine.unwatched")
            .set(stats.totals.unwatched);
        registry
            .counter("engine.intake.frames")
            .set(stats.intake_frames);
        registry
            .counter("engine.ring.dropped")
            .set(stats.ring_dropped);
        registry
            .gauge("engine.workers")
            .set(self.config.workers as f64);
        registry
            .gauge("engine.peers")
            .set(stats.peers_per_shard.iter().sum::<usize>() as f64);
        registry
            .gauge("engine.lanes")
            .set(self.lane_shared.len() as f64);
        registry
            .counter("engine.stage.decode_nanos")
            .set(stats.stage.decode);
        registry
            .counter("engine.stage.route_nanos")
            .set(stats.stage.route);
        registry
            .counter("engine.stage.update_nanos")
            .set(stats.stage.update);
        for (idx, worker) in self.live_workers().iter().enumerate() {
            registry
                .gauge(&format!("engine.worker.{idx}.ring_depth"))
                .set(worker.ring_depth() as f64);
            registry
                .counter(&format!("engine.worker.{idx}.ring_dropped"))
                .set(worker.ring_dropped());
        }
        for (idx, shared) in self.worker_shared.iter().enumerate() {
            let loops = shared.loops.load(Ordering::Relaxed);
            let busy = shared.busy_loops.load(Ordering::Relaxed);
            let utilization = if loops == 0 {
                0.0
            } else {
                busy as f64 / loops as f64
            };
            registry
                .gauge(&format!("engine.worker.{idx}.utilization"))
                .set(utilization);
            registry
                .counter(&format!("engine.worker.{idx}.update_nanos"))
                .set(shared.update_nanos.load(Ordering::Relaxed));
        }
        for (idx, lane) in self.lane_shared.iter().enumerate() {
            registry
                .counter(&format!("engine.lane.{idx}.frames"))
                .set(lane.frames.load(Ordering::Relaxed));
            registry
                .counter(&format!("engine.lane.{idx}.corrupt"))
                .set(lane.corrupt.load(Ordering::Relaxed));
            registry
                .counter(&format!("engine.lane.{idx}.decode_nanos"))
                .set(lane.decode_nanos.load(Ordering::Relaxed));
            registry
                .counter(&format!("engine.lane.{idx}.route_nanos"))
                .set(lane.route_nanos.load(Ordering::Relaxed));
        }
    }
}

impl<T, C, D> Drop for ParallelShardEngine<T, C, D> {
    /// Join-on-drop backstop: stops and joins any running threads so an
    /// engine falling out of scope never leaks spinning workers.
    fn drop(&mut self) {
        if let EngineState::Running {
            lanes,
            stop,
            workers,
            ..
        } = mem::replace(&mut self.state, EngineState::Failed { worker: usize::MAX })
        {
            stop.store(true, Ordering::Release);
            for lane in lanes {
                let _ = lane.join();
            }
            for worker in workers {
                let _ = worker.handle.join();
            }
        }
    }
}

/// A worker thread: drain its rings round-robin (bounded total per
/// iteration), accept what they held as one batch, publish on the
/// configured cadence, yield when idle. On stop, drain what's left and
/// publish one final epoch. Takes one ring per lane; returns its shard
/// for state handback.
fn worker_loop<C: Clock, D: AccrualFailureDetector>(
    mut shard: Shard<D>,
    mut rings: Vec<RingConsumer>,
    clock: C,
    stop: Arc<AtomicBool>,
    shared: Arc<WorkerShared>,
    publish_every: Duration,
) -> Shard<D> {
    let _guard = PanicGuard(&shared.panicked);
    // Publish the initial (all-watched, no-heartbeat) epoch so readers
    // see the watch set immediately.
    let mut last_publish = clock.now();
    shard.publish(last_publish);
    // One drain's heartbeats, popped first and accepted as one batch —
    // the accept stage overlaps a batch's cache misses; reused across
    // iterations. Every frame routes to shard 0 of the one handed over.
    let mut popped: Vec<Stamped> = Vec::with_capacity(WORKER_DRAIN_CAP);
    loop {
        // Order matters: read stop *before* the final drain so no frame
        // pushed before the stop store can be missed.
        let stopping = stop.load(Ordering::Acquire);
        let drain_start = clock.now();
        // Round-robin across rings; a dry pass over every ring ends the
        // drain even with budget left, so one empty lane can't spin.
        let mut dry = 0usize;
        let mut next = 0usize;
        while popped.len() < WORKER_DRAIN_CAP && dry < rings.len() {
            match rings[next].pop() {
                Some((hb, at)) => {
                    popped.push(Stamped::new(0, hb, at));
                    dry = 0;
                }
                None => dry += 1,
            }
            next = (next + 1) % rings.len();
        }
        let processed = popped.len();
        accept_batch(std::slice::from_mut(&mut shard), &mut popped);
        popped.clear();
        let now = clock.now();
        let due = now.saturating_duration_since(last_publish) >= publish_every;
        if processed > 0 {
            bump(
                &shared.update_nanos,
                now.saturating_duration_since(drain_start).as_nanos(),
            );
        }
        if processed > 0 || due || stopping {
            if due || stopping {
                shard.publish(now);
                last_publish = now;
            }
            shared.store_stats(&shard.stats());
        }
        bump(&shared.loops, 1);
        if processed > 0 {
            bump(&shared.busy_loops, 1);
        } else if stopping {
            break;
        } else {
            std::thread::yield_now();
        }
    }
    shard
}

/// A lane thread: refill the arena from `lane`, decode and group by
/// destination worker, publish each group into its ring at the refill's
/// stamp. Each batch is timed in two passes on the engine clock — decode
/// from the stamp, then route — feeding the per-stage profile in
/// [`EngineStats::stage`].
/// Stops on the cooperative flag or the first transport fault (recorded
/// for [`ParallelShardEngine::intake_fault`]); returns the transport.
fn lane_loop<L: Transport, C: Clock>(
    mut lane: L,
    clock: C,
    mut producers: Vec<RingProducer>,
    shared: Arc<LaneShared>,
    stop: Arc<AtomicBool>,
) -> L {
    let _guard = PanicGuard(&shared.panicked);
    let mut intake = Intake::new();
    // Per-destination scratch, reused across batches: grouping is
    // allocation-free in steady state, and a drained batch publishes with
    // one `tail` store per (ring, group) instead of one per frame.
    let mut groups: Vec<Vec<Heartbeat>> = (0..producers.len())
        .map(|_| Vec::with_capacity(intake.capacity()))
        .collect();
    while !stop.load(Ordering::Acquire) {
        match intake.recv(&mut lane, &clock) {
            Ok(0) => std::thread::yield_now(),
            Ok(got) => {
                let stamp = intake.stamp();
                let corrupt = intake.decode(groups.len(), |idx, hb| groups[idx].push(hb));
                let route_start = clock.now();
                for (producer, group) in producers.iter_mut().zip(&mut groups) {
                    if !group.is_empty() {
                        producer.push_batch(group, stamp);
                        group.clear();
                    }
                }
                let route_end = clock.now();
                bump(
                    &shared.decode_nanos,
                    route_start.saturating_duration_since(stamp).as_nanos(),
                );
                bump(
                    &shared.route_nanos,
                    route_end.saturating_duration_since(route_start).as_nanos(),
                );
                bump(&shared.frames, got as u64 - corrupt);
                bump(&shared.corrupt, corrupt);
            }
            Err(fault) => {
                *shared.fault() = Some(fault);
                break;
            }
        }
    }
    lane
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::disallowed_methods,
        reason = "threads and sockets are polled against a wall-clock deadline, so a stall fails instead of hanging"
    )]

    use super::*;
    use crate::clock::VirtualClock;
    use crate::transport::{ChannelTransport, NullTransport};
    use crate::wire::{DeltaEncoder, MAX_V2_FRAME};
    use afd_core::properties::{AccruementCheck, AccruementViolation, PropertyFold};
    use afd_core::time::Timestamp;
    use afd_detectors::simple::SimpleAccrual;

    type Engine<T = ChannelTransport> = ParallelShardEngine<T, VirtualClock, SimpleAccrual>;

    fn rig(config: EngineConfig) -> (ChannelTransport, Engine, VirtualClock) {
        let (tx, rx) = ChannelTransport::pair();
        let clock = VirtualClock::new();
        let engine = ParallelShardEngine::new(rx, clock.clone(), config, |_| {
            SimpleAccrual::new(Timestamp::ZERO)
        });
        (tx, engine, clock)
    }

    fn two_workers() -> EngineConfig {
        EngineConfig {
            workers: 2,
            publish_every: Duration::ZERO,
            ..EngineConfig::default()
        }
    }

    fn heartbeat(sender: u32, seq: u64) -> Heartbeat {
        Heartbeat {
            sender: ProcessId::new(sender),
            seq,
            sent_at: Timestamp::from_secs(seq),
        }
    }

    fn frame(sender: u32, seq: u64) -> Vec<u8> {
        heartbeat(sender, seq).encode().to_vec()
    }

    /// Acceptance is asynchronous: spin until `done` holds.
    fn wait_for<T>(engine: &Engine<T>, done: impl Fn(&EngineStats) -> bool)
    where
        T: Transport + Send + 'static,
    {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let stats = engine.stats();
            if done(&stats) {
                return;
            }
            assert!(std::time::Instant::now() < deadline, "stalled: {stats:?}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn started_engine_accepts_and_publishes() {
        let (mut tx, mut engine, clock) = rig(EngineConfig {
            workers: 3,
            publish_every: Duration::ZERO,
            ..EngineConfig::default()
        });
        for id in 0..6u32 {
            engine.watch(ProcessId::new(id)).unwrap();
        }
        engine.start().unwrap();
        clock.set(Timestamp::from_secs(5));
        for id in 0..6u32 {
            tx.send(&frame(id, 1)).unwrap();
        }
        tx.send(b"garbage").unwrap();
        wait_for(&engine, |s| s.totals.accepted == 6 && s.totals.corrupt == 1);
        engine.shutdown().unwrap();

        let reader = engine.reader();
        assert_eq!(reader.published_at(), Timestamp::from_secs(5));
        assert_eq!(reader.snapshot().len(), 6);
        for id in 0..6u32 {
            assert_eq!(reader.level(ProcessId::new(id)).unwrap().value(), 0.0);
        }
        let stats = engine.stats();
        assert_eq!(stats.intake_frames, 6);
        assert_eq!(stats.peers_per_shard.iter().sum::<usize>(), 6);
    }

    /// Regression: `start()` used to decode with the v1-only exact-length
    /// decoder, so a wire-v2 sender on the engine's own transport was
    /// counted 100 % corrupt while `start_lanes` accepted the same frames.
    #[test]
    fn own_transport_intake_mixes_v1_and_v2_frames() {
        let (mut tx, mut engine, clock) = rig(two_workers());
        for id in 0..3u32 {
            engine.watch(ProcessId::new(id)).unwrap();
        }
        engine.start().unwrap();
        clock.set(Timestamp::from_secs(1));

        // Peers 0 and 1 speak v2 (an intern frame, then compact deltas);
        // peer 2 interleaves plain v1 frames on the same transport.
        let mut encoders: Vec<DeltaEncoder> = (0..2u32)
            .map(|id| {
                DeltaEncoder::new(ProcessId::new(id), id, std::time::Duration::from_secs(1), 4)
            })
            .collect();
        let mut buf = [0u8; MAX_V2_FRAME];
        let mut sent = 0u64;
        for seq in 1..=10u64 {
            for (id, enc) in encoders.iter_mut().enumerate() {
                let n = enc.encode(&heartbeat(id as u32, seq), &mut buf);
                assert!(n > 0, "encoder produced a frame");
                tx.send(&buf[..n]).unwrap();
                sent += 1;
            }
            tx.send(&frame(2, seq)).unwrap();
            sent += 1;
        }
        wait_for(&engine, |s| s.totals.accepted + s.totals.corrupt >= sent);
        let stats = engine.stats();
        assert_eq!(stats.totals.corrupt, 0, "{stats:?}");
        assert_eq!(stats.totals.accepted, sent, "{stats:?}");
        engine.shutdown().unwrap();
    }

    #[test]
    fn watch_is_rejected_while_running_and_resumes_after_shutdown() {
        let (_tx, mut engine, _clock) = rig(EngineConfig::default());
        engine.watch(ProcessId::new(1)).unwrap();
        engine.start().unwrap();
        assert_eq!(engine.watch(ProcessId::new(2)), Err(EngineError::Running));
        assert!(matches!(
            engine.unwatch(ProcessId::new(1)),
            Err(EngineError::Running)
        ));
        assert_eq!(engine.start(), Err(EngineError::Running));
        engine.shutdown().unwrap();
        assert_eq!(engine.watch(ProcessId::new(2)), Ok(true));
        // Detector state survived the stop/start cycle.
        assert_eq!(engine.watch(ProcessId::new(1)), Ok(false));
    }

    #[test]
    fn capacity_error_is_typed() {
        let (_tx, mut engine, _clock) = rig(EngineConfig {
            workers: 1,
            slots_per_shard: 1,
            ..EngineConfig::default()
        });
        engine.watch(ProcessId::new(1)).unwrap();
        assert!(matches!(
            engine.watch(ProcessId::new(2)),
            Err(EngineError::Capacity(_))
        ));
    }

    #[test]
    fn export_metrics_cover_every_lane_and_worker() {
        let (mut tx, mut engine, clock) = rig(two_workers());
        engine.watch(ProcessId::new(1)).unwrap();
        engine.start().unwrap();
        clock.set(Timestamp::from_secs(1));
        tx.send(&frame(1, 1)).unwrap();
        wait_for(&engine, |s| s.totals.accepted == 1);

        let registry = afd_obs::Registry::new();
        engine.export_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine.accepted"), Some(1));
        assert_eq!(snap.counter("engine.intake.frames"), Some(1));
        assert_eq!(snap.counter("engine.ring.dropped"), Some(0));
        assert_eq!(snap.gauge("engine.workers"), Some(2.0));
        assert_eq!(snap.gauge("engine.lanes"), Some(1.0));
        for idx in 0..2 {
            assert!(snap
                .gauge(&format!("engine.worker.{idx}.ring_depth"))
                .is_some());
            assert!(snap
                .gauge(&format!("engine.worker.{idx}.utilization"))
                .is_some());
        }
        engine.shutdown().unwrap();
    }

    /// Staleness shows in `published_at`: idle workers republish on
    /// their cadence, so the oldest shard's epoch follows the clock while
    /// the engine runs and freezes once it stops.
    #[test]
    fn published_at_follows_idle_workers_and_freezes_after_shutdown() {
        let (_tx, mut engine, clock) = rig(EngineConfig {
            workers: 2,
            publish_every: Duration::from_millis(1),
            ..EngineConfig::default()
        });
        for id in 0..4u32 {
            engine.watch(ProcessId::new(id)).unwrap();
        }
        engine.start().unwrap();
        let reader = engine.reader();
        let ten = Timestamp::from_secs(10);
        clock.set(ten);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while reader.published_at() < ten {
            assert!(std::time::Instant::now() < deadline, "no republish");
            std::thread::yield_now();
        }
        assert_eq!(reader.published_at(), ten);
        engine.shutdown().unwrap();
        clock.set(Timestamp::from_secs(20));
        assert_eq!(
            reader.published_at(),
            ten,
            "a stopped engine publishes nothing"
        );
        assert_eq!(reader.snapshot().len(), 4);

        // A consumer goes on querying a silent peer through the reader and
        // folds what it reads: the level is frozen at the last publish, so
        // Accruement sees no rise at all. ROADMAP item 2 (evaluate the level
        // at read time) must turn this verdict into a witness.
        let mut levels = PropertyFold::new(AccruementCheck::STRICT.epsilon);
        for k in 0..40 {
            clock.set(Timestamp::from_secs(20) + Duration::from_millis(250 * k));
            levels.observe(reader.level(ProcessId::new(0)).expect("watched"));
        }
        assert!(matches!(
            levels.accruement(&AccruementCheck::STRICT),
            Err(AccruementViolation::TooFewIncreases { observed: 0, .. })
        ));
    }

    #[test]
    fn multi_lane_udp_intake_mixes_v1_and_v2_frames() {
        use crate::lane::MultiUdpTransport;

        let clock = VirtualClock::new();
        let mut engine: Engine<NullTransport> =
            ParallelShardEngine::new(NullTransport, clock.clone(), two_workers(), |_| {
                SimpleAccrual::new(Timestamp::ZERO)
            });
        for id in 0..6u32 {
            engine.watch(ProcessId::new(id)).unwrap();
        }
        let multi = MultiUdpTransport::bind("127.0.0.1:0".parse().unwrap(), 2).unwrap();
        let addrs = multi.local_addrs().unwrap();
        engine.start_lanes(multi.into_lanes()).unwrap();
        clock.set(Timestamp::from_secs(1));

        let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        // Peers 1..6 speak v1, each to the lane its id hashes to.
        for id in 1..6u32 {
            let lane = MultiUdpTransport::lane_for(id, 2);
            sock.send_to(&frame(id, 1), addrs[lane]).unwrap();
        }
        // Peer 0 speaks v2: an intern frame then a compact delta through
        // the same lane (same per-lane decoder holds the intern table).
        let lane0 = MultiUdpTransport::lane_for(0, 2);
        let mut enc =
            DeltaEncoder::new(ProcessId::new(0), 7, std::time::Duration::from_secs(1), 64);
        let mut buf = [0u8; MAX_V2_FRAME];
        for seq in 1..=2u64 {
            let n = enc.encode(&heartbeat(0, seq), &mut buf);
            assert!(n > 0, "encoder produced a frame");
            sock.send_to(&buf[..n], addrs[lane0]).unwrap();
        }
        // Garbage long enough to clear the lane's short-datagram filter.
        sock.send_to(&[0xAAu8; 16], addrs[lane0]).unwrap();

        wait_for(&engine, |s| s.totals.accepted >= 7 && s.totals.corrupt >= 1);
        let stats = engine.stats();
        assert_eq!(stats.per_lane_frames.len(), 2);
        assert_eq!(stats.per_lane_frames.iter().sum::<u64>(), 7);
        assert_eq!(stats.per_lane_corrupt.iter().sum::<u64>(), 1);
        assert_eq!(stats.intake_frames, 7);

        let registry = afd_obs::Registry::new();
        engine.export_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("engine.lanes"), Some(2.0));
        let lane_frames = snap.counter("engine.lane.0.frames").unwrap()
            + snap.counter("engine.lane.1.frames").unwrap();
        assert_eq!(lane_frames, 7);
        assert!(snap.counter("engine.stage.decode_nanos").is_some());
        assert!(snap.counter("engine.stage.route_nanos").is_some());
        assert!(snap.counter("engine.stage.update_nanos").is_some());
        for idx in 0..2 {
            assert!(snap
                .counter(&format!("engine.worker.{idx}.update_nanos"))
                .is_some());
        }

        engine.shutdown().unwrap();
        // The parked engine transport came back through shutdown.
        assert!(engine.transport().is_some());
        let reader = engine.reader();
        assert_eq!(reader.snapshot().len(), 6);
    }

    #[test]
    fn start_lanes_rejects_empty_and_running() {
        let (_tx, mut engine, _clock) = rig(EngineConfig::default());
        assert!(matches!(
            engine.start_lanes(Vec::<crate::lane::UdpLane>::new()),
            Err(EngineError::Transport(_))
        ));
        engine.start().unwrap();
        let lane = crate::lane::UdpLane::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        assert!(matches!(
            engine.start_lanes(vec![lane]),
            Err(EngineError::Running)
        ));
        engine.shutdown().unwrap();
    }

    #[test]
    fn multi_lane_engine_restarts_on_its_own_transport() {
        use crate::lane::MultiUdpTransport;

        let clock = VirtualClock::new();
        let mut engine: Engine<NullTransport> =
            ParallelShardEngine::new(NullTransport, clock.clone(), two_workers(), |_| {
                SimpleAccrual::new(Timestamp::ZERO)
            });
        engine.watch(ProcessId::new(1)).unwrap();
        let multi = MultiUdpTransport::bind("127.0.0.1:0".parse().unwrap(), 2).unwrap();
        engine.start_lanes(multi.into_lanes()).unwrap();
        engine.shutdown().unwrap();
        // Detector state survives; a plain start still works against the
        // (null) engine transport, and hands it back again.
        assert_eq!(engine.watch(ProcessId::new(1)), Ok(false));
        engine.start().unwrap();
        assert!(engine.transport().is_none(), "lane 0's thread owns it");
        engine.shutdown().unwrap();
        assert!(engine.transport().is_some());
    }

    #[test]
    fn shutdown_and_drop_are_idempotent_and_clean() {
        let (_tx, mut engine, _clock) = rig(two_workers());
        engine.shutdown().unwrap(); // idle: no-op
        engine.start().unwrap();
        engine.shutdown().unwrap();
        engine.start().unwrap();
        // Dropped while running: Drop joins everything.
    }
}
