//! Live runtime for accrual failure detectors: Algorithm 4 over real
//! transports, with fault injection and robustness machinery.
//!
//! This crate runs the monitor/monitored protocol of Défago et al. §5.1
//! *live*:
//! threaded heartbeat senders push framed, checksummed heartbeats through a
//! pluggable [`Transport`] — two calls, `send` and `recv_batch`, over an
//! in-process [`ChannelTransport`] or a UDP [`UdpLane`] — and **one monitor
//! pipeline** — intake, accept, publish; see [`shard`] — turns them
//! into suspicion levels that readers query lock-free. The pipeline has two
//! executors:
//!
//! - [`ShardedMonitor`] runs every stage inline on the caller's thread,
//!   one [`tick`](shard::ShardedMonitor::tick) at a time: deterministic
//!   under a virtual clock, and with `shards: 1` the plain single-stream
//!   reading of Algorithm 4 — the one [`replay`](mod@replay) runs every
//!   recorded or simulated `afd-sim` trace through, so the paper's
//!   experiments and every chaos run read the receive rule that ships;
//! - [`ParallelShardEngine`] runs the same stages on lane threads and one
//!   worker thread per shard, joined by SPSC rings — the multi-core
//!   deployment.
//!
//! Robustness is the point, not an afterthought:
//!
//! - transport hiccups get bounded retry with exponential backoff and
//!   jitter ([`retry`]), surfacing typed errors once the budget is spent;
//! - a monitor thread that panics raises a flag the engine reports
//!   without blocking ([`ParallelShardEngine::poisoned`]), and one that
//!   stalls or stops shows to every reader as a
//!   [`published_at`](SnapshotReader::published_at) that no longer moves;
//! - adaptive detectors behind [`GracefulDegradation`] fall back to
//!   simple elapsed-time accrual when faults starve their sampling window,
//!   without ever violating Accruement (Property 1);
//! - the [`FaultInjector`] transport wrapper replays seeded
//!   drop/duplicate/reorder/delay/corrupt/partition schedules on live
//!   transports, and [`chaos`] runs turn an `afd-sim` scenario — loss,
//!   jitter, its phases (partitions, sender outages, pre-GST chaos), a
//!   final crash — into a
//!   deterministic virtual-time run: afd-sim generates one trace, and the
//!   shipping monitor replays it once per detector of the zoo.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests compare exact values"))]

pub mod chaos;
pub mod clock;
pub mod degrade;
pub mod engine;
pub mod error;
pub mod fault;
pub mod intern;
pub mod lane;
pub mod persist;
pub mod replay;
pub mod retry;
pub mod ring;
pub mod sender;
pub mod seq;
pub mod shard;
pub mod snapshot;
pub mod transport;
pub mod varint;
pub mod wire;

pub use chaos::{
    run_chaos, run_chaos_script, ChaosReport, ChaosScript, LinkStats, ScriptEvent, ScriptReport,
    ScriptSample, ZooDetectorReport,
};
pub use clock::{Clock, SystemClock, VirtualClock};
pub use degrade::{DegradeConfig, GracefulDegradation};
pub use engine::{EngineConfig, EngineStats, ParallelShardEngine};
pub use error::{EngineError, RuntimeError, TransportError};
pub use fault::{FaultInjector, FaultPlan, FaultStats};
pub use intern::{InternEntry, InternSlab};
pub use lane::{MultiUdpStats, MultiUdpTransport, UdpLane, UdpLaneStats, DEFAULT_RECV_BUDGET};
pub use persist::{
    CheckpointConfig, CheckpointReport, Checkpointer, DirSink, FaultySink, FaultySinkPlan,
    FaultySinkStats, MemSink, PersistError, RestoreImport, Restored, RestoredPeer, SegmentSink,
};
pub use retry::RetryPolicy;
pub use ring::{heartbeat_ring, RingConsumer, RingProducer, RingWatch};
pub use sender::{spawn_sender, SenderConfig, SenderCore, SenderHandle, WireVersion};
pub use seq::{classify, SeqVerdict};
pub use shard::{
    MonitorStats, ShardCapacityError, ShardConfig, ShardedMonitor, ShardedStats, TickReport,
};
pub use snapshot::SnapshotReader;
pub use transport::{
    ChannelTransport, FrameBatch, NullTransport, Transport, MAX_DATAGRAM, PROBE_LEN,
};
pub use wire::{
    DeltaEncoder, Heartbeat, WireDecoder, WireError, DELTA_TAG, FRAME_LEN, INTERN_LEN, MAX_V2_FRAME,
};
