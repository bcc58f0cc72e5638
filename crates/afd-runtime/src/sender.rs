//! The sending half of Algorithm 4: periodic heartbeats with retry,
//! crash/recover controls, and a thread wrapper for live use.
//!
//! [`SenderCore`] is the pure stepping logic — given "now", decide whether
//! a heartbeat is due and push it through the transport under a
//! [`RetryPolicy`]. The model checker's runtime replay
//! (`afd_model::runtime_trace`) drives cores directly in virtual time;
//! [`spawn_sender`] wraps one in a thread against the real clock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use afd_core::process::ProcessId;
use afd_core::time::{Duration, Timestamp};
use afd_sim::rng::SimRng;

use crate::clock::Clock;
use crate::error::RuntimeError;
use crate::retry::RetryPolicy;
use crate::transport::Transport;
use crate::wire::{DeltaEncoder, Heartbeat, FRAME_LEN, MAX_V2_FRAME};

/// Which wire format a sender puts on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireVersion {
    /// Fixed 28-byte v1 frames ([`Heartbeat::encode`]). Always decodable,
    /// even by pre-v2 monitors.
    V1,
    /// Compact v2 delta frames through a [`DeltaEncoder`]: a
    /// self-describing intern/checkpoint frame every `resync_every`
    /// heartbeats, varint deltas (typically 5–7 bytes) in between. The
    /// sender's intern index is its own process id, so indices are
    /// collision-free across any sender population.
    V2 {
        /// Heartbeats between checkpoint frames (floored at 1).
        resync_every: u32,
    },
}

/// Static configuration of a heartbeat sender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenderConfig {
    /// The identity stamped on every heartbeat.
    pub id: ProcessId,
    /// Target heartbeat cadence (Algorithm 4's Δ_i). Zero means "as fast
    /// as the caller polls": every [`SenderCore::poll`] sends.
    pub interval: Duration,
    /// Retry policy for transport send failures.
    pub retry: RetryPolicy,
    /// Wire format for outgoing heartbeats.
    pub wire: WireVersion,
}

impl SenderConfig {
    /// A sender for `id` at `interval`, with the default retry policy and
    /// the v1 wire format.
    pub fn new(id: ProcessId, interval: Duration) -> Self {
        SenderConfig {
            id,
            interval,
            retry: RetryPolicy::default(),
            wire: WireVersion::V1,
        }
    }

    /// Switches to the compact v2 delta wire format.
    pub fn with_wire(mut self, wire: WireVersion) -> Self {
        self.wire = wire;
        self
    }
}

/// The deterministic heartbeat-sending state machine.
#[derive(Debug)]
pub struct SenderCore {
    config: SenderConfig,
    seq: u64,
    next_due: Timestamp,
    crashed: bool,
    rng: SimRng,
    retry_attempts: u64,
    backoff_total: Duration,
    /// Present iff `config.wire` is [`WireVersion::V2`].
    encoder: Option<DeltaEncoder>,
    wire_bytes: u64,
}

impl SenderCore {
    /// Creates a sender whose first heartbeat is due at `start`.
    ///
    /// `seed` drives retry-backoff jitter only.
    pub fn new(config: SenderConfig, start: Timestamp, seed: u64) -> Self {
        let encoder = match config.wire {
            WireVersion::V1 => None,
            WireVersion::V2 { resync_every } => Some(DeltaEncoder::new(
                config.id,
                config.id.as_u32(),
                std::time::Duration::from_nanos(config.interval.as_nanos()),
                resync_every,
            )),
        };
        SenderCore {
            config,
            seq: 0,
            next_due: start,
            crashed: false,
            rng: SimRng::derive(seed, u64::from(config.id.as_u32())),
            retry_attempts: 0,
            backoff_total: Duration::ZERO,
            encoder,
            wire_bytes: 0,
        }
    }

    /// Simulates a process crash: no heartbeats until
    /// [`recover`](Self::recover).
    pub fn crash(&mut self) {
        self.crashed = true;
    }

    /// Recovers from a crash; the next heartbeat is due immediately.
    pub fn recover(&mut self, now: Timestamp) {
        self.crashed = false;
        self.next_due = now;
    }

    /// `true` while crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Heartbeats attempted so far: every beat that came due while not
    /// crashed, including those whose send exhausted its retries.
    pub fn sent(&self) -> u64 {
        self.seq
    }

    /// Send attempts beyond the first, summed over all heartbeats — how
    /// hard the retry machinery has had to work.
    pub fn retry_attempts(&self) -> u64 {
        self.retry_attempts
    }

    /// Total time handed to the `sleep` callback as retry backoff.
    pub fn backoff_total(&self) -> Duration {
        self.backoff_total
    }

    /// Bytes of heartbeat frames encoded so far — the number the v2 delta
    /// wire exists to shrink. Each frame counts once, however many
    /// attempts it took and whether or not the transport ever accepted it.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Publishes sender counters into `registry` under `sender.*`.
    pub fn export_metrics(&self, registry: &afd_obs::Registry) {
        registry.counter("sender.heartbeats_sent").set(self.seq);
        registry
            .counter("sender.retry_attempts")
            .set(self.retry_attempts);
        registry
            .gauge("sender.backoff_seconds")
            .set(self.backoff_total.as_secs_f64());
        registry.counter("sender.wire_bytes").set(self.wire_bytes);
    }

    /// Sends a heartbeat if one is due at `now`; returns whether one was
    /// sent. Pauses between retries are delegated to `sleep` so callers
    /// choose real or virtual waiting.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RetriesExhausted`] if the transport kept
    /// failing through the whole retry budget. The heartbeat is then
    /// dropped (the next one is still scheduled): heartbeats are
    /// best-effort, and the monitor side accrues suspicion on its own.
    pub fn poll<T: Transport>(
        &mut self,
        now: Timestamp,
        transport: &mut T,
        mut sleep: impl FnMut(Duration),
    ) -> Result<bool, RuntimeError> {
        if self.crashed || now < self.next_due {
            return Ok(false);
        }
        // Schedule the next beat first so a failed send cannot wedge the
        // cadence: the first point of the `next_due + k·interval` grid
        // past `now`, however many beats were missed. A zero interval has
        // no grid, and the next poll is due.
        let late = now.saturating_duration_since(self.next_due).as_nanos();
        let ahead = match self.config.interval.as_nanos() {
            0 => 0,
            interval => interval - late % interval,
        };
        self.next_due = now + Duration::from_nanos(ahead);
        self.seq += 1;
        let hb = Heartbeat {
            sender: self.config.id,
            seq: self.seq,
            sent_at: now,
        };
        let mut buf = [0u8; MAX_V2_FRAME];
        let len = match &mut self.encoder {
            Some(enc) => {
                let n = enc.encode(&hb, &mut buf);
                debug_assert!(n > 0, "buffer is MAX_V2_FRAME and sender matches");
                n
            }
            None => {
                buf[..FRAME_LEN].copy_from_slice(&hb.encode());
                FRAME_LEN
            }
        };
        let frame = &buf[..len];
        self.wire_bytes += len as u64;
        let mut attempts = 0u64;
        let mut backoff = Duration::ZERO;
        let result = self.config.retry.run(
            &mut self.rng,
            |pause| {
                backoff += pause;
                sleep(pause);
            },
            || {
                attempts += 1;
                transport.send(frame)
            },
        );
        // Retry effort is recorded even when the budget is exhausted —
        // that is exactly when an operator wants to see it.
        self.retry_attempts += attempts.saturating_sub(1);
        self.backoff_total += backoff;
        if result.is_err() {
            // The frame never left. If it was a checkpoint, the receiver
            // cannot decode a delta against it, so the next frame out is
            // a checkpoint again.
            if let Some(enc) = &mut self.encoder {
                enc.forget_checkpoint();
            }
        }
        result?;
        Ok(true)
    }
}

/// Shared crash/stop switches for a threaded sender.
#[derive(Debug, Default)]
struct SenderCtrl {
    crashed: AtomicBool,
    stopped: AtomicBool,
}

/// A handle to a heartbeat sender running on its own thread.
#[derive(Debug)]
pub struct SenderHandle {
    ctrl: Arc<SenderCtrl>,
    handle: JoinHandle<Result<(), RuntimeError>>,
}

impl SenderHandle {
    /// Simulates a crash of the monitored process.
    pub fn crash(&self) {
        self.ctrl.crashed.store(true, Ordering::SeqCst);
    }

    /// Recovers the monitored process.
    pub fn recover(&self) {
        self.ctrl.crashed.store(false, Ordering::SeqCst);
    }

    /// Stops the thread and returns its final result.
    ///
    /// # Errors
    ///
    /// Propagates the thread's terminal [`RuntimeError`], or reports
    /// [`RuntimeError::ThreadFailed`] if it panicked.
    pub fn stop(self) -> Result<(), RuntimeError> {
        self.ctrl.stopped.store(true, Ordering::SeqCst);
        match self.handle.join() {
            Ok(result) => result,
            Err(_) => Err(RuntimeError::ThreadFailed {
                component: "sender",
            }),
        }
    }
}

/// Spawns a heartbeat sender thread over `transport`.
///
/// The thread beats at `config.interval` until [`SenderHandle::stop`],
/// simulating crashes while [`SenderHandle::crash`] is in effect. A send
/// that exhausts its retry budget terminates the thread with the typed
/// error (surfaced by `stop`).
pub fn spawn_sender<T, C>(
    mut transport: T,
    clock: C,
    config: SenderConfig,
    seed: u64,
) -> SenderHandle
where
    T: Transport + 'static,
    C: Clock + 'static,
{
    let ctrl = Arc::new(SenderCtrl::default());
    let thread_ctrl = Arc::clone(&ctrl);
    let handle = std::thread::spawn(move || {
        let mut core = SenderCore::new(config, clock.now(), seed);
        // Poll a few times per interval; sleeping the whole interval would
        // make crash/recover and stop reaction times sloppy.
        let nap = std::time::Duration::from_nanos((config.interval.as_nanos() / 8).max(100_000));
        loop {
            if thread_ctrl.stopped.load(Ordering::SeqCst) {
                return Ok(());
            }
            let crashed = thread_ctrl.crashed.load(Ordering::SeqCst);
            if crashed && !core.is_crashed() {
                core.crash();
            } else if !crashed && core.is_crashed() {
                core.recover(clock.now());
            }
            core.poll(clock.now(), &mut transport, |d| {
                // lint:allow(no-thread-sleep, this IS the real-time wrapper; virtual-time callers drive SenderCore directly)
                std::thread::sleep(std::time::Duration::from_nanos(d.as_nanos()));
            })?;
            // lint:allow(no-thread-sleep, real-time pacing nap of the thread wrapper; virtual-time runs never run this loop)
            std::thread::sleep(nap);
        }
    });
    SenderHandle { ctrl, handle }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{SystemClock, VirtualClock};
    use crate::error::TransportError;
    use crate::transport::{drain_frames, ChannelTransport};
    use crate::wire::Heartbeat;

    fn config() -> SenderConfig {
        SenderConfig::new(ProcessId::new(1), Duration::from_secs(1))
    }

    #[test]
    fn beats_on_schedule_in_virtual_time() {
        let (mut side_a, mut side_b) = ChannelTransport::pair();
        let mut core = SenderCore::new(config(), Timestamp::ZERO, 1);
        for s in 0..10u64 {
            let sent = core
                .poll(Timestamp::from_secs(s), &mut side_a, |_| {})
                .unwrap();
            assert!(sent, "beat due at t={s}");
        }
        assert_eq!(core.sent(), 10);
        let seqs: Vec<u64> = drain_frames(&mut side_b)
            .iter()
            .map(|f| Heartbeat::decode(f).unwrap().seq)
            .collect();
        assert_eq!(seqs, (1..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn nothing_sent_while_crashed_then_resumes() {
        let (mut side_a, mut side_b) = ChannelTransport::pair();
        let mut core = SenderCore::new(config(), Timestamp::ZERO, 1);
        core.poll(Timestamp::ZERO, &mut side_a, |_| {}).unwrap();
        core.crash();
        for s in 1..5u64 {
            let sent = core
                .poll(Timestamp::from_secs(s), &mut side_a, |_| {})
                .unwrap();
            assert!(!sent, "crashed sender must stay silent");
        }
        core.recover(Timestamp::from_secs(5));
        assert!(core
            .poll(Timestamp::from_secs(5), &mut side_a, |_| {})
            .unwrap());
        assert_eq!(drain_frames(&mut side_b).len(), 2);
    }

    #[test]
    fn missed_intervals_do_not_burst() {
        let (mut side_a, mut side_b) = ChannelTransport::pair();
        let mut core = SenderCore::new(config(), Timestamp::ZERO, 1);
        // Wake up very late: exactly one beat goes out, not a backlog.
        assert!(core
            .poll(Timestamp::from_secs(100), &mut side_a, |_| {})
            .unwrap());
        assert!(!core
            .poll(Timestamp::from_secs(100), &mut side_a, |_| {})
            .unwrap());
        assert_eq!(drain_frames(&mut side_b).len(), 1);
    }

    #[test]
    fn scheduling_the_next_beat_does_not_walk_the_missed_ones() {
        const S: u64 = 1_000_000_000;
        let core = |interval| {
            let (mut side_a, side_b) = ChannelTransport::pair();
            let config = SenderConfig::new(ProcessId::new(1), interval);
            let mut core = SenderCore::new(config, Timestamp::ZERO, 1);
            move |nanos| {
                let _connected = &side_b;
                core.poll(Timestamp::from_nanos(nanos), &mut side_a, |_| {})
                    .unwrap()
            }
        };
        // 10¹⁰ missed beats of a 1 ns cadence: one send, next due 1 ns on.
        let mut fast = core(Duration::from_nanos(1));
        assert!(fast(10 * S) && !fast(10 * S) && fast(10 * S + 1));
        // A zero interval is due on every poll.
        let mut eager = core(Duration::ZERO);
        assert!(eager(10 * S) && eager(10 * S));
        // A late poll stays on the grid of the start time: 0.3 s beats
        // polled at 1.0 s are next due at 1.2 s, not at 1.3 s.
        let mut late = core(Duration::from_millis(300));
        assert!(late(S) && !late(S + S / 10) && late(S + S / 5));
    }

    #[test]
    fn dead_transport_exhausts_retries_into_typed_error() {
        let (side_a, side_b) = ChannelTransport::pair();
        drop(side_b);
        let mut side_a = side_a;
        let mut core = SenderCore::new(config(), Timestamp::ZERO, 1);
        let mut pauses = 0;
        let err = core
            .poll(Timestamp::ZERO, &mut side_a, |_| pauses += 1)
            .unwrap_err();
        assert_eq!(
            err,
            RuntimeError::RetriesExhausted {
                attempts: 5,
                last: TransportError::Disconnected,
            }
        );
        assert_eq!(pauses, 4, "one backoff pause between each attempt");
        // The wasted effort is visible to observability even though the
        // heartbeat was ultimately dropped.
        assert_eq!(core.retry_attempts(), 4);
        assert!(!core.backoff_total().is_zero());
        let registry = afd_obs::Registry::new();
        core.export_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sender.retry_attempts"), Some(4));
        assert!(snap.gauge("sender.backoff_seconds").unwrap() > 0.0);
    }

    #[test]
    fn clean_sends_record_no_retry_effort() {
        let (mut side_a, _side_b) = ChannelTransport::pair();
        let mut core = SenderCore::new(config(), Timestamp::ZERO, 1);
        for s in 0..5u64 {
            core.poll(Timestamp::from_secs(s), &mut side_a, |_| {})
                .unwrap();
        }
        assert_eq!(core.retry_attempts(), 0);
        assert_eq!(core.backoff_total(), Duration::ZERO);
    }

    #[test]
    fn v2_sender_interops_with_wire_decoder_and_uses_fewer_bytes() {
        let (mut side_a, mut side_b) = ChannelTransport::pair();
        let cfg = config().with_wire(WireVersion::V2 { resync_every: 8 });
        let mut v2 = SenderCore::new(cfg, Timestamp::ZERO, 1);
        let (mut v1_a, _v1_b) = ChannelTransport::pair();
        let mut v1 = SenderCore::new(config(), Timestamp::ZERO, 1);
        for s in 0..32u64 {
            assert!(v2
                .poll(Timestamp::from_secs(s), &mut side_a, |_| {})
                .unwrap());
            v1.poll(Timestamp::from_secs(s), &mut v1_a, |_| {}).unwrap();
        }
        assert!(
            v2.wire_bytes() * 2 < v1.wire_bytes(),
            "v2 wire ({}) should be far smaller than v1 ({})",
            v2.wire_bytes(),
            v1.wire_bytes()
        );
        // Every v2 frame — checkpoints and deltas — reconstructs the exact
        // heartbeat stream through the receiver-side decoder.
        let mut dec = crate::wire::WireDecoder::new();
        let mut seqs = Vec::new();
        for f in drain_frames(&mut side_b) {
            let hb = dec.decode(&f).unwrap();
            assert_eq!(hb.sender, ProcessId::new(1));
            assert_eq!(hb.sent_at, Timestamp::from_secs(hb.seq - 1));
            seqs.push(hb.seq);
        }
        assert_eq!(seqs, (1..=32).collect::<Vec<u64>>());
    }

    /// A medium whose send buffer is full for the first `refuse` sends.
    struct RefuseFirst {
        refuse: u32,
        out: Vec<Vec<u8>>,
    }

    impl Transport for RefuseFirst {
        fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
            if self.refuse > 0 {
                self.refuse -= 1;
                return Err(TransportError::Io("send buffer full".to_owned()));
            }
            self.out.push(frame.to_vec());
            Ok(())
        }

        fn recv_batch(
            &mut self,
            _batch: &mut crate::transport::FrameBatch,
        ) -> Result<usize, TransportError> {
            Ok(0)
        }
    }

    #[test]
    fn a_checkpoint_that_was_never_sent_is_sent_again() {
        // The first heartbeat — the intern frame — exhausts its five
        // attempts. The receiver never saw that checkpoint, so the next
        // frame out must be a checkpoint again, not a delta against it.
        let cfg = config().with_wire(WireVersion::V2 { resync_every: 8 });
        let mut core = SenderCore::new(cfg, Timestamp::ZERO, 1);
        let mut medium = RefuseFirst {
            refuse: 5,
            out: Vec::new(),
        };
        assert!(matches!(
            core.poll(Timestamp::ZERO, &mut medium, |_| {}),
            Err(RuntimeError::RetriesExhausted { attempts: 5, .. })
        ));
        for s in 1..4u64 {
            assert!(core
                .poll(Timestamp::from_secs(s), &mut medium, |_| {})
                .unwrap());
        }
        let mut dec = crate::wire::WireDecoder::new();
        let seqs: Vec<_> = medium
            .out
            .iter()
            .map(|f| dec.decode(f).map(|hb| hb.seq))
            .collect();
        assert_eq!(seqs, [Ok(2), Ok(3), Ok(4)]);
        let lens: Vec<usize> = medium.out.iter().map(Vec::len).collect();
        assert_eq!(lens, [crate::wire::INTERN_LEN, 5, 5]);
        // The counters count what was attempted and encoded, the lost
        // checkpoint included.
        assert_eq!(core.sent(), 4);
        assert_eq!(core.wire_bytes(), 40 + 40 + 5 + 5);
    }

    #[test]
    fn threaded_sender_beats_and_stops_cleanly() {
        let (side_a, mut side_b) = ChannelTransport::pair();
        let cfg = SenderConfig::new(ProcessId::new(3), Duration::from_millis(10));
        let handle = spawn_sender(side_a, SystemClock::new(), cfg, 7);
        std::thread::sleep(std::time::Duration::from_millis(80));
        handle.stop().expect("clean shutdown");
        let frames = drain_frames(&mut side_b);
        for f in &frames {
            assert_eq!(Heartbeat::decode(f).unwrap().sender, ProcessId::new(3));
        }
        let count = frames.len();
        assert!(count >= 3, "expected several beats in 80 ms, got {count}");
    }

    #[test]
    fn threaded_crash_recover_cycle() {
        let (side_a, mut side_b) = ChannelTransport::pair();
        let cfg = SenderConfig::new(ProcessId::new(4), Duration::from_millis(5));
        let handle = spawn_sender(side_a, SystemClock::new(), cfg, 8);
        std::thread::sleep(std::time::Duration::from_millis(30));
        handle.crash();
        std::thread::sleep(std::time::Duration::from_millis(30));
        // Drain what was sent before/at the crash.
        let before = drain_frames(&mut side_b).len();
        std::thread::sleep(std::time::Duration::from_millis(40));
        let during = drain_frames(&mut side_b).len();
        assert_eq!(during, 0, "no beats while crashed");
        handle.recover();
        std::thread::sleep(std::time::Duration::from_millis(40));
        handle.stop().expect("clean shutdown");
        let after = drain_frames(&mut side_b).len();
        assert!(before >= 1);
        assert!(after >= 1, "beats must resume after recovery");
    }

    #[test]
    fn virtual_clock_works_with_threaded_sender_api() {
        // Not a timing test — just proves the clock abstraction composes.
        let (side_a, _side_b) = ChannelTransport::pair();
        let clock = VirtualClock::new();
        let cfg = SenderConfig::new(ProcessId::new(5), Duration::from_millis(50));
        let handle = spawn_sender(side_a, clock.clone(), cfg, 9);
        clock.advance(Duration::from_millis(200));
        std::thread::sleep(std::time::Duration::from_millis(20));
        handle.stop().expect("clean shutdown");
    }
}
