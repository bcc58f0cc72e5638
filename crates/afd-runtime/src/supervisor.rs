//! Watchdog supervision for monitor threads.
//!
//! A monitoring loop that silently wedges is worse than one that dies: the
//! detectors' levels freeze and every application above trusts a corpse.
//! [`Watchdog`] is the pure stall-detection logic — it observes a liveness
//! counter (bumped by [`ShardedMonitor::tick`](crate::shard::ShardedMonitor::tick))
//! and flags a loop whose counter stops moving. [`Supervisor`] owns a
//! respawnable thread and uses a watchdog plus thread-exit detection to
//! restart it, counting restarts so operators can see the churn.
//!
//! # Restarting with durable state
//!
//! A restarted monitor does not have to re-learn every peer's arrival
//! statistics from scratch. When checkpoints are enabled
//! ([`persist`](crate::persist)), the supervisor's spawn closure should
//! **restore before re-watching**: call
//! [`Checkpointer::restore`](crate::persist::Checkpointer::restore)
//! against the shared sink, bulk-import the recovered peers via
//! [`ShardedMonitor::restore`](crate::shard::ShardedMonitor::restore)
//! (which seeds detectors with their saved window moments and re-arms
//! replay rejection), and only then watch any peers that were not in the
//! checkpoint. The kill-during-checkpoint chaos test in
//! `tests/persist.rs` exercises exactly this restart path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use afd_core::time::{Duration, Timestamp};

use crate::clock::Clock;

/// Pure stall detection over a monotone liveness counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    stall_after: Duration,
    last_tick: u64,
    last_progress: Timestamp,
}

impl Watchdog {
    /// Creates a watchdog that calls a loop stalled once its counter has
    /// not moved for `stall_after`.
    pub fn new(stall_after: Duration, now: Timestamp) -> Self {
        Watchdog {
            stall_after,
            last_tick: 0,
            last_progress: now,
        }
    }

    /// Feeds one observation; returns `true` while the loop counts as
    /// alive.
    pub fn observe(&mut self, tick: u64, now: Timestamp) -> bool {
        if tick != self.last_tick {
            self.last_tick = tick;
            self.last_progress = now;
            return true;
        }
        now.saturating_duration_since(self.last_progress) < self.stall_after
    }
}

/// Stall detection across a set of labeled liveness counters — the
/// multi-thread face of [`Watchdog`], used by the
/// [`ParallelShardEngine`](crate::engine::ParallelShardEngine) to watch
/// its lane threads and every shard worker at once.
///
/// Register each thread's counter with [`track`](HealthBoard::track);
/// call [`observe`](HealthBoard::observe) periodically and act on the
/// labels it returns (a stalled worker is either wedged or dead — the
/// engine distinguishes the two via its panic flags).
#[derive(Debug, Default)]
pub struct HealthBoard {
    entries: Vec<(String, Arc<AtomicU64>, Watchdog)>,
    stall_after: Duration,
}

impl HealthBoard {
    /// Creates a board that calls a counter stalled once it has not moved
    /// for `stall_after`, measured from `now`.
    pub fn new(stall_after: Duration) -> Self {
        HealthBoard {
            entries: Vec::new(),
            stall_after,
        }
    }

    /// Starts watching `counter` under `label`, with the grace period
    /// restarting at `now`.
    pub fn track(&mut self, label: impl Into<String>, counter: Arc<AtomicU64>, now: Timestamp) {
        let watchdog = Watchdog::new(self.stall_after, now);
        self.entries.push((label.into(), counter, watchdog));
    }

    /// Number of tracked counters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is tracked yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Feeds every counter one observation; returns the labels that are
    /// stalled (empty when all threads are making progress).
    pub fn observe(&mut self, now: Timestamp) -> Vec<&str> {
        let mut stalled = Vec::new();
        for (label, counter, watchdog) in &mut self.entries {
            let tick = counter.load(Ordering::Relaxed);
            if !watchdog.observe(tick, now) {
                stalled.push(label.as_str());
            }
        }
        stalled
    }

    /// Publishes each counter under `health.<label>.ticks` into
    /// `registry`.
    pub fn export_metrics(&self, registry: &afd_obs::Registry) {
        for (label, counter, _) in &self.entries {
            registry
                .counter(&format!("health.{label}.ticks"))
                .set(counter.load(Ordering::Relaxed));
        }
    }
}

/// What a supervised spawn hands back to its [`Supervisor`].
#[derive(Debug)]
pub struct SupervisedThread {
    /// Counter the thread bumps every loop iteration.
    pub liveness: Arc<AtomicU64>,
    /// Cooperative stop switch the thread honors.
    pub stop: Arc<AtomicBool>,
    /// The thread itself.
    pub handle: JoinHandle<()>,
}

/// Restarts a worker thread when it dies or stalls.
///
/// Time comes from an injected [`Clock`]: production wiring hands it a
/// [`SystemClock`](crate::clock::SystemClock), while tests drive stall
/// detection deterministically with a
/// [`VirtualClock`](crate::clock::VirtualClock).
pub struct Supervisor<C> {
    spawn: Box<dyn FnMut() -> SupervisedThread + Send>,
    current: SupervisedThread,
    watchdog: Watchdog,
    clock: C,
    stall_after: Duration,
    restarts: u64,
}

impl<C> std::fmt::Debug for Supervisor<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("restarts", &self.restarts)
            .finish_non_exhaustive()
    }
}

impl<C: Clock> Supervisor<C> {
    /// Spawns the first worker via `spawn` and supervises it on `clock`'s
    /// timeline.
    pub fn new(
        mut spawn: impl FnMut() -> SupervisedThread + Send + 'static,
        stall_after: Duration,
        clock: C,
    ) -> Self {
        let current = spawn();
        let watchdog = Watchdog::new(stall_after, clock.now());
        Supervisor {
            spawn: Box::new(spawn),
            current,
            watchdog,
            clock,
            stall_after,
            restarts: 0,
        }
    }

    fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Checks the worker once; call this periodically. Returns `true` if a
    /// restart happened.
    pub fn tick(&mut self) -> bool {
        let now = self.now();
        let tick = self.current.liveness.load(Ordering::Relaxed);
        let dead = self.current.handle.is_finished();
        let stalled = !self.watchdog.observe(tick, now);
        if !(dead || stalled) {
            return false;
        }
        // Ask the old thread to stop (a stalled-but-running loop may yet
        // honor it), then replace it. The old handle is dropped, detaching
        // the thread; a truly wedged one cannot be force-killed, only
        // superseded.
        self.current.stop.store(true, Ordering::SeqCst);
        self.current = (self.spawn)();
        self.watchdog = Watchdog::new(self.stall_after, self.now());
        self.restarts += 1;
        true
    }

    /// How many times the worker was restarted.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Publishes the restart counter into `registry` under `supervisor.*`.
    pub fn export_metrics(&self, registry: &afd_obs::Registry) {
        registry.counter("supervisor.restarts").set(self.restarts);
    }

    /// Stops the current worker and joins it.
    pub fn shutdown(self) {
        self.current.stop.store(true, Ordering::SeqCst);
        let _ = self.current.handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{SystemClock, VirtualClock};

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn watchdog_tracks_progress() {
        let mut w = Watchdog::new(Duration::from_secs(5), ts(0));
        assert!(w.observe(1, ts(1)));
        assert!(w.observe(2, ts(4)));
        // No progress, but within the stall budget.
        assert!(w.observe(2, ts(8)));
        // 5 s with no movement: stalled.
        assert!(!w.observe(2, ts(9)));
        // Movement resurrects it.
        assert!(w.observe(3, ts(10)));
    }

    #[test]
    fn health_board_flags_only_the_stalled_labels() {
        let mut board = HealthBoard::new(Duration::from_secs(5));
        let alive = Arc::new(AtomicU64::new(0));
        let wedged = Arc::new(AtomicU64::new(0));
        board.track("intake", Arc::clone(&alive), ts(0));
        board.track("worker.0", Arc::clone(&wedged), ts(0));
        assert_eq!(board.len(), 2);

        alive.store(1, Ordering::Relaxed);
        wedged.store(1, Ordering::Relaxed);
        assert!(board.observe(ts(1)).is_empty());

        // Only `alive` keeps moving.
        alive.store(2, Ordering::Relaxed);
        assert!(board.observe(ts(4)).is_empty());
        alive.store(3, Ordering::Relaxed);
        assert_eq!(board.observe(ts(7)), vec!["worker.0"]);

        // Movement resurrects the wedged label.
        wedged.store(2, Ordering::Relaxed);
        alive.store(4, Ordering::Relaxed);
        assert!(board.observe(ts(8)).is_empty());
    }

    #[test]
    fn health_board_exports_per_label_counters() {
        let mut board = HealthBoard::new(Duration::from_secs(1));
        let c = Arc::new(AtomicU64::new(9));
        board.track("intake", Arc::clone(&c), ts(0));
        let registry = afd_obs::Registry::new();
        board.export_metrics(&registry);
        assert_eq!(registry.snapshot().counter("health.intake.ticks"), Some(9));
    }

    fn looping_thread(iterations: Option<u64>) -> SupervisedThread {
        let liveness = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let t_liveness = Arc::clone(&liveness);
        let t_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut n = 0u64;
            loop {
                if t_stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(limit) = iterations {
                    if n >= limit {
                        return; // simulated death
                    }
                }
                n += 1;
                // lint:allow(relaxed-atomics-audit, monotone liveness tick; the watchdog only needs eventual progress, no cross-thread ordering)
                t_liveness.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        SupervisedThread {
            liveness,
            stop,
            handle,
        }
    }

    #[test]
    fn healthy_worker_is_left_alone() {
        let mut sup = Supervisor::new(
            || looping_thread(None),
            Duration::from_secs(5),
            SystemClock::new(),
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!sup.tick());
        assert_eq!(sup.restarts(), 0);
        sup.shutdown();
    }

    #[test]
    fn dead_worker_is_restarted() {
        let mut sup = Supervisor::new(
            || looping_thread(Some(3)),
            Duration::from_secs(60),
            SystemClock::new(),
        );
        // Wait for the worker to run off the end of its 3 iterations.
        let mut restarted = false;
        for _ in 0..200 {
            if sup.tick() {
                restarted = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(restarted, "supervisor never noticed the dead worker");
        assert_eq!(sup.restarts(), 1);
        sup.shutdown();
    }

    /// The reason the epoch goes through [`Clock`]: a stall is provable in
    /// virtual time, with no real waiting and no flakiness.
    #[test]
    fn stalled_worker_is_restarted_under_virtual_time() {
        let clock = VirtualClock::new();
        // A worker that parks forever without bumping its counter — but
        // still honors stop, so shutdown stays clean.
        let spawn = || {
            let liveness = Arc::new(AtomicU64::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let t_stop = Arc::clone(&stop);
            let handle = std::thread::spawn(move || {
                while !t_stop.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
            SupervisedThread {
                liveness,
                stop,
                handle,
            }
        };
        let mut sup = Supervisor::new(spawn, Duration::from_secs(5), clock.clone());
        // Within the stall budget: nothing happens.
        clock.advance(Duration::from_secs(4));
        assert!(!sup.tick());
        // Budget exceeded with no liveness movement: restart, immediately,
        // deterministically.
        clock.advance(Duration::from_secs(2));
        assert!(sup.tick());
        assert_eq!(sup.restarts(), 1);
        sup.shutdown();
    }
}
