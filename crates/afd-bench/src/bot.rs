//! The Bag-of-Tasks application of §1.3, on the monitor that ships.
//!
//! A master hands independent tasks to workers, some of which crash, and
//! reads each worker's suspicion level at every tick through a
//! [`MasterPolicy`]: the classical [`BinaryTimeoutPolicy`] or the
//! suspicion-ranked, cost-aware [`AccrualPolicy`]. [`BotWorld`] is one
//! seed's draws: crash times, task durations, and each worker's heartbeat
//! link simulated by afd-sim. [`run_bot`] replays every link through
//! `afd_runtime::replay` (the v2 wire into a one-shard monitor) and runs
//! one master per policy on the levels read there. The master learns of a
//! crash only through those levels; a crash decides only when work stops
//! and which bucket its CPU is charged to. Experiment E10
//! (`cargo run --release -p afd-bench --bin e10_bot`) compares the
//! policies under bursty loss.

use afd_core::accrual::AccrualFailureDetector;
use afd_core::history::SuspicionSample;
use afd_core::process::ProcessId;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::{Duration, Timestamp};
use afd_runtime::replay::Replay;
use afd_sim::delay::NormalDelay;
use afd_sim::loss::BernoulliLoss;
use afd_sim::replay::ReplayConfig;
use afd_sim::rng::SimRng;
use afd_sim::scenario::{DelayKind, LossKind, Scenario};
use afd_sim::simulate;
use afd_sim::trace::ArrivalTrace;

/// A master policy: how suspicion levels turn into dispatch and abort
/// decisions. §1.3 asks for both an *ordering* of workers, to dispatch to
/// the most likely alive, and an abort rule whose confidence grows with
/// the CPU already invested — two things a binary bit cannot give.
pub trait MasterPolicy {
    /// `true` if a new task may be assigned to a worker whose current
    /// suspicion level is `level`.
    fn allow_dispatch(&self, level: SuspicionLevel) -> bool;

    /// Orders idle candidate workers for dispatch, best first.
    fn rank_for_dispatch(&self, candidates: &[(ProcessId, SuspicionLevel)]) -> Vec<ProcessId>;

    /// `true` if the task running on a worker with suspicion `level` and
    /// `invested_secs` of completed work should be aborted and rescheduled.
    fn should_abort(&self, level: SuspicionLevel, invested_secs: f64) -> bool;
}

/// The classical baseline: one timeout (in suspicion-level units) decides
/// everything. Workers are not ranked (dispatch in id order), and the abort
/// decision ignores how much work would be lost.
///
/// Pair it with the elapsed-time detector
/// ([`afd_detectors::simple::SimpleAccrual`]) so the threshold is literally
/// a heartbeat timeout in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinaryTimeoutPolicy {
    threshold: SuspicionLevel,
}

impl BinaryTimeoutPolicy {
    /// Creates the baseline with the given timeout threshold.
    pub fn new(threshold: SuspicionLevel) -> Self {
        BinaryTimeoutPolicy { threshold }
    }
}

impl MasterPolicy for BinaryTimeoutPolicy {
    fn allow_dispatch(&self, level: SuspicionLevel) -> bool {
        level <= self.threshold
    }

    fn rank_for_dispatch(&self, candidates: &[(ProcessId, SuspicionLevel)]) -> Vec<ProcessId> {
        // A binary detector offers no ordering: id order.
        let mut ids: Vec<ProcessId> = candidates.iter().map(|&(p, _)| p).collect();
        ids.sort();
        ids
    }

    fn should_abort(&self, level: SuspicionLevel, _invested_secs: f64) -> bool {
        level > self.threshold
    }
}

/// The accrual policy of §1.3: suspicion-ranked dispatch plus cost-aware
/// aborts.
///
/// - Dispatch is allowed below `dispatch_threshold` and candidates are
///   ordered by ascending suspicion (most-alive first).
/// - A running task is aborted when the suspicion level exceeds
///   `abort_base + cost_slope · log₁₀(1 + invested_secs)`: the more work a
///   task has accumulated, the more confidence the master demands before
///   discarding it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccrualPolicy {
    /// Suspicion level above which no new work is assigned.
    pub dispatch_threshold: SuspicionLevel,
    /// Abort threshold for a task with zero invested work.
    pub abort_base: SuspicionLevel,
    /// How much the abort threshold grows per decade of invested seconds.
    pub cost_slope: f64,
    /// Whether dispatch candidates are ordered by suspicion level
    /// (usage pattern 1 of §1.3). Disable for the ablation that isolates
    /// the cost-aware abort rule.
    pub ranked_dispatch: bool,
}

impl AccrualPolicy {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `cost_slope` is negative or not finite.
    pub fn new(
        dispatch_threshold: SuspicionLevel,
        abort_base: SuspicionLevel,
        cost_slope: f64,
    ) -> Self {
        assert!(
            cost_slope.is_finite() && cost_slope >= 0.0,
            "cost slope must be non-negative"
        );
        AccrualPolicy {
            dispatch_threshold,
            abort_base,
            cost_slope,
            ranked_dispatch: true,
        }
    }

    /// Returns a copy with suspicion-ranked dispatch disabled (candidates
    /// are taken in id order, like the binary baseline) — the ablation of
    /// §1.3's first usage pattern.
    pub fn without_ranking(mut self) -> Self {
        self.ranked_dispatch = false;
        self
    }

    /// The abort threshold in force for a task with `invested_secs` of
    /// completed work.
    pub fn abort_threshold(&self, invested_secs: f64) -> SuspicionLevel {
        SuspicionLevel::clamped(
            self.abort_base.value() + self.cost_slope * (1.0 + invested_secs.max(0.0)).log10(),
        )
    }
}

impl MasterPolicy for AccrualPolicy {
    fn allow_dispatch(&self, level: SuspicionLevel) -> bool {
        level <= self.dispatch_threshold
    }

    fn rank_for_dispatch(&self, candidates: &[(ProcessId, SuspicionLevel)]) -> Vec<ProcessId> {
        let mut sorted: Vec<_> = candidates.to_vec();
        if self.ranked_dispatch {
            sorted.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        } else {
            sorted.sort_by_key(|a| a.0);
        }
        sorted.into_iter().map(|(p, _)| p).collect()
    }

    fn should_abort(&self, level: SuspicionLevel, invested_secs: f64) -> bool {
        level > self.abort_threshold(invested_secs)
    }
}

/// Configuration of a Bag-of-Tasks run.
#[derive(Debug, Clone, PartialEq)]
pub struct BotConfig {
    /// Number of worker processes.
    pub workers: u32,
    /// Number of independent tasks in the bag.
    pub tasks: u32,
    /// Mean task duration, seconds (uniform in ±50% around the mean).
    pub mean_task_secs: f64,
    /// Fraction of workers that crash during the run.
    pub crash_fraction: f64,
    /// Crashes are sampled uniformly inside this window, seconds.
    pub crash_window_secs: (f64, f64),
    /// Every worker's heartbeat link to the master; its `crash_at` and
    /// `horizon` are set per worker and from `max_secs`.
    pub link: Scenario,
    /// Master tick: the replays' query interval.
    pub tick: Duration,
    /// Hard wall-clock cap on the simulation, seconds.
    pub max_secs: f64,
}

impl Default for BotConfig {
    fn default() -> Self {
        BotConfig {
            workers: 32,
            tasks: 200,
            mean_task_secs: 30.0,
            crash_fraction: 0.25,
            crash_window_secs: (20.0, 200.0),
            link: Scenario {
                send_jitter_std: Duration::ZERO,
                delay: DelayKind::Normal(NormalDelay::new(
                    Duration::from_millis(50),
                    Duration::from_millis(20),
                    Duration::from_millis(5),
                )),
                loss: LossKind::Bernoulli(BernoulliLoss::new(0.01)),
                ..Scenario::wan_jitter()
            },
            tick: Duration::from_millis(250),
            max_secs: 3_600.0,
        }
    }
}

/// The outcome of one Bag-of-Tasks run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BotOutcome {
    /// Wall-clock time until every task completed, seconds (`max_secs` if
    /// the run hit the cap).
    pub makespan_secs: f64,
    /// `true` if every task completed within the cap.
    pub completed: bool,
    /// CPU seconds thrown away because the master aborted tasks on workers
    /// that were actually alive (wrong suspicions).
    pub wasted_cpu_wrong_aborts: f64,
    /// CPU seconds lost to genuine worker crashes (unavoidable).
    pub wasted_cpu_crashes: f64,
    /// Tasks aborted on live workers.
    pub wrong_aborts: u64,
    /// Tasks lost to crashes and rescheduled.
    pub crash_reschedules: u64,
    /// Workers that crashed.
    pub crashed_workers: u32,
}

/// One seed's Bag-of-Tasks world, the same for every policy and detector
/// run on it.
#[derive(Debug)]
pub struct BotWorld {
    /// Each worker's crash time, if it crashes.
    crash_at: Vec<Option<Timestamp>>,
    /// Each task's duration, seconds (the same on every reschedule).
    durations: Vec<f64>,
    /// Each worker's heartbeat arrivals at the master.
    links: Vec<ArrivalTrace>,
}

impl BotWorld {
    /// Draws the crash times and task durations for `seed` and simulates
    /// each worker's link.
    ///
    /// # Panics
    ///
    /// Panics if there are no workers or no tasks, or the crash window is
    /// inverted.
    pub fn draw(config: &BotConfig, seed: u64) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.tasks > 0, "need at least one task");
        assert!(
            config.crash_window_secs.0 <= config.crash_window_secs.1,
            "crash window must be ordered"
        );
        let mut rng = SimRng::derive(seed, 0xB07);
        // The first `crash_count` worker ids crash at random times (which
        // ids crash is immaterial; times are random).
        let crash_count = ((config.workers as f64) * config.crash_fraction).round() as u32;
        let (from, to) = config.crash_window_secs;
        let crash_at: Vec<Option<Timestamp>> = (0..config.workers)
            .map(|w| (w < crash_count).then(|| Timestamp::from_secs_f64(rng.uniform_in(from, to))))
            .collect();
        let (low, high) = (config.mean_task_secs * 0.5, config.mean_task_secs * 1.5);
        let durations = (0..config.tasks)
            .map(|_| rng.uniform_in(low, high))
            .collect();
        let horizon = Timestamp::from_secs_f64(config.max_secs);
        let links = (0..config.workers)
            .zip(&crash_at)
            .map(|(w, &crash)| {
                let mut link = config.link.clone().with_horizon(horizon);
                link.crash_at = crash;
                simulate(&link, seed ^ (u64::from(w) << 24))
            })
            .collect();
        BotWorld {
            crash_at,
            durations,
            links,
        }
    }
}

/// One policy's master: its workers' states, its bag and its tally.
struct Master<'p> {
    policy: &'p dyn MasterPolicy,
    /// Each worker's task and its start, `None` while the worker is idle
    /// as far as the master knows.
    workers: Vec<Option<(u32, Timestamp)>>,
    pending: Vec<u32>,
    completed_tasks: u32,
    outcome: BotOutcome,
}

impl<'p> Master<'p> {
    fn new(config: &BotConfig, world: &BotWorld, policy: &'p dyn MasterPolicy) -> Self {
        Master {
            policy,
            workers: vec![None; world.links.len()],
            pending: (0..config.tasks).rev().collect(), // pop() takes the lowest id
            completed_tasks: 0,
            outcome: BotOutcome {
                makespan_secs: config.max_secs,
                crashed_workers: world.crash_at.iter().flatten().count() as u32,
                ..BotOutcome::default()
            },
        }
    }

    /// One tick at `now`, on the workers' levels read there: completions
    /// and aborts, then dispatch.
    fn step(&mut self, now: Timestamp, levels: &[SuspicionSample], world: &BotWorld) {
        for (w, slot) in self.workers.iter_mut().enumerate() {
            let Some((task, started)) = *slot else {
                continue;
            };
            let duration = world.durations[task as usize];
            // Work stops at the crash; the master learns of it only
            // through the level.
            let crash = world.crash_at[w].filter(|&c| now >= c);
            let done = crash
                .unwrap_or(now)
                .saturating_duration_since(started)
                .as_secs_f64();
            let invested = done.min(duration);
            if crash.is_none() && done >= duration {
                self.completed_tasks += 1;
                *slot = None;
            } else if self.policy.should_abort(levels[w].level, invested) {
                if crash.is_some() {
                    self.outcome.wasted_cpu_crashes += invested;
                    self.outcome.crash_reschedules += 1;
                } else {
                    self.outcome.wasted_cpu_wrong_aborts += invested;
                    self.outcome.wrong_aborts += 1;
                }
                self.pending.push(task);
                *slot = None;
            }
        }

        if self.completed_tasks == world.durations.len() as u32 {
            self.outcome.makespan_secs = now.as_secs_f64();
            self.outcome.completed = true;
            return;
        }

        // Dispatch pending tasks to eligible idle workers, best first.
        if !self.pending.is_empty() {
            let candidates: Vec<(ProcessId, SuspicionLevel)> = (0..self.workers.len())
                .filter(|&w| {
                    self.workers[w].is_none() && self.policy.allow_dispatch(levels[w].level)
                })
                .map(|w| (ProcessId::new(w as u32), levels[w].level))
                .collect();
            for worker in self.policy.rank_for_dispatch(&candidates) {
                let Some(task) = self.pending.pop() else {
                    break;
                };
                self.workers[worker.index()] = Some((task, now));
            }
        }
    }
}

/// Runs one master per policy on `world`, every master reading its
/// workers' levels from one shared set of replays whose detectors
/// `factory` builds; returns the outcomes in policy order.
///
/// Each worker's link is replayed through `afd_runtime::replay` at the
/// master's ticks, and only as far as the last tick any master still
/// needs: the replays stop when every bag is done, or at `max_secs`.
pub fn run_bot<D, F>(
    config: &BotConfig,
    world: &BotWorld,
    factory: F,
    policies: &[&dyn MasterPolicy],
) -> Vec<BotOutcome>
where
    D: AccrualFailureDetector,
    F: FnMut(ProcessId) -> D + Send + Clone + 'static,
{
    let ticks = ReplayConfig::every(config.tick);
    let mut replays: Vec<Replay<D>> = world
        .links
        .iter()
        .map(|link| Replay::new(link, factory.clone(), ticks))
        .collect();
    let mut masters: Vec<Master> = policies
        .iter()
        .map(|&policy| Master::new(config, world, policy))
        .collect();
    let mut levels = Vec::with_capacity(replays.len());
    while masters.iter().any(|m| !m.outcome.completed) {
        levels.clear();
        levels.extend(replays.iter_mut().map_while(Iterator::next));
        if levels.len() < replays.len() {
            break; // past max_secs
        }
        let now = levels[0].at;
        for master in masters.iter_mut().filter(|m| !m.outcome.completed) {
            master.step(now, &levels, world);
        }
    }
    for replay in replays {
        replay.finish();
    }
    masters.into_iter().map(|m| m.outcome).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_detectors::kappa::{KappaAccrual, KappaConfig, PhiContribution};
    use afd_detectors::simple::SimpleAccrual;
    use afd_sim::loss::{GilbertElliottLoss, NoLoss};

    fn sl(v: f64) -> SuspicionLevel {
        SuspicionLevel::new(v).unwrap()
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn simple(_: ProcessId) -> SimpleAccrual {
        SimpleAccrual::new(Timestamp::ZERO)
    }

    /// One policy's outcome on `seed`'s world, over elapsed-time detectors.
    fn run_simple(config: &BotConfig, policy: &dyn MasterPolicy, seed: u64) -> BotOutcome {
        run_bot(config, &BotWorld::draw(config, seed), simple, &[policy])[0]
    }

    /// The default link with another loss model.
    fn lossy(loss: LossKind) -> Scenario {
        Scenario {
            loss,
            ..BotConfig::default().link
        }
    }

    fn small_config() -> BotConfig {
        BotConfig {
            workers: 8,
            tasks: 24,
            mean_task_secs: 10.0,
            crash_fraction: 0.25,
            crash_window_secs: (10.0, 60.0),
            max_secs: 1_200.0,
            ..BotConfig::default()
        }
    }

    #[test]
    fn binary_policy_is_a_single_timeout() {
        let pol = BinaryTimeoutPolicy::new(sl(5.0));
        assert!(pol.allow_dispatch(sl(5.0)));
        assert!(!pol.allow_dispatch(sl(5.1)));
        assert!(!pol.should_abort(sl(5.0), 1_000.0));
        assert!(pol.should_abort(sl(5.1), 0.0));
    }

    #[test]
    fn binary_policy_ignores_suspicion_ordering() {
        let pol = BinaryTimeoutPolicy::new(sl(5.0));
        let ranked = pol.rank_for_dispatch(&[(p(2), sl(0.1)), (p(1), sl(4.0))]);
        assert_eq!(ranked, vec![p(1), p(2)], "id order, not suspicion order");
    }

    #[test]
    fn accrual_policy_ranks_by_suspicion() {
        let pol = AccrualPolicy::new(sl(1.0), sl(3.0), 2.0);
        let ranked = pol.rank_for_dispatch(&[(p(1), sl(0.9)), (p(2), sl(0.1)), (p(3), sl(0.5))]);
        assert_eq!(ranked, vec![p(2), p(3), p(1)]);
    }

    #[test]
    fn accrual_abort_threshold_grows_with_investment() {
        let pol = AccrualPolicy::new(sl(1.0), sl(3.0), 2.0);
        let fresh = pol.abort_threshold(0.0);
        let hour = pol.abort_threshold(3600.0);
        assert_eq!(fresh.value(), 3.0);
        assert!((hour.value() - (3.0 + 2.0 * 3601f64.log10())).abs() < 1e-9);
        // A level that aborts a fresh task spares a long-running one.
        let level = sl(4.0);
        assert!(pol.should_abort(level, 0.0));
        assert!(!pol.should_abort(level, 3600.0));
    }

    #[test]
    fn unranked_ablation_dispatches_in_id_order() {
        let pol = AccrualPolicy::new(sl(1.0), sl(3.0), 2.0).without_ranking();
        assert!(!pol.ranked_dispatch);
        let ranked = pol.rank_for_dispatch(&[(p(2), sl(0.1)), (p(1), sl(0.9))]);
        assert_eq!(ranked, vec![p(1), p(2)]);
        // Abort rule is unchanged by the ablation.
        assert!(pol.should_abort(sl(4.0), 0.0));
    }

    #[test]
    fn accrual_zero_slope_reduces_to_constant_threshold() {
        let pol = AccrualPolicy::new(sl(1.0), sl(3.0), 0.0);
        assert_eq!(pol.abort_threshold(0.0), pol.abort_threshold(1e6));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_slope_rejected() {
        let _ = AccrualPolicy::new(sl(1.0), sl(3.0), -1.0);
    }

    #[test]
    fn completes_without_crashes() {
        let config = BotConfig {
            crash_fraction: 0.0,
            ..small_config()
        };
        let out = run_simple(&config, &BinaryTimeoutPolicy::new(sl(5.0)), 1);
        assert!(out.completed, "all tasks should finish: {out:?}");
        assert_eq!(out.crashed_workers, 0);
        assert_eq!(out.crash_reschedules, 0);
        // Lower bound: 24 tasks × ≥5 s over 8 workers ⇒ ≥ 15 s.
        assert!(out.makespan_secs >= 15.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let config = small_config();
        let policy = BinaryTimeoutPolicy::new(sl(5.0));
        assert_eq!(
            run_simple(&config, &policy, 9),
            run_simple(&config, &policy, 9)
        );
    }

    #[test]
    fn policies_sharing_replays_run_as_if_alone() {
        // The masters pull one set of replays, each only as far as the
        // slowest needs: every outcome is the one a run of its own gives.
        let config = small_config();
        let world = BotWorld::draw(&config, 4);
        let fast = BinaryTimeoutPolicy::new(sl(1.5));
        let slow = BinaryTimeoutPolicy::new(sl(8.0));
        let both = run_bot(&config, &world, simple, &[&fast, &slow]);
        assert_eq!(both[0], run_bot(&config, &world, simple, &[&fast])[0]);
        assert_eq!(both[1], run_bot(&config, &world, simple, &[&slow])[0]);
        assert_ne!(both[0], both[1]);
    }

    #[test]
    fn crashes_force_reschedules_but_run_still_completes() {
        // Long tasks and an early crash window guarantee the crashing
        // workers die mid-task.
        let config = BotConfig {
            mean_task_secs: 60.0,
            crash_window_secs: (5.0, 15.0),
            ..small_config()
        };
        let out = run_simple(&config, &BinaryTimeoutPolicy::new(sl(5.0)), 3);
        assert!(out.completed, "{out:?}");
        assert_eq!(out.crashed_workers, 2);
        assert!(out.crash_reschedules >= 1, "{out:?}");
        assert!(out.wasted_cpu_crashes > 0.0);
    }

    #[test]
    fn a_worker_that_crashed_idle_gets_work_until_its_level_gives_it_away() {
        // Worker 0 crashes idle at 0.1 s, before its first heartbeat. At
        // 0.25 s its level is under the timeout, so it gets task 0, which the
        // master aborts once the level passes it: a crash reschedule.
        let config = BotConfig {
            workers: 2,
            tasks: 2,
            crash_fraction: 0.5,
            crash_window_secs: (0.1, 0.1),
            link: lossy(LossKind::None(NoLoss)),
            max_secs: 600.0,
            ..BotConfig::default()
        };
        let out = run_simple(&config, &BinaryTimeoutPolicy::new(sl(5.0)), 1);
        assert!(out.completed, "{out:?}");
        assert_eq!(out.crashed_workers, 1);
        assert_eq!(out.crash_reschedules, 1, "{out:?}");
        assert_eq!(out.wasted_cpu_crashes, 0.0);
        assert_eq!(out.wrong_aborts, 0);
    }

    #[test]
    fn aggressive_timeout_wastes_cpu_on_wrong_aborts() {
        // A 1.5 s timeout against 1 s heartbeats with 5% loss: a single
        // lost heartbeat aborts live work.
        let config = BotConfig {
            link: lossy(LossKind::Bernoulli(BernoulliLoss::new(0.05))),
            ..small_config()
        };
        let out = run_simple(&config, &BinaryTimeoutPolicy::new(sl(1.5)), 5);
        assert!(out.wrong_aborts > 0, "{out:?}");
        assert!(out.wasted_cpu_wrong_aborts > 0.0);
    }

    #[test]
    fn accrual_policy_with_kappa_survives_loss_bursts() {
        // Bursty loss (bursts of ~4 heartbeats): a 3 s binary timeout
        // aborts live work on every burst; κ with a cost-aware threshold
        // rides bursts out on invested tasks.
        let config = BotConfig {
            mean_task_secs: 40.0,
            link: lossy(LossKind::GilbertElliott(GilbertElliottLoss::bursts(
                0.02, 4.0,
            ))),
            ..small_config()
        };
        let world = BotWorld::draw(&config, 5);
        let binary = BinaryTimeoutPolicy::new(sl(3.0));
        let out_b = run_bot(&config, &world, simple, &[&binary])[0];

        let accrual = AccrualPolicy::new(sl(1.0), sl(2.5), 6.0);
        let kappa = |_| KappaAccrual::new(KappaConfig::default(), PhiContribution).unwrap();
        let out_a = run_bot(&config, &world, kappa, &[&accrual])[0];
        assert!(out_a.completed, "{out_a:?}");
        assert!(
            out_a.wasted_cpu_wrong_aborts < out_b.wasted_cpu_wrong_aborts,
            "accrual should waste less: {out_a:?} vs {out_b:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_workers() {
        let config = BotConfig {
            workers: 0,
            ..BotConfig::default()
        };
        let _ = BotWorld::draw(&config, 0);
    }
}
