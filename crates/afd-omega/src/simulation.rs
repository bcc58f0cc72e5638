//! Whole-system Ω runs over the simulated network.
//!
//! Every ordered pair of processes gets an independent simulated link,
//! replayed through the monitor that ships (`afd_runtime::replay`), so
//! Algorithm 4's receive rule is the deployed one. Every process runs an
//! [`OmegaElector`] over the levels its monitor publishes for its peers.
//! The run records each correct process's leader timeline, and
//! [`OmegaRun::stable_leader`] checks the Ω property: from some point on,
//! every correct process trusts the *same correct* process.

use std::collections::BTreeMap;

use afd_core::accrual::AccrualFailureDetector;
use afd_core::failure::FailurePattern;
use afd_core::process::ProcessId;
use afd_core::time::{Duration, Timestamp};
use afd_runtime::replay::Replay;
use afd_sim::replay::ReplayConfig;
use afd_sim::scenario::Scenario;
use afd_sim::simulate;

use crate::elector::OmegaElector;

/// Configuration of a system-wide Ω run.
#[derive(Debug, Clone)]
pub struct OmegaRunConfig {
    /// Number of processes (ids `0..n`).
    pub processes: u32,
    /// Per-link scenario template; its `crash_at` and `horizon` are
    /// overridden per link / by `pattern`.
    pub link_template: Scenario,
    /// Who crashes, and when.
    pub pattern: FailurePattern,
    /// End of the run.
    pub horizon: Timestamp,
    /// How often each process queries its Ω module.
    pub query_interval: Duration,
    /// Resolution ε for the per-peer Algorithm 1 transformers.
    pub epsilon: f64,
    /// Leader-stability requirement in queries (see
    /// [`OmegaElector::with_stability`]).
    pub stability: u32,
}

/// The leader timelines of one Ω run.
#[derive(Debug, Clone)]
pub struct OmegaRun {
    timelines: BTreeMap<ProcessId, Vec<(Timestamp, ProcessId)>>,
    pattern: FailurePattern,
}

impl OmegaRun {
    /// The leader timeline of `process` (empty if it never queried).
    pub fn timeline(&self, process: ProcessId) -> &[(Timestamp, ProcessId)] {
        self.timelines.get(&process).map_or(&[], |v| v.as_slice())
    }

    /// The Ω check: if, over the trailing `tail_fraction` of each correct
    /// process's timeline, every correct process outputs one constant
    /// leader and they all agree on a *correct* process, returns that
    /// leader.
    ///
    /// # Panics
    ///
    /// Panics if `tail_fraction` is not in `(0, 1]`.
    pub fn stable_leader(&self, tail_fraction: f64) -> Option<ProcessId> {
        assert!(
            tail_fraction > 0.0 && tail_fraction <= 1.0,
            "tail fraction must be in (0, 1]"
        );
        let mut agreed: Option<ProcessId> = None;
        for q in self.pattern.correct() {
            let timeline = self.timelines.get(&q)?;
            if timeline.is_empty() {
                return None;
            }
            let start = timeline.len() - ((timeline.len() as f64 * tail_fraction) as usize).max(1);
            let tail = &timeline[start..];
            let leader = tail[0].1;
            if !tail.iter().all(|&(_, l)| l == leader) {
                return None; // still flapping
            }
            match agreed {
                None => agreed = Some(leader),
                Some(l) if l != leader => return None, // disagreement
                _ => {}
            }
        }
        // The agreed leader must itself be correct.
        agreed.filter(|&l| self.pattern.is_correct(l))
    }
}

/// Runs the whole system: n processes, all-to-all heartbeat links, one
/// elector per process.
///
/// Each ordered link `(sender, receiver)` is simulated independently from
/// `link_template` with its own derived seed; a sender's crash silences
/// all its outgoing links at the same instant. The receiver's monitor
/// replays each link with a detector built by `factory(receiver,
/// sender)`, querying every `query_interval` on the template's monitor
/// clock. Crashed processes stop querying at their crash time.
pub fn run_omega<D, F>(config: &OmegaRunConfig, seed: u64, factory: F) -> OmegaRun
where
    D: AccrualFailureDetector,
    F: Fn(ProcessId, ProcessId) -> D + Send + Clone + 'static,
{
    let n = config.processes;
    assert!(n >= 2, "need at least two processes");
    let queries =
        ReplayConfig::every(config.query_interval).with_clock(config.link_template.monitor_clock);

    let mut timelines = BTreeMap::new();
    for receiver in 0..n {
        let me = ProcessId::new(receiver);
        // The levels my monitor publishes for each incoming link, one
        // query at a time.
        let mut links: Vec<_> = (0..n)
            .filter(|&sender| sender != receiver)
            .map(|sender| {
                let peer = ProcessId::new(sender);
                let mut scenario = config.link_template.clone().with_horizon(config.horizon);
                scenario.crash_at = config.pattern.crash_time(peer);
                let link_seed = seed ^ (u64::from(sender) << 24) ^ (u64::from(receiver) << 8);
                let factory = factory.clone();
                let trace = simulate(&scenario, link_seed);
                (
                    peer,
                    Replay::new(&trace, move |_| factory(me, peer), queries),
                )
            })
            .collect();

        let mut elector = OmegaElector::new(me, links.iter().map(|&(p, _)| p), config.epsilon)
            .with_stability(config.stability);
        let mut levels = Vec::with_capacity(links.len());
        let mut timeline = Vec::new();
        // Every link answers the same query instants, until the horizon.
        'queries: loop {
            levels.clear();
            let mut at = Timestamp::ZERO;
            for (peer, replay) in &mut links {
                let Some(sample) = replay.next() else {
                    break 'queries;
                };
                at = sample.at;
                levels.push((*peer, sample.level));
            }
            if config.pattern.has_failed_by(me, at) {
                break; // crashed processes take no steps
            }
            timeline.push((at, elector.leader(at, &levels)));
        }
        for (_, replay) in links {
            replay.finish();
        }
        timelines.insert(me, timeline);
    }

    OmegaRun {
        timelines,
        pattern: config.pattern.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_detectors::phi::PhiAccrual;

    fn config(n: u32, crashes: &[(u32, u64)]) -> OmegaRunConfig {
        let mut pattern = FailurePattern::all_correct(n);
        for &(p, at) in crashes {
            pattern.crash(ProcessId::new(p), Timestamp::from_secs(at));
        }
        OmegaRunConfig {
            processes: n,
            link_template: Scenario::wan_jitter(),
            pattern,
            horizon: Timestamp::from_secs(300),
            query_interval: Duration::from_millis(500),
            epsilon: 0.1,
            stability: 8, // 4 s of persistence before the output moves
        }
    }

    fn phi_factory(_me: ProcessId, _peer: ProcessId) -> PhiAccrual {
        PhiAccrual::with_defaults()
    }

    #[test]
    fn all_correct_system_elects_p0() {
        let run = run_omega(&config(4, &[]), 11, phi_factory);
        assert_eq!(run.stable_leader(0.5), Some(ProcessId::new(0)));
    }

    #[test]
    fn leader_crash_triggers_re_election() {
        // p0 crashes at t=80: everyone must converge on p1.
        let run = run_omega(&config(4, &[(0, 80)]), 13, phi_factory);
        assert_eq!(run.stable_leader(0.3), Some(ProcessId::new(1)));
        // Before the crash, p0 led.
        let early = run.timeline(ProcessId::new(3));
        let pre_crash: Vec<_> = early
            .iter()
            .filter(|(t, _)| *t < Timestamp::from_secs(60))
            .collect();
        assert!(pre_crash.iter().all(|(_, l)| *l == ProcessId::new(0)));
    }

    #[test]
    fn cascading_crashes_settle_on_lowest_survivor() {
        let run = run_omega(&config(5, &[(0, 60), (1, 120), (3, 90)]), 17, phi_factory);
        assert_eq!(run.stable_leader(0.25), Some(ProcessId::new(2)));
    }

    #[test]
    fn crashed_processes_stop_querying() {
        let run = run_omega(&config(3, &[(1, 50)]), 19, phi_factory);
        let t1 = run.timeline(ProcessId::new(1));
        assert!(!t1.is_empty());
        assert!(t1.last().unwrap().0 < Timestamp::from_secs(51));
    }

    #[test]
    #[should_panic(expected = "at least two processes")]
    fn single_process_rejected() {
        let _ = run_omega(&config(1, &[]), 1, phi_factory);
    }
}
