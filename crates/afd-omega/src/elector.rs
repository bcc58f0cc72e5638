//! The Ω elector: eventual leader election over suspicion levels.

use std::collections::BTreeMap;

use afd_core::process::ProcessId;
use afd_core::suspicion::SuspicionLevel;
use afd_core::time::Timestamp;
use afd_core::transform::{AccrualToBinary, Interpreter};

/// One process's Ω module: interprets every peer's suspicion level with
/// its own Algorithm 1 transformer and outputs the smallest-id
/// unsuspected process as leader.
///
/// The levels come from a monitor (Fig. 2): the elector is an
/// application of it and only interprets, as an `InterpreterBank` does.
///
/// # Examples
///
/// ```
/// use afd_core::process::ProcessId;
/// use afd_core::suspicion::SuspicionLevel;
/// use afd_core::time::Timestamp;
/// use afd_omega::OmegaElector;
///
/// let me = ProcessId::new(2);
/// let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
/// let mut omega = OmegaElector::new(me, [p0, p1], 0.1);
/// // Algorithm 1 starts trusting: the lowest id leads.
/// let calm = SuspicionLevel::new(0.5)?;
/// assert_eq!(omega.leader(Timestamp::from_secs(1), &[(p0, calm), (p1, calm)]), p0);
/// // p0's level climbs past its first reading: p0 is suspected.
/// let high = SuspicionLevel::new(3.0)?;
/// assert_eq!(omega.leader(Timestamp::from_secs(2), &[(p0, high), (p1, calm)]), p1);
/// # Ok::<(), afd_core::error::InvalidSuspicionError>(())
/// ```
#[derive(Debug)]
pub struct OmegaElector {
    me: ProcessId,
    peers: BTreeMap<ProcessId, AccrualToBinary>,
    /// Consecutive queries the current candidate must differ from the
    /// output before the output changes (1 = raw min-trusted).
    stability: u32,
    output: Option<ProcessId>,
    streak: u32,
    streak_candidate: Option<ProcessId>,
}

impl OmegaElector {
    /// Creates the elector for process `me` monitoring `peers`, with one
    /// Algorithm 1 transformer (resolution `epsilon`) per peer.
    ///
    /// # Panics
    ///
    /// Panics if `peers` contains `me`, or `epsilon` is not finite and
    /// positive.
    pub fn new(me: ProcessId, peers: impl IntoIterator<Item = ProcessId>, epsilon: f64) -> Self {
        let peers: BTreeMap<ProcessId, AccrualToBinary> = peers
            .into_iter()
            .map(|p| {
                assert_ne!(p, me, "a process does not monitor itself");
                (p, AccrualToBinary::new(epsilon))
            })
            .collect();
        OmegaElector {
            me,
            peers,
            stability: 1,
            output: None,
            streak: 0,
            streak_candidate: None,
        }
    }

    /// Returns a copy demanding that a new leader candidate persist for
    /// `queries` consecutive queries before the output changes.
    ///
    /// Ω only promises *eventual* agreement; the underlying ◊P verdicts
    /// may still flap briefly long after a run has mostly stabilized
    /// (Algorithm 1's mistakes become rare, not instantly impossible).
    /// A stability requirement — the standard smoothing in deployed
    /// leader elections — absorbs those blips without affecting the
    /// eventual guarantee: once the candidate is eventually constant,
    /// the output converges to it.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is zero.
    pub fn with_stability(mut self, queries: u32) -> Self {
        assert!(queries > 0, "stability must be at least one query");
        self.stability = queries;
        self
    }

    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// One Ω query: feeds each monitored peer's level in `levels` (the
    /// shape a monitor snapshot has) to its Algorithm 1 transformer and
    /// returns the current leader — the smallest-id process not currently
    /// suspected (`me` always trusts itself), smoothed by the configured
    /// stability requirement.
    ///
    /// Levels of processes this elector does not monitor are ignored; a
    /// monitored peer missing from `levels` keeps its last status.
    pub fn leader(&mut self, now: Timestamp, levels: &[(ProcessId, SuspicionLevel)]) -> ProcessId {
        for &(p, level) in levels {
            if let Some(interpreter) = self.peers.get_mut(&p) {
                interpreter.observe(now, level);
            }
        }
        let candidate = self
            .peers
            .iter()
            .find(|(_, interpreter)| interpreter.status().is_trusted())
            .map_or(self.me, |(&p, _)| p.min(self.me));

        let current = *self.output.get_or_insert(candidate);
        if candidate == current {
            self.streak = 0;
            self.streak_candidate = None;
        } else {
            if self.streak_candidate == Some(candidate) {
                self.streak += 1;
            } else {
                self.streak_candidate = Some(candidate);
                self.streak = 1;
            }
            if self.streak >= self.stability {
                self.output = Some(candidate);
                self.streak = 0;
                self.streak_candidate = None;
                return candidate;
            }
        }
        current
    }

    /// The peers currently trusted (as of their last query), plus `me`.
    pub fn trusted(&self) -> Vec<ProcessId> {
        let mut out: Vec<ProcessId> = self
            .peers
            .iter()
            .filter(|(_, interpreter)| interpreter.status().is_trusted())
            .map(|(&p, _)| p)
            .collect();
        out.push(self.me);
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs_f64(s)
    }

    fn level(v: f64) -> SuspicionLevel {
        SuspicionLevel::new(v).unwrap()
    }

    /// An elector fed the level an elapsed-time detector publishes for
    /// each peer: the seconds since its last heartbeat (since 0 before
    /// the first).
    struct Fed {
        omega: OmegaElector,
        last_heard: BTreeMap<ProcessId, f64>,
    }

    fn elector(me: u32, peers: &[u32]) -> Fed {
        Fed {
            omega: OmegaElector::new(p(me), peers.iter().map(|&i| p(i)), 0.1),
            last_heard: peers.iter().map(|&i| (p(i), 0.0)).collect(),
        }
    }

    impl Fed {
        fn with_stability(mut self, queries: u32) -> Self {
            self.omega = self.omega.with_stability(queries);
            self
        }

        /// Heartbeats from `alive` peers each second starting at `start`,
        /// a query half a second after each; returns the final leader.
        fn run(&mut self, alive: &[u32], start: u64, secs: u64) -> ProcessId {
            let mut leader = self.omega.id();
            for k in start..start + secs {
                for &a in alive {
                    self.last_heard.insert(p(a), k as f64);
                }
                let now = k as f64 + 0.5;
                let levels: Vec<_> = self
                    .last_heard
                    .iter()
                    .map(|(&q, &heard)| (q, level(now - heard)))
                    .collect();
                leader = self.omega.leader(ts(now), &levels);
            }
            leader
        }
    }

    #[test]
    fn lowest_alive_id_wins() {
        let mut omega = elector(2, &[0, 1]);
        assert_eq!(omega.run(&[0, 1], 1, 30), p(0));
    }

    #[test]
    fn leader_moves_up_when_lowest_crashes() {
        let mut omega = elector(2, &[0, 1]);
        assert_eq!(omega.run(&[0, 1], 1, 30), p(0));
        // p0 stops heartbeating: eventually p1 takes over.
        let leader = omega.run(&[1], 31, 60);
        assert_eq!(leader, p(1));
    }

    #[test]
    fn self_leads_when_alone() {
        let mut omega = elector(2, &[0, 1]);
        let _ = omega.run(&[0, 1], 1, 20);
        let leader = omega.run(&[], 21, 120);
        assert_eq!(leader, p(2), "with every peer silent, me leads");
        assert_eq!(omega.omega.trusted(), vec![p(2)]);
    }

    #[test]
    fn stability_absorbs_single_query_blips() {
        let mut omega = elector(2, &[0, 1]).with_stability(3);
        assert_eq!(omega.run(&[0, 1], 1, 30), p(0));
        // One missed heartbeat round: the raw candidate flips briefly but
        // the output must hold.
        omega.run(&[1], 31, 2);
        assert_eq!(omega.run(&[0, 1], 33, 5), p(0));
        // A sustained outage does change the output.
        assert_eq!(omega.run(&[1], 38, 40), p(1));
    }

    #[test]
    fn levels_of_unmonitored_processes_are_ignored() {
        let mut omega = OmegaElector::new(p(2), [p(1)], 0.1);
        // p0 is not monitored: a calm level from it never makes it leader,
        // while p1's climbing level gets p1 suspected.
        let mut leader = omega.id();
        for k in 1..=30 {
            let levels = [(p(0), level(0.0)), (p(1), level(f64::from(k)))];
            leader = omega.leader(ts(f64::from(k)), &levels);
        }
        assert_eq!(leader, p(2));
        assert_eq!(omega.trusted(), vec![p(2)]);
        // A monitored peer missing from the levels keeps its last status.
        assert_eq!(omega.leader(ts(31.0), &[(p(0), level(0.0))]), p(2));
    }

    #[test]
    #[should_panic(expected = "does not monitor itself")]
    fn self_in_peer_set_rejected() {
        let _ = elector(1, &[0, 1]);
    }
}
