//! Streaming estimators for the Chen et al. QoS metrics (§2 of the paper).
//!
//! All metrics are defined for a pair *(q monitors p)* over a binary
//! failure-detector history:
//!
//! - **T_D (detection time)** — from p's crash until q suspects p
//!   *permanently* (the final S-transition). Defined on crash runs.
//! - **T_MR (mistake recurrence time)** — time between consecutive
//!   S-transitions while p is correct.
//! - **T_M (mistake duration)** — from an S-transition to the next
//!   T-transition.
//! - **λ_M (average mistake rate)** — S-transitions per time unit.
//! - **P_A (query accuracy probability)** — probability the output is
//!   correct (trusted, for a correct p) at a random time.
//! - **T_G (good period duration)** — from a T-transition to the next
//!   S-transition.
//!
//! [`OnlineQos`] computes all of them *incrementally*: feed it each
//! queried output as it happens and call [`report`] at any point for the
//! current estimates. The offline [`analyze`] replays a recorded
//! [`BinaryTrace`] through this same estimator, so online and offline
//! numbers agree by construction.
//!
//! Because S-/T-transitions alternate strictly (a [`TransitionDetector`]
//! only reports changes), every pairing the metrics need — S with the next
//! T, T with the next S, consecutive S's — involves at most the previous
//! transition, which is why constant state suffices.
//!
//! [`report`]: OnlineQos::report

use afd_core::binary::{Status, Transition, TransitionDetector};
use afd_core::history::BinaryTrace;
use afd_core::time::Timestamp;

use crate::registry::Registry;

/// The QoS metrics of one run, in seconds where dimensional.
///
/// Metrics that require an event that never happened are `None` — e.g.
/// `mistake_recurrence` needs at least two mistakes, `detection_time`
/// needs a crash that was permanently detected within the trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QosReport {
    /// T_D: crash → permanent suspicion, seconds.
    pub detection_time: Option<f64>,
    /// Number of wrong S-transitions (mistakes) while the process was alive.
    pub mistakes: u64,
    /// T_MR: mean seconds between consecutive mistakes.
    pub mistake_recurrence: Option<f64>,
    /// T_M: mean seconds a mistake lasted.
    pub mistake_duration: Option<f64>,
    /// λ_M: mistakes per second of alive time.
    pub mistake_rate: f64,
    /// P_A: fraction of queries (≈ time, on an even schedule) with correct
    /// output while the process was alive.
    pub query_accuracy: f64,
    /// T_G: mean seconds of a good period (T-transition → next
    /// S-transition).
    pub good_period: Option<f64>,
    /// Length of the alive (accuracy) observation window, seconds.
    pub observed_alive: f64,
}

/// A streaming QoS estimator over a live trusted/suspected query stream.
///
/// Accuracy metrics (mistakes, T_MR, T_M, λ_M, P_A, T_G) are computed over
/// the *alive window*: queries strictly before the crash time. The alive
/// window's length runs from the first query to the crash (or to the last
/// query, whichever is earlier) — not merely to the last query that
/// happened to land inside it, so λ_M and P_A are not biased by the query
/// period. Detection time is computed over the whole stream.
///
/// # Examples
///
/// ```
/// use afd_core::binary::Status;
/// use afd_core::time::Timestamp;
/// use afd_obs::OnlineQos;
///
/// let mut qos = OnlineQos::new(Some(Timestamp::from_secs(60)));
/// for s in 1..=100u64 {
///     let status = if s >= 63 { Status::Suspected } else { Status::Trusted };
///     qos.observe(Timestamp::from_secs(s), status);
/// }
/// let report = qos.report();
/// assert_eq!(report.detection_time, Some(3.0));
/// assert_eq!(report.mistakes, 0);
/// assert_eq!(report.query_accuracy, 1.0);
/// assert!((report.observed_alive - 59.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineQos {
    crash: Option<Timestamp>,
    first: Option<Timestamp>,
    last: Option<Timestamp>,
    // Alive-window accounting (accuracy metrics).
    alive_detector: TransitionDetector,
    alive_queries: u64,
    correct_queries: u64,
    mistakes: u64,
    last_suspect: Option<Timestamp>,
    last_trust: Option<Timestamp>,
    recurrence_sum: f64,
    duration_sum: f64,
    durations: u64,
    good_sum: f64,
    good_periods: u64,
    // Whole-stream accounting (detection time).
    full_detector: TransitionDetector,
    last_transition: Option<(Timestamp, Transition)>,
}

impl OnlineQos {
    /// Creates an estimator for a process that crashes at `crash` (or
    /// never, if `None`).
    ///
    /// The crash time must be known before any query at or after it is
    /// observed — accuracy metrics are split at the crash instant as
    /// samples stream in. Use [`set_crash`](OnlineQos::set_crash) if it
    /// only becomes known mid-stream.
    pub fn new(crash: Option<Timestamp>) -> Self {
        OnlineQos {
            crash,
            first: None,
            last: None,
            alive_detector: TransitionDetector::new(),
            alive_queries: 0,
            correct_queries: 0,
            mistakes: 0,
            last_suspect: None,
            last_trust: None,
            recurrence_sum: 0.0,
            duration_sum: 0.0,
            durations: 0,
            good_sum: 0.0,
            good_periods: 0,
            full_detector: TransitionDetector::new(),
            last_transition: None,
        }
    }

    /// Records the crash time for a stream started with `crash = None`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a query at or after `at` has already
    /// been observed: that query was judged under the wrong alive window.
    pub fn set_crash(&mut self, at: Timestamp) {
        debug_assert!(
            self.last.is_none_or(|l| l < at),
            "crash at {at} set after observing a query at or past it"
        );
        self.crash = Some(at);
    }

    /// Feeds one queried detector output and returns the S- or
    /// T-transition it made on the whole stream, crash or not.
    ///
    /// Queries must arrive in non-decreasing time order (debug-asserted),
    /// matching `BinaryTrace::push`.
    pub fn observe(&mut self, at: Timestamp, status: Status) -> Option<Transition> {
        debug_assert!(
            self.last.is_none_or(|l| l <= at),
            "queries must be observed in non-decreasing time order"
        );
        self.first.get_or_insert(at);
        self.last = Some(at);

        // Whole-stream transitions, for detection time.
        let transition = self.full_detector.observe(status);
        if let Some(tr) = transition {
            self.last_transition = Some((at, tr));
        }

        // Accuracy metrics only consider the alive window.
        if self.crash.is_some_and(|c| at >= c) {
            return transition;
        }
        self.alive_queries += 1;
        if status.is_trusted() {
            self.correct_queries += 1;
        }
        match self.alive_detector.observe(status) {
            Some(Transition::Suspect) => {
                self.mistakes += 1;
                if let Some(prev) = self.last_suspect {
                    self.recurrence_sum += (at - prev).as_secs_f64();
                }
                if let Some(t_at) = self.last_trust {
                    self.good_sum += (at - t_at).as_secs_f64();
                    self.good_periods += 1;
                }
                self.last_suspect = Some(at);
            }
            Some(Transition::Trust) => {
                // A T-transition is always preceded by an S-transition; if
                // that state-machine invariant ever breaks, drop the sample
                // rather than abort a live metrics pipeline.
                let Some(s_at) = self.last_suspect else {
                    debug_assert!(false, "T-transition without preceding S-transition");
                    return transition;
                };
                self.duration_sum += (at - s_at).as_secs_f64();
                self.durations += 1;
                self.last_trust = Some(at);
            }
            None => {}
        }
        transition
    }

    /// The current QoS estimates. Non-consuming: keep observing afterwards.
    ///
    /// Returns a default (all-`None`/zero) report before any query.
    pub fn report(&self) -> QosReport {
        let (Some(start), Some(end)) = (self.first, self.last) else {
            return QosReport::default();
        };

        // The alive window runs to the crash (clamped to the stream end),
        // not to the last sample that landed inside it.
        let alive_end = self.crash.map_or(end, |c| c.min(end));
        let observed_alive = alive_end.saturating_duration_since(start).as_secs_f64();

        let mistake_rate = if observed_alive > 0.0 {
            self.mistakes as f64 / observed_alive
        } else {
            0.0
        };
        let mistake_recurrence =
            (self.mistakes >= 2).then(|| self.recurrence_sum / (self.mistakes - 1) as f64);
        let mistake_duration =
            (self.durations > 0).then(|| self.duration_sum / self.durations as f64);
        let good_period = (self.good_periods > 0).then(|| self.good_sum / self.good_periods as f64);
        let query_accuracy = if self.alive_queries == 0 {
            1.0
        } else {
            self.correct_queries as f64 / self.alive_queries as f64
        };

        let detection_time = self.crash.and_then(|c| {
            if c > end {
                return None; // crash outside the observed stream
            }
            // Detection requires the stream to END suspected; the final
            // S-transition is when permanent suspicion began. Suspicion
            // that predates the crash means detection was instantaneous.
            match self.last_transition {
                Some((at, Transition::Suspect)) => {
                    Some(at.saturating_duration_since(c).as_secs_f64())
                }
                _ => None,
            }
        });

        QosReport {
            detection_time,
            mistakes: self.mistakes,
            mistake_recurrence,
            mistake_duration,
            mistake_rate,
            query_accuracy,
            good_period,
            observed_alive,
        }
    }

    /// Publishes the current estimates into `registry` as the gauges
    /// `<prefix>.mistakes`, `.mistake_rate`, `.query_accuracy`,
    /// `.mistake_recurrence`, `.mistake_duration`, `.good_period` and
    /// `.detection_time`, skipping a metric that is `None` so far.
    pub fn export_metrics(&self, registry: &Registry, prefix: &str) {
        let r = self.report();
        let gauges = [
            ("mistakes", Some(r.mistakes as f64)),
            ("mistake_rate", Some(r.mistake_rate)),
            ("query_accuracy", Some(r.query_accuracy)),
            ("mistake_recurrence", r.mistake_recurrence),
            ("mistake_duration", r.mistake_duration),
            ("good_period", r.good_period),
            ("detection_time", r.detection_time),
        ];
        for (name, value) in gauges {
            if let Some(value) = value {
                registry.gauge(&format!("{prefix}.{name}")).set(value);
            }
        }
    }
}

/// Computes the QoS metrics of a recorded `trace` for a monitored process
/// that crashes at `crash` (or never, if `None`) by feeding every sample
/// through an [`OnlineQos`], whose alive window and metrics these are. P_A
/// is the trusted fraction of the alive queries: a time average when the
/// queries are evenly spaced, which nothing here requires.
///
/// Returns a default (all-`None`/zero) report for an empty trace.
///
/// # Examples
///
/// ```
/// use afd_core::binary::Status;
/// use afd_core::history::BinaryTrace;
/// use afd_core::time::Timestamp;
/// use afd_obs::analyze;
///
/// // A detector that wrongly suspects during seconds 5–6 and then detects
/// // a crash at t = 20 with 2 s latency.
/// let mut trace = BinaryTrace::new();
/// for s in 1..=30u64 {
///     let suspected = (5..7).contains(&s) || s >= 22;
///     trace.push(
///         Timestamp::from_secs(s),
///         if suspected { Status::Suspected } else { Status::Trusted },
///     );
/// }
/// let report = analyze(&trace, Some(Timestamp::from_secs(20)));
/// assert_eq!(report.mistakes, 1);
/// assert_eq!(report.detection_time, Some(2.0));
/// ```
pub fn analyze(trace: &BinaryTrace, crash: Option<Timestamp>) -> QosReport {
    let mut qos = OnlineQos::new(crash);
    for sample in trace.samples() {
        qos.observe(sample.at, sample.status);
    }
    qos.report()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(horizon: u64, suspected: &[u64], crash: Option<f64>) -> QosReport {
        let mut qos = OnlineQos::new(crash.map(Timestamp::from_secs_f64));
        for s in 1..=horizon {
            let status = if suspected.contains(&s) {
                Status::Suspected
            } else {
                Status::Trusted
            };
            qos.observe(Timestamp::from_secs(s), status);
        }
        qos.report()
    }

    #[test]
    fn no_queries_give_default() {
        assert_eq!(OnlineQos::new(None).report(), QosReport::default());
    }

    #[test]
    fn perfect_run_has_full_accuracy() {
        let r = run(100, &[], None);
        assert_eq!(r.mistakes, 0);
        assert_eq!(r.query_accuracy, 1.0);
        assert_eq!(r.mistake_rate, 0.0);
        assert!((r.observed_alive - 99.0).abs() < 1e-9);
    }

    #[test]
    fn single_mistake_metrics() {
        let r = run(100, &[10, 11, 12], None);
        assert_eq!(r.mistakes, 1);
        assert_eq!(r.mistake_recurrence, None);
        assert_eq!(r.mistake_duration, Some(3.0));
        assert!((r.query_accuracy - 0.97).abs() < 1e-9);
        assert!((r.mistake_rate - 1.0 / 99.0).abs() < 1e-9);
    }

    #[test]
    fn recurrence_and_good_periods() {
        let r = run(100, &[10, 50], None);
        assert_eq!(r.mistakes, 2);
        assert_eq!(r.mistake_recurrence, Some(40.0));
        assert_eq!(r.mistake_duration, Some(1.0));
        assert_eq!(r.good_period, Some(39.0));
    }

    #[test]
    fn alive_window_extends_to_the_crash_instant() {
        // Crash mid-period at t = 60.5: the alive window is 59.5 s long
        // even though the last alive query was at t = 60.
        let suspected: Vec<u64> = (63..=100).collect();
        let r = run(100, &suspected, Some(60.5));
        assert!((r.observed_alive - 59.5).abs() < 1e-9);
        assert_eq!(r.mistakes, 0);
        assert_eq!(r.detection_time, Some(2.5));
    }

    #[test]
    fn crash_beyond_stream_keeps_every_query_in_the_alive_window() {
        // Crash after the horizon: all 100 queries count for accuracy,
        // including the final one.
        let r = run(100, &[100], Some(500.0));
        assert_eq!(r.mistakes, 1);
        assert!((r.query_accuracy - 0.99).abs() < 1e-9);
        assert_eq!(r.detection_time, None);
    }

    #[test]
    fn detection_requires_permanence() {
        let mut suspected: Vec<u64> = (63..80).collect();
        suspected.extend(90..=100);
        let r = run(100, &suspected, Some(60.0));
        assert_eq!(r.detection_time, Some(30.0));
    }

    #[test]
    fn suspicion_predating_the_crash_detects_instantly() {
        let suspected: Vec<u64> = (50..=100).collect();
        let r = run(100, &suspected, Some(60.0));
        assert_eq!(r.detection_time, Some(0.0));
    }

    #[test]
    fn report_is_incremental() {
        let mut qos = OnlineQos::new(None);
        qos.observe(Timestamp::from_secs(1), Status::Trusted);
        qos.observe(Timestamp::from_secs(2), Status::Suspected);
        let mid = qos.report();
        assert_eq!(mid.mistakes, 1);
        assert!((mid.observed_alive - 1.0).abs() < 1e-9);
        qos.observe(Timestamp::from_secs(3), Status::Trusted);
        let end = qos.report();
        assert_eq!(end.mistake_duration, Some(1.0));
        assert!((end.query_accuracy - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn set_crash_mid_stream() {
        let mut qos = OnlineQos::new(None);
        qos.observe(Timestamp::from_secs(1), Status::Trusted);
        qos.set_crash(Timestamp::from_secs(5));
        qos.observe(Timestamp::from_secs(6), Status::Suspected);
        let r = qos.report();
        assert_eq!(r.detection_time, Some(1.0));
        assert_eq!(r.mistakes, 0);
        assert!((r.observed_alive - 4.0).abs() < 1e-9);
    }

    #[test]
    fn single_query_stream() {
        let mut qos = OnlineQos::new(None);
        qos.observe(Timestamp::from_secs(5), Status::Trusted);
        let r = qos.report();
        assert_eq!(r.observed_alive, 0.0);
        assert_eq!(r.query_accuracy, 1.0);
        assert_eq!(r.mistake_rate, 0.0);
    }

    #[test]
    fn observe_returns_whole_stream_transitions() {
        // The crash at t = 3 closes the alive window, not the transitions.
        let mut qos = OnlineQos::new(Some(Timestamp::from_secs(3)));
        let statuses = [
            Status::Trusted,
            Status::Suspected,
            Status::Suspected,
            Status::Trusted,
            Status::Suspected,
        ];
        let transitions: Vec<_> = (1..)
            .zip(statuses)
            .map(|(s, status)| qos.observe(Timestamp::from_secs(s), status))
            .collect();
        let (s, t) = (Some(Transition::Suspect), Some(Transition::Trust));
        assert_eq!(transitions, [None, s, None, t, s]);
    }

    #[test]
    fn export_metrics_mirrors_the_report() {
        let registry = Registry::new();
        let mut qos = OnlineQos::new(None);
        qos.observe(Timestamp::from_secs(1), Status::Trusted);
        qos.observe(Timestamp::from_secs(2), Status::Suspected);
        qos.observe(Timestamp::from_secs(3), Status::Trusted);
        qos.export_metrics(&registry, "qos.phi");
        let (snap, r) = (registry.snapshot(), qos.report());
        assert_eq!(snap.gauge("qos.phi.mistakes"), Some(1.0));
        assert_eq!(snap.gauge("qos.phi.mistake_rate"), Some(r.mistake_rate));
        assert_eq!(snap.gauge("qos.phi.query_accuracy"), Some(r.query_accuracy));
        assert_eq!(snap.gauge("qos.phi.mistake_duration"), r.mistake_duration);
        assert_eq!(snap.gauge("qos.phi.good_period"), None);
        // One mistake has no recurrence and no crash no detection time:
        // a metric that is `None` is not exported.
        assert_eq!(snap.gauge("qos.phi.mistake_recurrence"), None);
        assert_eq!(snap.gauge("qos.phi.detection_time"), None);
        assert_eq!(snap.entries().len(), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_queries_rejected() {
        let mut qos = OnlineQos::new(None);
        qos.observe(Timestamp::from_secs(2), Status::Trusted);
        qos.observe(Timestamp::from_secs(1), Status::Trusted);
    }
}
