//! Run traces: everything a simulated monitoring run produced.

use afd_core::time::{Duration, Timestamp};

/// One heartbeat's journey through the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatRecord {
    /// The heartbeat's sequence number (1-based, as in Algorithm 4).
    pub seq: u64,
    /// When the sender broadcast it (global time).
    pub sent_at: Timestamp,
    /// When the monitor received it (global time), or `None` if lost or
    /// still in flight at the horizon.
    pub delivered_at: Option<Timestamp>,
    /// The delivery time on the monitor's local clock.
    pub delivered_local: Option<Timestamp>,
}

/// The heartbeat arrival process of one monitored pair over one run.
///
/// Produced by [`crate::engine::simulate`]; consumed by
/// `afd_runtime::replay`, which feeds it through the shipping monitor to
/// any accrual detector.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    records: Vec<HeartbeatRecord>,
    crash_time: Option<Timestamp>,
    horizon: Timestamp,
    interval: Duration,
}

impl ArrivalTrace {
    /// Assembles a trace.
    ///
    /// # Panics
    ///
    /// Panics if records are not in ascending `seq` order.
    pub fn new(
        records: Vec<HeartbeatRecord>,
        crash_time: Option<Timestamp>,
        horizon: Timestamp,
        interval: Duration,
    ) -> Self {
        for pair in records.windows(2) {
            assert!(
                pair[0].seq < pair[1].seq,
                "heartbeat records must be in ascending seq order"
            );
        }
        ArrivalTrace {
            records,
            crash_time,
            horizon,
            interval,
        }
    }

    /// All heartbeat records, in send order.
    pub fn records(&self) -> &[HeartbeatRecord] {
        &self.records
    }

    /// The sender's crash time (global), if it crashed.
    pub fn crash_time(&self) -> Option<Timestamp> {
        self.crash_time
    }

    /// The end of the simulated run (global time).
    pub fn horizon(&self) -> Timestamp {
        self.horizon
    }

    /// The nominal heartbeat interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Delivered heartbeats as `(seq, local arrival time)`, sorted by
    /// arrival time (the order the monitor experiences, which can differ
    /// from send order under jitter).
    pub fn deliveries_in_arrival_order(&self) -> Vec<(u64, Timestamp)> {
        let mut v: Vec<(u64, Timestamp)> = self
            .records
            .iter()
            .filter_map(|r| r.delivered_local.map(|t| (r.seq, t)))
            .collect();
        v.sort_by_key(|&(seq, t)| (t, seq));
        v
    }

    /// Number of heartbeats sent.
    pub fn sent_count(&self) -> usize {
        self.records.len()
    }

    /// Number of heartbeats delivered.
    pub fn delivered_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.delivered_at.is_some())
            .count()
    }

    /// The fraction of sent heartbeats that never arrived.
    pub fn loss_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        1.0 - self.delivered_count() as f64 / self.sent_count() as f64
    }

    /// Inter-arrival times (seconds) between consecutive *deliveries*, in
    /// arrival order — the samples an adaptive detector estimates from.
    pub fn inter_arrival_seconds(&self) -> Vec<f64> {
        let deliveries = self.deliveries_in_arrival_order();
        deliveries
            .windows(2)
            .map(|w| (w[1].1 - w[0].1).as_secs_f64())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, sent_s: u64, delivered_ms: Option<u64>) -> HeartbeatRecord {
        HeartbeatRecord {
            seq,
            sent_at: Timestamp::from_secs(sent_s),
            delivered_at: delivered_ms.map(Timestamp::from_millis),
            delivered_local: delivered_ms.map(Timestamp::from_millis),
        }
    }

    fn trace() -> ArrivalTrace {
        ArrivalTrace::new(
            vec![
                record(1, 1, Some(1_100)),
                record(2, 2, None),
                record(3, 3, Some(3_300)),
                record(4, 4, Some(4_050)),
            ],
            Some(Timestamp::from_secs(10)),
            Timestamp::from_secs(60),
            Duration::from_secs(1),
        )
    }

    #[test]
    fn counts_and_loss_rate() {
        let t = trace();
        assert_eq!(t.sent_count(), 4);
        assert_eq!(t.delivered_count(), 3);
        assert!((t.loss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn deliveries_sorted_by_arrival() {
        let mut records = vec![
            record(1, 1, Some(5_000)), // arrives late
            record(2, 2, Some(2_500)), // overtakes
        ];
        records[0].delivered_local = Some(Timestamp::from_millis(5_000));
        let t = ArrivalTrace::new(
            records,
            None,
            Timestamp::from_secs(60),
            Duration::from_secs(1),
        );
        let d = t.deliveries_in_arrival_order();
        assert_eq!(d[0].0, 2);
        assert_eq!(d[1].0, 1);
    }

    #[test]
    fn inter_arrival_times() {
        let t = trace();
        let gaps = t.inter_arrival_seconds();
        assert_eq!(gaps.len(), 2);
        assert!((gaps[0] - 2.2).abs() < 1e-9);
        assert!((gaps[1] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_sane() {
        let t = ArrivalTrace::new(Vec::new(), None, Timestamp::ZERO, Duration::from_secs(1));
        assert_eq!(t.loss_rate(), 0.0);
        assert!(t.inter_arrival_seconds().is_empty());
    }

    #[test]
    #[should_panic(expected = "ascending seq order")]
    fn unordered_records_rejected() {
        let _ = ArrivalTrace::new(
            vec![record(2, 1, None), record(1, 2, None)],
            None,
            Timestamp::ZERO,
            Duration::from_secs(1),
        );
    }

    #[test]
    fn accessors() {
        let t = trace();
        assert_eq!(t.crash_time(), Some(Timestamp::from_secs(10)));
        assert_eq!(t.horizon(), Timestamp::from_secs(60));
        assert_eq!(t.interval(), Duration::from_secs(1));
        assert_eq!(t.records().len(), 4);
    }
}
