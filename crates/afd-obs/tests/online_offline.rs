//! Property-style check that the streaming `OnlineQos` estimator agrees
//! with the offline `analyze` on replayed traces — not just at the end of
//! a run, but at *every prefix*: an operator polling live estimates
//! mid-run must see exactly what a post-hoc analysis of the trace so far
//! would report.

use afd_core::binary::Status;
use afd_core::history::BinaryTrace;
use afd_core::time::Timestamp;
use afd_obs::{analyze, OnlineQos};
use proptest::prelude::*;

fn status(bit: bool) -> Status {
    if bit {
        Status::Suspected
    } else {
        Status::Trusted
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 128 }))]

    /// Every prefix of the live stream reports the same metrics as an
    /// offline analysis of the same prefix.
    #[test]
    fn online_matches_offline_at_every_prefix(
        bits in prop::collection::vec(any::<bool>(), 1..120),
        crash_at in prop::option::of(1u64..150),
    ) {
        let crash = crash_at.map(Timestamp::from_secs);
        let mut online = OnlineQos::new(crash);
        let mut trace = BinaryTrace::new();
        for (i, &b) in bits.iter().enumerate() {
            let at = Timestamp::from_secs(i as u64 + 1);
            online.observe(at, status(b));
            trace.push(at, status(b));
            let live = online.report();
            let offline = analyze(&trace, crash);
            prop_assert_eq!(live, offline, "diverged after {} samples", i + 1);
        }
    }

    /// Irregular (but monotone) query schedules agree too — nothing in the
    /// estimator assumes evenly spaced queries.
    #[test]
    fn online_matches_offline_on_irregular_schedules(
        steps in prop::collection::vec((1u64..5_000_000_000, any::<bool>()), 1..80),
        crash_at in prop::option::of(1u64..200),
    ) {
        let crash = crash_at.map(Timestamp::from_secs);
        let mut online = OnlineQos::new(crash);
        let mut trace = BinaryTrace::new();
        let mut now = Timestamp::ZERO;
        for &(step, b) in &steps {
            now += afd_core::time::Duration::from_nanos(step);
            online.observe(now, status(b));
            trace.push(now, status(b));
        }
        prop_assert_eq!(online.report(), analyze(&trace, crash));
    }
}
