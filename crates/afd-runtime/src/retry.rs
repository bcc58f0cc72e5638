//! Bounded retry with exponential backoff and jitter.
//!
//! Transport faults are expected, not exceptional: the steady-state loop
//! retries them a bounded number of times with exponentially growing,
//! jittered pauses, and only then surfaces a typed
//! [`RuntimeError::RetriesExhausted`]. Sleeping is delegated to the caller
//! so the same policy runs against real time (`thread::sleep`) and against
//! a virtual clock.

use afd_core::time::Duration;
use afd_sim::rng::SimRng;

use crate::error::{RuntimeError, TransportError};

/// A bounded exponential-backoff policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so 1 means "no retries").
    pub max_attempts: u32,
    /// Pause after the first failure; doubles per subsequent failure.
    pub base_delay: Duration,
    /// Cap on any single pause.
    pub max_delay: Duration,
    /// Jitter fraction in `[0, 1]`: each pause is scaled by a factor drawn
    /// uniformly from `[1 − jitter, 1 + jitter]`, decorrelating retry
    /// storms across senders.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            jitter: 0.2,
        }
    }
}

impl RetryPolicy {
    /// The pause after failed attempt number `attempt` (0-based).
    ///
    /// The exponential term saturates instead of overflowing: any
    /// `attempt` large enough to push `base_delay · 2^attempt` past the
    /// nanosecond representation yields `max_delay` (modulo jitter), so
    /// the policy is total over the whole `u32` attempt range.
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> Duration {
        // base · 2^attempt as a saturating left shift: shifting past the
        // base's leading zeros would overflow u64 nanoseconds, and any
        // such value already exceeds every representable max_delay.
        let base = self.base_delay.as_nanos();
        let shift = attempt.min(63);
        let exp = if base == 0 {
            0
        } else if shift > base.leading_zeros() {
            u64::MAX
        } else {
            base << shift
        };
        let capped = Duration::from_nanos(exp).min(self.max_delay);
        let factor = if self.jitter > 0.0 {
            rng.uniform_in(1.0 - self.jitter, 1.0 + self.jitter)
        } else {
            1.0
        };
        // Jitter may scale up to (1 + jitter) · max_delay; saturate rather
        // than panic near the top of the range.
        let jittered = capped.as_nanos() as f64 * factor.max(0.0);
        if jittered >= u64::MAX as f64 {
            Duration::MAX
        } else {
            Duration::from_nanos(jittered.round() as u64)
        }
    }

    /// Runs `op` under this policy, pausing via `sleep` between failures.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RetriesExhausted`] with the final transport
    /// error once the attempt budget is spent.
    pub fn run<T>(
        &self,
        rng: &mut SimRng,
        mut sleep: impl FnMut(Duration),
        mut op: impl FnMut() -> Result<T, TransportError>,
    ) -> Result<T, RuntimeError> {
        let attempts = self.max_attempts.max(1);
        let mut last = TransportError::Disconnected;
        for attempt in 0..attempts {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    last = e;
                    if attempt + 1 < attempts {
                        sleep(self.backoff(attempt, rng));
                    }
                }
            }
        }
        Err(RuntimeError::RetriesExhausted { attempts, last })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succeeds_without_sleeping_when_op_succeeds() {
        let policy = RetryPolicy::default();
        let mut rng = SimRng::seed_from_u64(1);
        let mut slept = Vec::new();
        let out = policy.run(&mut rng, |d| slept.push(d), || Ok::<_, TransportError>(7));
        assert_eq!(out, Ok(7));
        assert!(slept.is_empty());
    }

    #[test]
    fn retries_until_success() {
        let policy = RetryPolicy::default();
        let mut rng = SimRng::seed_from_u64(2);
        let mut calls = 0;
        let out = policy.run(
            &mut rng,
            |_| {},
            || {
                calls += 1;
                if calls < 3 {
                    Err(TransportError::Io("flaky".into()))
                } else {
                    Ok(calls)
                }
            },
        );
        assert_eq!(out, Ok(3));
    }

    #[test]
    fn exhaustion_surfaces_last_error_and_attempt_count() {
        let policy = RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default()
        };
        let mut rng = SimRng::seed_from_u64(3);
        let mut slept = Vec::new();
        let out: Result<(), _> = policy.run(
            &mut rng,
            |d| slept.push(d),
            || Err(TransportError::Io("down".into())),
        );
        assert_eq!(
            out,
            Err(RuntimeError::RetriesExhausted {
                attempts: 4,
                last: TransportError::Io("down".into()),
            })
        );
        // One pause between each attempt, none after the last.
        assert_eq!(slept.len(), 3);
        // Pauses grow roughly exponentially despite jitter.
        assert!(slept[2] > slept[0]);
    }

    #[test]
    fn backoff_grows_then_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            jitter: 0.0,
        };
        let mut rng = SimRng::seed_from_u64(4);
        assert_eq!(policy.backoff(0, &mut rng), Duration::from_millis(10));
        assert_eq!(policy.backoff(1, &mut rng), Duration::from_millis(20));
        assert_eq!(policy.backoff(2, &mut rng), Duration::from_millis(40));
        assert_eq!(policy.backoff(5, &mut rng), Duration::from_millis(100));
        assert_eq!(policy.backoff(29, &mut rng), Duration::from_millis(100));
    }

    #[test]
    fn huge_attempt_numbers_saturate_instead_of_overflowing() {
        // Regression: the exponential term used to be computed before the
        // cap, overflowing the nanosecond representation (and panicking in
        // `Duration::mul_f64`) once base · 2^attempt left the u64 range.
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base_delay: Duration::from_secs(100),
            max_delay: Duration::from_secs(300),
            jitter: 0.0,
        };
        let mut rng = SimRng::seed_from_u64(6);
        assert_eq!(policy.backoff(63, &mut rng), Duration::from_secs(300));
        assert_eq!(policy.backoff(u32::MAX, &mut rng), Duration::from_secs(300));
        // Still exact below the cap.
        assert_eq!(policy.backoff(1, &mut rng), Duration::from_secs(200));
    }

    #[test]
    fn saturation_holds_at_extreme_delays_with_jitter() {
        // Even with max_delay at the top of the representable range and
        // jitter scaling above 1.0, the pause saturates instead of
        // panicking.
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base_delay: Duration::MAX,
            max_delay: Duration::MAX,
            jitter: 0.5,
        };
        let mut rng = SimRng::seed_from_u64(7);
        for attempt in [0, 1, 63, 64, 1000, u32::MAX] {
            let d = policy.backoff(attempt, &mut rng);
            assert!(d <= Duration::MAX);
            assert!(d >= Duration::MAX.mul_f64(0.4), "jitter band floor");
        }
    }

    #[test]
    fn zero_base_delay_stays_zero() {
        let policy = RetryPolicy {
            base_delay: Duration::ZERO,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = SimRng::seed_from_u64(8);
        assert_eq!(policy.backoff(u32::MAX, &mut rng), Duration::ZERO);
    }

    #[test]
    fn jitter_stays_within_band() {
        let policy = RetryPolicy {
            jitter: 0.2,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(10),
            max_attempts: 5,
        };
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..200 {
            let d = policy.backoff(0, &mut rng).as_secs_f64();
            assert!((0.08..=0.12).contains(&d), "jittered pause {d} out of band");
        }
    }
}
