//! Empirical checkers for the paper's defining properties.
//!
//! The paper states Accruement (Prop. 1), Upper Bound (Prop. 2) and Weak
//! Accruement (Prop. 3, A.5) over infinite histories. On a finite history
//! we check their finite witnesses, all read from one streaming fold,
//! [`PropertyFold`]: offline a checker folds a trace, online a caller folds
//! what a monitor's reader returns at its query instants.
//!
//! - **Accruement**: from some `K` on the ε-quantized level never decreases
//!   and strictly increases at least once every `Q` queries. The fold keeps
//!   the smallest `K` (one past the last strict decrease), the increases
//!   after it and its longest constant run (any larger `Q` is valid). Weak
//!   Accruement reads the same stable suffix and leaves its plateaus unbounded.
//! - **Upper Bound**: trivial on a finite trace, so the fold checks the
//!   level stayed finite and reports its running maximum `SL_max`; callers
//!   compare bounds across run lengths to see they do not grow.
//! - **Equation (1)**: `r = ε / 2Q` needs the fold's final `Q`, so
//!   [`check_rate_bound`] is a second linear pass: `sl(k′) − sl(k) ≥ r·(k′ − k)`
//!   for all `k ≤ k′ − Q` is `sl(k′) − r·k′ ≥ max_{k ≤ k′−Q} (sl(k) − r·k)`.

use core::fmt;

use crate::history::SuspicionTrace;
use crate::suspicion::SuspicionLevel;

/// Properties 1–3 read from one pass over a level history, in O(1) state;
/// see the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct PropertyFold {
    epsilon: f64,
    len: usize,
    /// The last level, ε-quantized.
    last: SuspicionLevel,
    max: SuspicionLevel,
    first_infinite: Option<usize>,
    /// `K`, the increases since and the longest constant run since.
    suffix: AccruementWitness,
    run: usize,
}

impl PropertyFold {
    /// An empty fold comparing levels at resolution `epsilon` (Def. 1);
    /// panics unless `epsilon` is finite and positive.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon.is_finite(), "bad ε {epsilon}");
        PropertyFold {
            epsilon,
            len: 0,
            last: SuspicionLevel::ZERO,
            max: SuspicionLevel::ZERO,
            first_infinite: None,
            suffix: AccruementWitness::default(),
            run: 0,
        }
    }

    /// Folds in the level of the next query.
    pub fn observe(&mut self, level: SuspicionLevel) {
        let (q, prev) = (level.quantize(self.epsilon), self.last);
        let s = &mut self.suffix;
        if self.len > 0 && q < prev {
            // A strict decrease: the stable suffix starts past it.
            *s = AccruementWitness::default();
            (s.stabilization_index, self.run) = (self.len + 1, 0);
        } else if self.len > s.stabilization_index && q > prev {
            s.strict_increases += 1;
            self.run = 0;
        } else if self.len > s.stabilization_index {
            self.run += 1;
            s.max_constant_run = s.max_constant_run.max(self.run);
        }
        if level.is_infinite() {
            self.first_infinite.get_or_insert(self.len);
        }
        self.max = self.max.max(level);
        self.last = q;
        self.len += 1;
    }

    /// Property 1's verdict under `check`, whose ε must be the fold's:
    /// the witness, or the first [`AccruementViolation`].
    pub fn accruement(
        &self,
        check: &AccruementCheck,
    ) -> Result<AccruementWitness, AccruementViolation> {
        assert_eq!(check.epsilon.to_bits(), self.epsilon.to_bits(), "ε differs");
        self.stable_suffix((check.min_increases + 2).max(4), check.min_suffix_fraction)?;
        if self.suffix.strict_increases < check.min_increases {
            return Err(AccruementViolation::TooFewIncreases {
                observed: self.suffix.strict_increases,
                required: check.min_increases,
            });
        }
        Ok(self.suffix)
    }

    /// Property 2's verdict: `SL_max`, or an [`UpperBoundViolation`] if the
    /// level became infinite or exceeded `cap`.
    pub fn upper_bound(
        &self,
        cap: Option<SuspicionLevel>,
    ) -> Result<UpperBoundWitness, UpperBoundViolation> {
        let observed = self.max;
        match (self.first_infinite, cap) {
            (Some(index), _) => Err(UpperBoundViolation::InfiniteLevel { index }),
            (_, Some(cap)) if observed > cap => {
                Err(UpperBoundViolation::ExceedsCap { observed, cap })
            }
            _ => Ok(UpperBoundWitness {
                observed_bound: observed,
            }),
        }
    }

    /// Property 3's verdict: an [`AccruementViolation`] unless the fold saw
    /// four levels, no decrease in the trailing half, and a last level of at
    /// least `target_level`, both ε-quantized.
    pub fn weak_accruement(
        &self,
        target_level: SuspicionLevel,
    ) -> Result<WeakAccruementWitness, AccruementViolation> {
        self.stable_suffix(4, 0.5)?;
        if self.last < target_level.quantize(self.epsilon) {
            return Err(AccruementViolation::BelowTarget {
                final_level: self.last,
                target: target_level,
            });
        }
        Ok(WeakAccruementWitness {
            final_level: self.last,
            max_constant_run: self.suffix.max_constant_run,
        })
    }

    /// Errs unless `required` levels were seen and the stable suffix holds
    /// at least `fraction` of them, and two.
    fn stable_suffix(&self, required: usize, fraction: f64) -> Result<(), AccruementViolation> {
        let (len, k) = (self.len, self.suffix.stabilization_index);
        if len < required {
            return Err(AccruementViolation::TraceTooShort { len, required });
        }
        if len - k < (((len as f64) * fraction).ceil() as usize).max(2) {
            let last_decrease = k.saturating_sub(1);
            return Err(AccruementViolation::NoStableSuffix { last_decrease, len });
        }
        Ok(())
    }

    /// Folds `trace` in query order.
    fn over(trace: &SuspicionTrace, epsilon: f64) -> Self {
        let mut fold = PropertyFold::new(epsilon);
        trace.iter().for_each(|s| fold.observe(s.level));
        fold
    }
}

/// The finite witness for Property 1 found on a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccruementWitness {
    /// The stabilization index `K`: from it on, the quantized level never falls.
    pub stabilization_index: usize,
    /// The longest constant run after `K`: a valid `Q` is any larger value.
    pub max_constant_run: usize,
    /// The number of strict increases observed after `K`.
    pub strict_increases: usize,
}

/// Why a trace fails the Accruement check.
#[derive(Debug, Clone, PartialEq)]
pub enum AccruementViolation {
    /// The trace has too few samples to judge.
    TraceTooShort {
        /// Samples present.
        len: usize,
        /// Samples required.
        required: usize,
    },
    /// The level still decreases too close to the end of the trace: no
    /// stable suffix of the required length exists.
    NoStableSuffix {
        /// Index of the last decrease.
        last_decrease: usize,
        /// Trace length.
        len: usize,
    },
    /// The stable suffix never (or too rarely) strictly increases — the
    /// adversary of Appendix A.5 produces exactly this shape.
    TooFewIncreases {
        /// Strict increases observed after stabilization.
        observed: usize,
        /// Strict increases required.
        required: usize,
    },
    /// Weak Accruement only: the last level, however often the suffix
    /// rose, ends below the target.
    BelowTarget {
        /// The last level, ε-quantized.
        final_level: SuspicionLevel,
        /// The level the trace had to reach.
        target: SuspicionLevel,
    },
}

impl fmt::Display for AccruementViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccruementViolation::TraceTooShort { len, required } => {
                write!(f, "trace has {len} samples, need at least {required}")
            }
            AccruementViolation::NoStableSuffix { last_decrease, len } => write!(
                f,
                "suspicion level still decreases at query {last_decrease} of {len}: no stable suffix"
            ),
            AccruementViolation::TooFewIncreases { observed, required } => write!(
                f,
                "only {observed} strict increases after stabilization, need {required}"
            ),
            AccruementViolation::BelowTarget {
                final_level,
                target,
            } => write!(
                f,
                "final suspicion level {final_level} is below the target {target}"
            ),
        }
    }
}

impl std::error::Error for AccruementViolation {}

/// Configuration for [`check_accruement`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccruementCheck {
    /// Resolution ε used to quantize levels before comparison (Definition 1).
    pub epsilon: f64,
    /// Strict increases required after `K` (guards against vacuous suffixes).
    pub min_increases: usize,
    /// Fraction of the trace the stable suffix must cover (0.1 = last 10%).
    pub min_suffix_fraction: f64,
}

impl Default for AccruementCheck {
    fn default() -> Self {
        AccruementCheck {
            epsilon: 1e-9,
            min_increases: 3,
            min_suffix_fraction: 0.05,
        }
    }
}

impl AccruementCheck {
    /// The settings the experiments and integration tests judge a detector
    /// by: ε above its float noise, ten increases, the last fifth stable.
    pub const STRICT: AccruementCheck = AccruementCheck {
        epsilon: 1e-6,
        min_increases: 10,
        min_suffix_fraction: 0.2,
    };

    /// Folds `trace` and reads the verdict; see [`PropertyFold::accruement`].
    pub fn run(&self, trace: &SuspicionTrace) -> Result<AccruementWitness, AccruementViolation> {
        PropertyFold::over(trace, self.epsilon).accruement(self)
    }
}

/// Checks Property 1 (Accruement) on a finite trace with default settings;
/// errs with the first [`AccruementViolation`].
///
/// ```
/// use afd_core::{history::SuspicionTrace, properties::check_accruement};
/// use afd_core::{suspicion::SuspicionLevel, time::Timestamp};
/// let mut trace = SuspicionTrace::new();
/// for k in 0..100u64 {
///     trace.push(Timestamp::from_secs(k), SuspicionLevel::new(k as f64)?);
/// }
/// assert_eq!(check_accruement(&trace)?.stabilization_index, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_accruement(trace: &SuspicionTrace) -> Result<AccruementWitness, AccruementViolation> {
    AccruementCheck::default().run(trace)
}

/// The result of the Upper Bound check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpperBoundWitness {
    /// The observed bound `SL_max` over the whole trace.
    pub observed_bound: SuspicionLevel,
}

/// Why a trace fails the Upper Bound check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpperBoundViolation {
    /// The level became infinite at the given query index.
    InfiniteLevel {
        /// The offending query index.
        index: usize,
    },
    /// The observed maximum exceeded the caller-supplied cap.
    ExceedsCap {
        /// The observed maximum.
        observed: SuspicionLevel,
        /// The cap that was exceeded.
        cap: SuspicionLevel,
    },
}

impl fmt::Display for UpperBoundViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpperBoundViolation::InfiniteLevel { index } => {
                write!(f, "suspicion level became infinite at query {index}")
            }
            UpperBoundViolation::ExceedsCap { observed, cap } => {
                write!(f, "observed {observed} exceeds cap {cap}")
            }
        }
    }
}

impl std::error::Error for UpperBoundViolation {}

/// Checks Property 2 (Upper Bound) on a finite trace: the observed `SL_max`,
/// or an [`UpperBoundViolation`]; see [`PropertyFold::upper_bound`].
pub fn check_upper_bound(
    trace: &SuspicionTrace,
    cap: Option<SuspicionLevel>,
) -> Result<UpperBoundWitness, UpperBoundViolation> {
    PropertyFold::over(trace, AccruementCheck::default().epsilon).upper_bound(cap)
}

/// The finite witness of Property 3 (Weak Accruement): the level trends
/// to infinity, with no bound on plateau lengths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeakAccruementWitness {
    /// The last observed level, ε-quantized.
    pub final_level: SuspicionLevel,
    /// The largest constant run observed on the stable suffix (unbounded
    /// under Property 3 — reported, not constrained; compare with
    /// [`AccruementWitness::max_constant_run`], which Property 1 bounds).
    pub max_constant_run: usize,
}

/// Checks Property 3 (Weak Accruement, Appendix A.5) at the default
/// resolution; see [`PropertyFold::weak_accruement`]. The A.5 adversary's
/// histories pass it with unbounded plateaus, which Property 1 rules out:
/// why Property 3 is too weak to build ◊P on (E9).
pub fn check_weak_accruement(
    trace: &SuspicionTrace,
    target_level: SuspicionLevel,
) -> Result<WeakAccruementWitness, AccruementViolation> {
    PropertyFold::over(trace, AccruementCheck::default().epsilon).weak_accruement(target_level)
}

/// A violation of the Equation (1) minimal-rate bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateBoundViolation {
    /// First query index `k` of the offending pair.
    pub from: usize,
    /// Second query index `k'` of the offending pair.
    pub to: usize,
    /// The observed rate `(sl(k') − sl(k)) / (k' − k)`.
    pub observed_rate: f64,
    /// The required minimum `ε / 2Q`.
    pub required_rate: f64,
}

impl fmt::Display for RateBoundViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rate between queries {} and {} is {:.3e}, below the ε/2Q bound {:.3e}",
            self.from, self.to, self.observed_rate, self.required_rate
        )
    }
}

impl std::error::Error for RateBoundViolation {}

/// Checks Equation (1): on the stable suffix starting at `k_start`, for all
/// pairs `k' ≥ k + q`, the average per-query increase is at least `ε / 2Q`
/// with `Q = q`, in one pass (see the [module docs](self)).
///
/// `q` must be strictly larger than the longest constant run (i.e. use
/// `witness.max_constant_run + 1` from [`check_accruement`]).
///
/// Errs with the first `k'` in violation, paired with its worst `k`; panics
/// if `epsilon` or `q` is not positive, or `k_start` is out of range.
pub fn check_rate_bound(
    trace: &SuspicionTrace,
    epsilon: f64,
    k_start: usize,
    q: usize,
) -> Result<(), RateBoundViolation> {
    assert!(epsilon > 0.0, "ε must be positive");
    assert!(q > 0, "Q must be positive");
    assert!(k_start < trace.len(), "k_start out of range");

    let required = epsilon / (2.0 * q as f64);
    let level = |k: usize| trace.samples()[k].level.value();
    let score = |k: usize| level(k) - required * k as f64;
    // The `k ≤ to − q` of the largest score so far: the worst first index.
    let mut from = k_start;
    for to in (k_start + q)..trace.len() {
        if score(to - q) > score(from) {
            from = to - q;
        }
        let rate = (level(to) - level(from)) / (to - from) as f64;
        if rate < required {
            return Err(RateBoundViolation {
                from,
                to,
                observed_rate: rate,
                required_rate: required,
            });
        }
    }
    Ok(())
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    fn trace_from(values: &[f64]) -> SuspicionTrace {
        let mut t = SuspicionTrace::new();
        for (i, &v) in values.iter().enumerate() {
            t.push(
                Timestamp::from_secs(i as u64),
                SuspicionLevel::new(v).unwrap(),
            );
        }
        t
    }

    #[test]
    fn accruement_holds_on_strictly_increasing_trace() {
        let values: Vec<f64> = (0..200).map(|k| k as f64).collect();
        let w = check_accruement(&trace_from(&values)).unwrap();
        assert_eq!(w.stabilization_index, 0);
        assert_eq!(w.max_constant_run, 0);
        assert_eq!(w.strict_increases, 199);
    }

    #[test]
    fn accruement_allows_bounded_plateaus() {
        // Increases once every 3 queries: 0,0,0,1,1,1,2,...
        let values: Vec<f64> = (0..300).map(|k| (k / 3) as f64).collect();
        let w = check_accruement(&trace_from(&values)).unwrap();
        assert_eq!(w.max_constant_run, 2);
        assert!(w.strict_increases >= 90);
    }

    #[test]
    fn accruement_tolerates_noisy_prefix() {
        // Decreases during the first 50 queries, then increases forever.
        let mut values: Vec<f64> = (0..50).map(|k| (50 - k) as f64).collect();
        values.extend((0..500).map(|k| k as f64));
        // The last decrease is from values[49]=1.0 to values[50]=0.0, so the
        // stable suffix starts at index 51.
        let w = check_accruement(&trace_from(&values)).unwrap();
        assert_eq!(w.stabilization_index, 51);
    }

    #[test]
    fn accruement_rejects_flat_trace() {
        let values = vec![1.0; 200];
        let err = check_accruement(&trace_from(&values)).unwrap_err();
        assert!(matches!(err, AccruementViolation::TooFewIncreases { .. }));
    }

    #[test]
    fn accruement_rejects_trace_that_keeps_decreasing() {
        let values: Vec<f64> = (0..200)
            .map(|k| if k % 10 == 9 { 0.0 } else { k as f64 })
            .collect();
        let err = check_accruement(&trace_from(&values)).unwrap_err();
        assert!(matches!(err, AccruementViolation::NoStableSuffix { .. }));
    }

    #[test]
    fn accruement_rejects_short_trace() {
        let err = check_accruement(&trace_from(&[0.0, 1.0])).unwrap_err();
        assert!(matches!(err, AccruementViolation::TraceTooShort { .. }));
    }

    #[test]
    fn quantization_hides_subresolution_wiggle() {
        // Wiggles of 1e-12 around an increasing staircase disappear at ε=1e-9.
        let values: Vec<f64> = (0..200)
            .map(|k| (k / 2) as f64 + if k % 2 == 0 { 1e-12 } else { 0.0 })
            .collect();
        let check = AccruementCheck {
            epsilon: 1e-9,
            ..AccruementCheck::default()
        };
        assert!(check.run(&trace_from(&values)).is_ok());
    }

    #[test]
    fn upper_bound_reports_max() {
        let w = check_upper_bound(&trace_from(&[0.0, 3.0, 1.0]), None).unwrap();
        assert_eq!(w.observed_bound.value(), 3.0);
    }

    #[test]
    fn upper_bound_enforces_cap() {
        let cap = SuspicionLevel::new(2.0).unwrap();
        let err = check_upper_bound(&trace_from(&[0.0, 3.0]), Some(cap)).unwrap_err();
        assert!(matches!(err, UpperBoundViolation::ExceedsCap { .. }));
    }

    #[test]
    fn upper_bound_rejects_infinity() {
        let mut t = trace_from(&[0.0, 1.0]);
        t.push(Timestamp::from_secs(10), SuspicionLevel::INFINITE);
        let err = check_upper_bound(&t, None).unwrap_err();
        assert_eq!(err, UpperBoundViolation::InfiniteLevel { index: 2 });
    }

    #[test]
    fn rate_bound_holds_for_epsilon_staircase() {
        // Increase by ε=1.0 every 2 queries: rate = 0.5 per query ≥ ε/2Q = 1/6 with Q=3.
        let values: Vec<f64> = (0..100).map(|k| (k / 2) as f64).collect();
        let trace = trace_from(&values);
        check_rate_bound(&trace, 1.0, 0, 3).unwrap();
    }

    #[test]
    fn rate_bound_detects_slowdown() {
        // Constant tail: rate 0 < ε/2Q.
        let mut values: Vec<f64> = (0..50).map(|k| k as f64).collect();
        values.extend(std::iter::repeat_n(49.0, 50));
        let err = check_rate_bound(&trace_from(&values), 1.0, 0, 2).unwrap_err();
        assert!(err.observed_rate < err.required_rate);
    }

    #[test]
    fn weak_accruement_accepts_unbounded_plateaus() {
        // A staircase with GROWING plateau lengths: violates Property 1
        // (no finite Q) but satisfies Property 3 — the A.5 shape.
        let mut values = Vec::new();
        let mut level = 0.0;
        for plateau in 1..40usize {
            for _ in 0..plateau {
                values.push(level);
            }
            level += 1.0;
        }
        let trace = trace_from(&values);
        let target = SuspicionLevel::new(20.0).unwrap();
        let weak = check_weak_accruement(&trace, target).unwrap();
        assert!(weak.final_level >= target);
        assert!(weak.max_constant_run > 30);
        // And the strict checker rejects it: the longest plateau sits at
        // the very end, so no adequate stable-and-increasing suffix exists.
        let strict = AccruementCheck {
            epsilon: 1e-9,
            min_increases: 3,
            min_suffix_fraction: 0.05,
        };
        // The growing plateaus mean the last 5% of the trace may contain
        // no increase at all once plateaus exceed that window.
        let w = strict.run(&trace);
        if let Ok(w) = w {
            assert!(
                w.max_constant_run > 30,
                "plateaus must be visibly unbounded: {w:?}"
            );
        }
    }

    #[test]
    fn weak_accruement_rejects_bounded_and_decreasing() {
        let target = SuspicionLevel::new(5.0).unwrap();
        // Bounded: never reaches the target.
        let bounded = trace_from(&[1.0; 100]);
        assert!(check_weak_accruement(&bounded, target).is_err());
        // Decreasing in the trailing half.
        let mut values: Vec<f64> = (0..100).map(|k| k as f64).collect();
        values[90] = 0.0;
        assert!(check_weak_accruement(&trace_from(&values), target).is_err());
        // Too short.
        assert!(check_weak_accruement(&trace_from(&[0.0, 9.0]), target).is_err());
    }

    #[test]
    fn weak_accruement_names_a_low_end_apart_from_the_increases() {
        // Rises 99 times and never falls, but ends at 99 below a target of
        // 500: the verdict names the low end, not "0 strict increases".
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let target = SuspicionLevel::new(500.0).unwrap();
        let err = check_weak_accruement(&trace_from(&values), target).unwrap_err();
        assert_eq!(
            err,
            AccruementViolation::BelowTarget {
                final_level: SuspicionLevel::new(99.0).unwrap(),
                target,
            }
        );
        assert!(err.to_string().contains("below the target"), "{err}");
    }

    #[test]
    fn violations_display() {
        let v = AccruementViolation::TooFewIncreases {
            observed: 0,
            required: 3,
        };
        assert!(v.to_string().contains("strict increases"));
        let r = RateBoundViolation {
            from: 1,
            to: 5,
            observed_rate: 0.0,
            required_rate: 0.5,
        };
        assert!(r.to_string().contains("ε/2Q"));
    }

    #[test]
    fn fold_reads_every_verdict_in_one_pass() {
        // Falls to 0 at query 9, then a staircase with plateaus of two.
        let mut fold = PropertyFold::new(1e-6);
        for k in 0..60u32 {
            let level = if k < 9 {
                f64::from(9 - k)
            } else {
                f64::from((k - 9) / 3)
            };
            fold.observe(SuspicionLevel::new(level).unwrap());
        }
        let w = fold.accruement(&AccruementCheck::STRICT).unwrap();
        assert_eq!(w.stabilization_index, 10);
        assert_eq!((w.max_constant_run, w.strict_increases), (2, 16));
        assert_eq!(fold.upper_bound(None).unwrap().observed_bound.value(), 16.0);
        let weak = fold.weak_accruement(SuspicionLevel::new(16.0).unwrap());
        assert_eq!(weak.unwrap().max_constant_run, 2);
    }

    #[test]
    #[should_panic(expected = "ε differs")]
    fn fold_refuses_a_check_at_another_resolution() {
        let _ = PropertyFold::new(1e-6).accruement(&AccruementCheck::default());
    }

    mod against_definitions {
        use super::*;
        use proptest::prelude::*;

        /// A short trace of integer stairs: each step rises, falls or holds
        /// by 1–3 ε, a wiggle lifts some by ε/4 (below the resolution), and
        /// one level may be infinite.
        fn stairs(steps: &[(u8, u8, bool)], infinite_at: Option<usize>, eps: f64) -> Vec<f64> {
            let mut stair = 6i64;
            let mut levels = Vec::new();
            for (i, &(op, by, wiggle)) in steps.iter().enumerate() {
                match op {
                    0 => stair += i64::from(by),
                    1 => stair = (stair - i64::from(by)).max(0),
                    _ => {}
                }
                let lift = if wiggle { 0.25 } else { 0.0 };
                let level = (stair as f64 + lift) * eps;
                levels.push(if infinite_at == Some(i) {
                    f64::INFINITY
                } else {
                    level
                });
            }
            levels
        }

        /// `K`, `Q − 1` and the increase count, read off the quantized trace:
        /// `K` one past the last strict decrease, the longest constant
        /// window that starts at or after `K`, the rises after `K`.
        fn suffix_by_definition(levels: &[f64], eps: f64) -> (usize, usize, usize) {
            let q: Vec<SuspicionLevel> = levels
                .iter()
                .map(|&v| SuspicionLevel::new(v).unwrap().quantize(eps))
                .collect();
            let n = q.len();
            let k = (1..n).rfind(|&i| q[i] < q[i - 1]).map_or(0, |i| i + 1);
            let mut longest = 0;
            for a in k..n {
                for b in a..n {
                    if q[a..=b].iter().all(|&x| x == q[a]) {
                        longest = longest.max(b - a);
                    }
                }
            }
            let rises = (k + 1..n).filter(|&i| q[i] > q[i - 1]).count();
            (k, longest, rises)
        }

        /// The first `k'` with some `k ≤ k' − q` from `k_start` on whose
        /// rate is below `ε / 2q`, checking every pair.
        fn first_slow_pair_end(
            levels: &[f64],
            eps: f64,
            k_start: usize,
            q: usize,
        ) -> Option<usize> {
            let required = eps / (2.0 * q as f64);
            (k_start + q..levels.len()).find(|&to| {
                (k_start..=to - q).any(|k| (levels[to] - levels[k]) / ((to - k) as f64) < required)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn fold_verdicts_match_the_definitions(
                steps in prop::collection::vec((0u8..4, 1u8..4, any::<bool>()), 0..48),
                infinite_at in prop::option::of(0usize..64),
                shape in (prop::sample::select(vec![0.5, 1.0]), 0usize..4, 0usize..3),
                probe in (0usize..48, 1usize..6, 0i64..20, prop::option::of(0i64..20)),
            ) {
                let (eps, min_increases, fraction) = shape;
                let (start, q, target, cap) = probe;
                let values = stairs(&steps, infinite_at, eps);
                let trace = trace_from(&values);
                let n = values.len();
                let (k, longest, rises) = suffix_by_definition(&values, eps);

                // Property 1, under each verdict rule in turn.
                let check = AccruementCheck {
                    epsilon: eps,
                    min_increases,
                    min_suffix_fraction: [0.0, 0.2, 0.5][fraction],
                };
                let required = (min_increases + 2).max(4);
                let min_suffix = ((n as f64) * check.min_suffix_fraction).ceil() as usize;
                let want = if n < required {
                    Err(AccruementViolation::TraceTooShort { len: n, required })
                } else if n - k < min_suffix.max(2) {
                    Err(AccruementViolation::NoStableSuffix { last_decrease: k.saturating_sub(1), len: n })
                } else if rises < min_increases {
                    Err(AccruementViolation::TooFewIncreases { observed: rises, required: min_increases })
                } else {
                    Ok(AccruementWitness {
                        stabilization_index: k,
                        max_constant_run: longest,
                        strict_increases: rises,
                    })
                };
                prop_assert_eq!(check.run(&trace), want);

                // Property 2: the first infinite index, else SL_max.
                let cap = cap.map(|c| SuspicionLevel::new(c as f64 * eps).unwrap());
                let first_infinite = values.iter().position(|v| v.is_infinite());
                let sl_max = values.iter().fold(0.0f64, |m, &v| m.max(v));
                let want = match (first_infinite, cap) {
                    (Some(index), _) => Err(UpperBoundViolation::InfiniteLevel { index }),
                    (None, Some(cap)) if sl_max > cap.value() => Err(UpperBoundViolation::ExceedsCap {
                        observed: SuspicionLevel::new(sl_max).unwrap(),
                        cap,
                    }),
                    _ => Ok(UpperBoundWitness { observed_bound: SuspicionLevel::new(sl_max).unwrap() }),
                };
                prop_assert_eq!(check_upper_bound(&trace, cap), want);

                // Property 3 on the same stable suffix.
                let mut fold = PropertyFold::new(eps);
                values.iter().for_each(|&v| fold.observe(SuspicionLevel::new(v).unwrap()));
                let target = SuspicionLevel::new(target as f64 * eps).unwrap();
                let last = SuspicionLevel::new(values.last().copied().unwrap_or(0.0)).unwrap().quantize(eps);
                let want = if n < 4 {
                    Err(AccruementViolation::TraceTooShort { len: n, required: 4 })
                } else if n - k < n.div_ceil(2).max(2) {
                    Err(AccruementViolation::NoStableSuffix { last_decrease: k.saturating_sub(1), len: n })
                } else if last < target.quantize(eps) {
                    Err(AccruementViolation::BelowTarget { final_level: last, target })
                } else {
                    Ok(WeakAccruementWitness {
                        final_level: last,
                        max_constant_run: longest,
                    })
                };
                prop_assert_eq!(fold.weak_accruement(target), want);

                // Equation (1), every pair, from any start and for any Q.
                if start < n {
                    let got = check_rate_bound(&trace, eps, start, q);
                    let want = first_slow_pair_end(&values, eps, start, q);
                    prop_assert_eq!(got.map_err(|e| e.to), want.map_or(Ok(()), Err));
                    if let Err(e) = got {
                        prop_assert!(e.from >= start && e.to >= e.from + q);
                        prop_assert!(e.observed_rate < e.required_rate, "{e}");
                    }
                }
            }
        }
    }
}
