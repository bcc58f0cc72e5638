//! Error-function machinery for the normal tail.
//!
//! The φ detector (§5.3 of the paper) computes `−log₁₀(P_later)` where
//! `P_later` is a normal tail probability, once per watched peer per
//! publish. Three requirements shape this module:
//!
//! 1. **Accuracy deep into the tail** — a suspicion threshold of Φ = 12
//!    corresponds to a tail of 10⁻¹², so the *relative* error of `erfc`
//!    must stay small where `erfc` itself is tiny.
//! 2. **No premature saturation** — `erfc` underflows to zero near `x ≈ 27`
//!    (normal z ≈ 38), which would freeze the suspicion level and violate
//!    Accruement. [`ln_erfc`] and [`ln_half_erfc`] compute the *logarithm*
//!    of the tail directly, so φ keeps growing (quadratically) forever.
//! 3. **Bounded cost** — every function here runs a fixed number of steps
//!    whatever its argument, so a publish over many peers costs the same
//!    however long each has been silent. No loop has a data-dependent trip
//!    count.
//!
//! # Regimes
//!
//! `erf` and `erfc`:
//!
//! | argument | evaluation |
//! |---|---|
//! | `\|x\| < 0.5` | `erf(x) = x·P(x²)`, `P` a degree-10 polynomial (`ERF_SMALL`) |
//! | `x ≥ 0.5` | `erfc(x) = t·exp(−x² + g(t))`, `t = 2/(2 + x)`, with `g` a degree-10 polynomial on each of eight equal pieces of `t ∈ [0, 0.8]` (`ERFC_TAIL`) |
//! | `x ≤ −0.5` | `erfc(x) = 2 − erfc(−x)`; below `−6` that is `2` to the last bit |
//!
//! The logarithms, [`ln_half_erfc`]`(x) = ln(½·erfc(x))` — the log of a
//! normal upper tail, which is what φ asks for — and
//! [`ln_erfc`]` = ln_half_erfc + ln 2`:
//!
//! | argument | `ln_half_erfc` |
//! |---|---|
//! | `x < −6` | exactly `0`: the tail is `1` to the last bit |
//! | `−6 ≤ x < 0.5` | a degree-6 polynomial in `x` on each of 208 pieces of width 1/32 (`LN_HALF_ERFC`): no `exp`, no `ln` |
//! | `x ≥ 0.5` | `−x² + g(t) − ln(1 + x/2) − ln 2`: no `exp`, so nothing underflows |
//!
//! The middle row is where a monitored process that is alive sits between
//! two heartbeats (`x = (elapsed − mean)/(σ√2)` runs from about `−7` up to
//! `0` and starts over), so it is the one a monitor evaluates for nearly
//! every peer at every publish. There the value lies within 1.5 of zero;
//! `ln(2 − erfc(−x))` would spend an `exp` and an `ln` to land next to
//! `ln 2`, which the caller subtracts again — and lose the value's own
//! digits in the cancellation. The direct fit costs one polynomial and
//! keeps them. Narrow pieces make it a short polynomial — degree 6 is
//! three Estrin levels where degree 10 is four — for an 11.6 KB table. The
//! tables live in `erf_table.rs`, written by
//! `scripts/gen_erfc_table.py` from 60-digit arithmetic.
//!
//! A monitor asks for that row once per watched peer per publish, so it
//! also comes eight arguments at a time ([`ln_half_erfc_block`]): the same
//! operations, bit for bit, regrouped by stage so that eight dependency
//! chains overlap where one would fill the reorder window.
//!
//! # Accuracy contract
//!
//! Against the iterative evaluation this module used before (a Maclaurin
//! series below 2, a modified-Lentz continued fraction above; kept under
//! `#[cfg(test)]` as `oracle`): `erfc` within 1e-13 relative on `[−6, 27]`;
//! `ln_erfc` within `1e-12·max(1, |value|)` on `[−6, 200]` and strictly
//! decreasing from `−5` up across every regime boundary and tail piece
//! edge (below that its steps are smaller than an ulp of `ln 2`, and it
//! never increases); `ln_half_erfc` — through `Normal::log10_sf`, its one
//! caller — within 1e-14 absolute of `ln(½·erfc)` on `[−6, 0.5)` and
//! strictly decreasing from `−6` up across those and all 207 inner edges of
//! the direct fit: it has no `ln 2` to cancel against. The tests below hold
//! the kernel to that and re-derive the tables from the oracle.

use core::f64::consts::LN_2;

use super::erf_table::{
    ERFC_TAIL, ERF_SMALL, LIVE_LO, LIVE_SCALE, LIVE_STEP, LN_HALF_ERFC, SMALL_MID, SMALL_X,
    TAIL_SCALE, TAIL_STEP,
};

/// Below this, `2 − erfc(−x)` rounds to exactly 2 (`erfc(6) ≈ 2e-17`).
const SATURATED: f64 = LIVE_LO;

/// The centre of each row of the direct fit. A table because the row comes
/// out of a float-to-integer conversion, and converting it straight back
/// to place the centre puts two more conversions on every query's
/// dependency chain; every entry is exact in binary, so the table holds
/// what the arithmetic gives.
const LIVE_CENTRE: [f64; LN_HALF_ERFC.len()] = {
    let mut centres = [0.0; LN_HALF_ERFC.len()];
    let mut i = 0;
    while i < centres.len() {
        centres[i] = LIVE_LO + (i as f64 + 0.5) * LIVE_STEP;
        i += 1;
    }
    centres
};

/// The error function `erf(x) = (2/√π) ∫₀ˣ e^{−t²} dt`.
///
/// Accurate to ~1e-15 over the full real line.
pub fn erf(x: f64) -> f64 {
    if x.abs() < SMALL_X {
        erf_small(x)
    } else if x < 0.0 {
        erfc_tail(-x) - 1.0
    } else {
        1.0 - erfc_tail(x)
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
pub fn erfc(x: f64) -> f64 {
    if x.abs() < SMALL_X {
        1.0 - erf_small(x)
    } else if x < 0.0 {
        2.0 - erfc_tail(-x)
    } else {
        erfc_tail(x)
    }
}

/// The natural logarithm of `erfc(x)`, stable for arbitrarily large `x`
/// (where `erfc(x)` itself underflows to zero).
pub fn ln_erfc(x: f64) -> f64 {
    if x < SATURATED {
        LN_2
    } else if x < SMALL_X {
        live_poly(x) + LN_2
    } else {
        ln_erfc_tail(x)
    }
}

/// `ln(½·erfc(x))`: the natural logarithm of a normal distribution's upper
/// tail at `x = z/√2`. Exactly zero below `−6`, one polynomial up to `0.5`
/// — where a monitored process sits while it is alive — and stable for
/// arbitrarily large `x`, like [`ln_erfc`].
#[inline]
pub(crate) fn ln_half_erfc(x: f64) -> f64 {
    if x < SATURATED {
        0.0
    } else if x < SMALL_X {
        live_poly(x)
    } else {
        ln_erfc_tail(x) - LN_2
    }
}

/// Arguments one [`ln_half_erfc_block`] takes. Eight measured fastest
/// stand-alone (ROADMAP, *closed*): four chains leave the processor
/// waiting on them, sixteen and more spill its registers.
pub(crate) const LANES: usize = 8;

/// [`ln_half_erfc`] for [`LANES`] arguments at once, bit for bit, in *stages*:
/// every lane's table piece, then every lane's polynomial, then the choice
/// of regime, each a short loop of its own. One evaluation is a chain of
/// some twenty dependent operations; a caller walking many arguments one
/// by one fills the processor's reorder window with two or three such
/// chains, where the eight chains of a stage are independent and overlap.
/// The polynomial is evaluated for every lane — a lane outside
/// `[−6, 0.5)` reads a clamped piece and its value is discarded — and a
/// lane at `0.5` or above (or NaN) takes the scalar tail form. A lane
/// below `−6` is zeroed by a select, not a branch: a monitor's rows mix
/// peers heard a moment ago (saturated) with peers due (live) at no
/// pattern a branch predictor could learn.
#[inline]
pub(crate) fn ln_half_erfc_block(x: &[f64; LANES]) -> [f64; LANES] {
    let mut pieces = [(0usize, 0.0f64); LANES];
    for (piece, &x) in pieces.iter_mut().zip(x) {
        *piece = live_piece(x);
    }
    let mut out = [0.0; LANES];
    for (out, &(i, d)) in out.iter_mut().zip(&pieces) {
        *out = poly6(&LN_HALF_ERFC[i], d);
    }
    for (out, &x) in out.iter_mut().zip(x) {
        let live = if x < SATURATED { 0.0 } else { *out };
        *out = if x < SMALL_X { live } else { suspect_tail(x) };
    }
    out
}

/// [`ln_half_erfc`] at `0.5` and above, out of line: a block is sized for
/// the peers that are alive, and eight inlined copies of the tail form
/// would triple its code for the rare lane that is not.
#[cold]
#[inline(never)]
fn suspect_tail(x: f64) -> f64 {
    ln_erfc_tail(x) - LN_2
}

/// `ln(erfc(x))` for `x ≥ SMALL_X` (and NaN for NaN).
#[inline]
fn ln_erfc_tail(x: f64) -> f64 {
    -x * x + tail_poly(tail_t(x)) - (1.0 + 0.5 * x).ln()
}

/// `ln(½·erfc(x))` for `SATURATED ≤ x < SMALL_X` from the direct fit.
#[inline]
fn live_poly(x: f64) -> f64 {
    let (i, d) = live_piece(x);
    poly6(&LN_HALF_ERFC[i], d)
}

/// The row of the direct fit `x` falls in and its offset from that row's
/// centre. `as` saturates and the row is clamped, so any `x` — below the
/// fit, above it, NaN — lands in a row that exists. Through `u32`, not
/// `u64` (x86 has no conversion to a 64-bit unsigned integer, and
/// emulating one costs more than the rest of this function) and not `i32`:
/// `as u32` floors a negative argument at zero with the float `max` it
/// saturates with, where the `i32` route clamped it again with a branch
/// that a block of peers mixing saturated and live lanes mispredicts.
#[inline]
fn live_piece(x: f64) -> (usize, f64) {
    const LAST: u32 = LN_HALF_ERFC.len() as u32 - 1;
    let i = (((x - LIVE_LO) * LIVE_SCALE) as u32).min(LAST) as usize;
    (i, x - LIVE_CENTRE[i])
}

/// `erf` for `|x| < SMALL_X`.
#[inline]
fn erf_small(x: f64) -> f64 {
    x * poly10(&ERF_SMALL, x * x - SMALL_MID)
}

/// `erfc` for `x ≥ SMALL_X`.
#[inline]
fn erfc_tail(x: f64) -> f64 {
    let t = tail_t(x);
    t * (-x * x + tail_poly(t)).exp()
}

/// The tail fit's variable: `[SMALL_X, ∞]` ↦ `[0.8, 0]`.
#[inline]
fn tail_t(x: f64) -> f64 {
    2.0 / (2.0 + x)
}

/// `g(t) = ln(erfc(x)·e^{x²}/t)` from the piecewise table.
#[inline]
fn tail_poly(t: f64) -> f64 {
    // `as` saturates, so a NaN lands in piece 0 and stays a NaN.
    let i = ((t * TAIL_SCALE) as usize).min(ERFC_TAIL.len() - 1);
    poly10(&ERFC_TAIL[i], t - (i as f64 + 0.5) * TAIL_STEP)
}

/// One table row at offset `d` from its interval's centre. Estrin's
/// grouping rather than Horner's: the dependency chain is five operations
/// long instead of twenty, and a publish is latency-bound. The generator's
/// `poly10` mirrors the grouping to bound its rounding error.
#[inline]
fn poly10(c: &[f64; 11], d: f64) -> f64 {
    let d2 = d * d;
    let d4 = d2 * d2;
    let d8 = d4 * d4;
    let lo = (c[0] + c[1] * d) + (c[2] + c[3] * d) * d2;
    let mid = (c[4] + c[5] * d) + (c[6] + c[7] * d) * d2;
    let hi = (c[8] + c[9] * d) + c[10] * d2;
    lo + mid * d4 + hi * d8
}

/// [`poly10`]'s grouping for a row of the direct fit, which is degree 6:
/// a chain of four operations. The generator's `poly6` mirrors it.
#[inline]
fn poly6(c: &[f64; 7], d: f64) -> f64 {
    let d2 = d * d;
    let d4 = d2 * d2;
    let lo = (c[0] + c[1] * d) + (c[2] + c[3] * d) * d2;
    let hi = (c[4] + c[5] * d) + c[6] * d2;
    lo + hi * d4
}

/// The iterative evaluation the kernel replaced: exact to ~1e-15 but with a
/// trip count that grows with the argument. Kept as the reference the
/// tests compare the kernel and its tables against.
#[cfg(test)]
mod oracle {
    use core::f64::consts::PI;

    /// Threshold between the series and continued-fraction regimes.
    const SPLIT: f64 = 2.0;
    /// Convergence tolerance for both expansions.
    const EPS: f64 = 1e-16;
    /// Tiny value guarding Lentz's algorithm against division by zero.
    const TINY: f64 = 1e-300;

    /// The error function `erf(x) = (2/√π) ∫₀ˣ e^{−t²} dt`.
    ///
    /// Accurate to ~1e-15 over the full real line.
    pub(super) fn erf(x: f64) -> f64 {
        if x < 0.0 {
            return -erf(-x);
        }
        if x < SPLIT {
            erf_series(x)
        } else {
            1.0 - erfc_cf(x)
        }
    }

    /// The complementary error function `erfc(x) = 1 − erf(x)`.
    pub(super) fn erfc(x: f64) -> f64 {
        if x < 0.0 {
            return 2.0 - erfc(-x);
        }
        if x < SPLIT {
            1.0 - erf_series(x)
        } else {
            erfc_cf(x)
        }
    }

    /// The natural logarithm of `erfc(x)`, stable for arbitrarily large `x`
    /// (where `erfc(x)` itself underflows to zero).
    ///
    /// For `x ≥ 2` this is `−x² + ln f(x) − ½ ln π` with `f` the continued
    /// fraction, which never underflows; for smaller `x` it is the plain log.
    pub(super) fn ln_erfc(x: f64) -> f64 {
        if x < SPLIT {
            return erfc(x).ln();
        }
        let f = erfc_cf_factor(x);
        -x * x + f.ln() - 0.5 * PI.ln()
    }

    /// Maclaurin series for `erf`, valid (fast) for `0 ≤ x < ~3`.
    fn erf_series(x: f64) -> f64 {
        // erf(x) = (2/√π) e^{−x²} Σ_{n≥0} x^{2n+1} 2ⁿ / (1·3·…·(2n+1))
        // (the "scaled" series: all terms positive, so no cancellation).
        let x2 = x * x;
        let mut term = x;
        let mut sum = x;
        let mut n = 0u32;
        loop {
            n += 1;
            term *= 2.0 * x2 / (2.0 * n as f64 + 1.0);
            sum += term;
            if term < EPS * sum || n > 200 {
                break;
            }
        }
        (2.0 / PI.sqrt()) * (-x2).exp() * sum
    }

    /// Continued-fraction evaluation of `erfc` for `x ≥ 2`.
    fn erfc_cf(x: f64) -> f64 {
        let f = erfc_cf_factor(x);
        (-x * x).exp() * f / PI.sqrt()
    }

    /// The factor `f(x)` in `erfc(x) = e^{−x²} f(x) / √π`, via the classical
    /// continued fraction `f(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + …))))`
    /// evaluated with the modified Lentz algorithm.
    pub(super) fn erfc_cf_factor(x: f64) -> f64 {
        // b₀ = x, a_n = n/2 for n ≥ 1, b_n = x.
        let b = x;
        let mut f = b.max(TINY);
        let mut c = f;
        let mut d = 0.0;
        for n in 1..500 {
            let a = n as f64 / 2.0;
            d = b + a * d;
            if d.abs() < TINY {
                d = TINY;
            }
            c = b + a / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            let delta = c * d;
            f *= delta;
            if (delta - 1.0).abs() < EPS {
                break;
            }
        }
        1.0 / f
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ArrivalDistribution, Normal};
    use super::*;
    use core::f64::consts::{LOG10_E, PI};

    // Reference values computed with mpmath at 50 digits.
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.112_462_916_018_284_9),
        (0.5, 0.520_499_877_813_046_5),
        (1.0, 0.842_700_792_949_714_9),
        (1.5, 0.966_105_146_475_310_8),
        (2.0, 0.995_322_265_018_952_7),
        (3.0, 0.999_977_909_503_001_4),
    ];

    const ERFC_TABLE: &[(f64, f64)] = &[
        (2.0, 4.677_734_981_063_049e-3),
        (2.5, 4.069_520_174_449_589e-4),
        (3.0, 2.209_049_699_858_544e-5),
        (4.0, 1.541_725_790_028_002e-8),
        (5.0, 1.537_459_794_428_035e-12),
        (6.0, 2.151_973_671_249_891_3e-17),
        (8.0, 1.122_429_717_264_859_6e-29),
        (10.0, 2.088_487_583_762_545e-45),
    ];

    #[test]
    fn erf_matches_reference() {
        for &(x, want) in ERF_TABLE {
            let got = erf(x);
            assert!((got - want).abs() < 1e-14, "erf({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn erfc_matches_reference_in_tail() {
        for &(x, want) in ERFC_TABLE {
            let got = erfc(x);
            assert!(
                (got / want - 1.0).abs() < 1e-10,
                "erfc({x}) = {got:e}, want {want:e}"
            );
        }
    }

    #[test]
    fn erf_is_odd_and_erfc_complements() {
        for &x in &[0.3, 1.2, 2.7, 4.1] {
            assert!((erf(-x) + erf(x)).abs() < 1e-15);
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-14);
            assert!((erfc(-x) - (2.0 - erfc(x))).abs() < 1e-14);
        }
    }

    #[test]
    fn ln_erfc_matches_log_of_erfc_where_representable() {
        for &(x, want) in ERFC_TABLE {
            let got = ln_erfc(x);
            assert!(
                (got - want.ln()).abs() < 1e-10,
                "ln_erfc({x}) = {got}, want {}",
                want.ln()
            );
        }
    }

    #[test]
    fn ln_erfc_keeps_going_past_underflow() {
        // erfc(30) underflows f64 entirely; the log must still be finite and
        // follow the asymptotic −x² − ln(x√π).
        let x = 30.0;
        assert_eq!(erfc(x), 0.0);
        let got = ln_erfc(x);
        let asymptotic = -x * x - (x * PI.sqrt()).ln();
        assert!(got.is_finite());
        assert!(
            (got - asymptotic).abs() < 1e-3,
            "got {got}, asym {asymptotic}"
        );
        // Strictly decreasing far into the tail.
        assert!(ln_erfc(50.0) < ln_erfc(40.0));
        assert!(ln_erfc(40.0) < ln_erfc(30.0));
    }

    #[test]
    fn continuity_at_the_split() {
        // The two regimes must agree near x = 2.
        let below = erfc(1.999_999_9);
        let above = erfc(2.000_000_1);
        assert!((below - above).abs() / below < 1e-6);
    }

    #[test]
    fn monotonicity_of_erfc() {
        let xs: Vec<f64> = (0..600).map(|i| i as f64 * 0.01).collect();
        for w in xs.windows(2) {
            assert!(erfc(w[1]) <= erfc(w[0]), "erfc not monotone at {}", w[0]);
        }
    }

    // ---- the kernel against the iterative oracle ----

    /// `g(t) = ln(erfc(x)·e^{x²}/t)` from the oracle alone. In the tail the
    /// continued fraction gives `erfc(x)·e^{x²}` directly, so no `x²` is
    /// added back and nothing cancels at small `t`.
    fn oracle_g(t: f64) -> f64 {
        let x = 2.0 / t - 2.0;
        let ln_scaled = if x < 2.0 {
            oracle::ln_erfc(x) + x * x
        } else {
            oracle::erfc_cf_factor(x).ln() - 0.5 * PI.ln()
        };
        ln_scaled - t.ln()
    }

    /// `ln(½·erfc(x))` from the oracle alone. Below zero through the lower
    /// tail, so the value keeps its digits where `½·erfc` is `1 − 1e-17`.
    fn oracle_ln_half_erfc(x: f64) -> f64 {
        if x < 0.0 {
            (-0.5 * oracle::erfc(-x)).ln_1p()
        } else {
            (0.5 * oracle::erfc(x)).ln()
        }
    }

    /// Re-derives a table row of `N` coefficients from `f` in f64:
    /// Chebyshev interpolation at `N` nodes of `[a, b]`, converted to
    /// monomial coefficients in `s = (v − mid)/half`. Conversion amplifies
    /// the oracle's error (up to 3e-15 where it computes `1 − erf`) by the
    /// Chebyshev polynomials' own coefficients (≤ 1280 at degree 10), so a
    /// re-derived coefficient is good to ~1e-11 of the row's value; the
    /// comparison allows 1e-10.
    fn rederive_row<const N: usize>(f: impl Fn(f64) -> f64, a: f64, b: f64) -> [f64; N] {
        let (mid, half) = (0.5 * (a + b), 0.5 * (b - a));
        let theta: Vec<f64> = (0..N).map(|k| PI * (k as f64 + 0.5) / N as f64).collect();
        let fv: Vec<f64> = theta.iter().map(|th| f(mid + half * th.cos())).collect();
        let mut cheb = [0.0; N];
        for (j, c) in cheb.iter_mut().enumerate() {
            let sum: f64 = (0..N).map(|k| fv[k] * (j as f64 * theta[k]).cos()).sum();
            *c = 2.0 * sum / N as f64;
        }
        cheb[0] *= 0.5;
        // T₀ = 1, T₁ = s, T_{j+1} = 2s·T_j − T_{j−1}, as coefficient rows.
        let mut mono = [0.0; N];
        let (mut prev, mut cur) = ([0.0; N], [0.0; N]);
        prev[0] = 1.0;
        cur[1] = 1.0;
        mono[0] = cheb[0];
        for &c in &cheb[1..] {
            let mut next = [0.0; N];
            for k in 0..N {
                mono[k] += c * cur[k];
                if k + 1 < N {
                    next[k + 1] += 2.0 * cur[k];
                }
                next[k] -= prev[k];
            }
            prev = cur;
            cur = next;
        }
        mono
    }

    fn assert_row_matches<const N: usize>(name: &str, row: &[f64; N], half: f64, want: [f64; N]) {
        for (k, (&c, &w)) in row.iter().zip(&want).enumerate() {
            // The table is in d = v − mid, the re-derivation in s = d/half.
            let got = c * half.powi(k as i32);
            assert!(
                (got - w).abs() < 1e-10,
                "{name}[{k}]: table {got:e} vs re-derived {w:e}"
            );
        }
    }

    #[test]
    fn tables_are_rederivable_from_the_oracle() {
        for (i, row) in ERFC_TAIL.iter().enumerate() {
            let (a, b) = (i as f64 * TAIL_STEP, (i + 1) as f64 * TAIL_STEP);
            // Piece 0 starts at t = 0 (x = ∞); its nodes do not reach it.
            assert_row_matches(
                &format!("ERFC_TAIL[{i}]"),
                row,
                0.5 * TAIL_STEP,
                rederive_row(oracle_g, a, b),
            );
            // The constant term is g at the centre: a much tighter check.
            let mid = 0.5 * (a + b);
            assert!((row[0] - oracle_g(mid)).abs() < 1e-14, "g({mid})");
        }
        let erf_over_x = |y: f64| oracle::erf(y.sqrt()) / y.sqrt();
        assert_row_matches(
            "ERF_SMALL",
            &ERF_SMALL,
            SMALL_MID,
            rederive_row(erf_over_x, 0.0, 2.0 * SMALL_MID),
        );
        for (i, row) in LN_HALF_ERFC.iter().enumerate() {
            let a = LIVE_LO + i as f64 * LIVE_STEP;
            assert_row_matches(
                &format!("LN_HALF_ERFC[{i}]"),
                row,
                0.5 * LIVE_STEP,
                rederive_row(oracle_ln_half_erfc, a, a + LIVE_STEP),
            );
            let mid = a + 0.5 * LIVE_STEP;
            assert!(
                (row[0] - oracle_ln_half_erfc(mid)).abs() < 1e-14,
                "ln(½·erfc({mid}))"
            );
        }
        assert_eq!(2.0 * SMALL_MID, SMALL_X * SMALL_X);
        assert_eq!(TAIL_STEP * TAIL_SCALE, 1.0);
        assert_eq!(LIVE_STEP * LIVE_SCALE, 1.0);
        assert_eq!(
            LIVE_LO + LN_HALF_ERFC.len() as f64 * LIVE_STEP,
            SMALL_X,
            "the direct fit ends where the tail form begins"
        );
        assert_eq!(
            ERFC_TAIL.len() as f64 * TAIL_STEP,
            tail_t(SMALL_X),
            "pieces end where the small-argument regime begins"
        );
    }

    /// Every argument at which the evaluation changes regime or table row.
    fn boundaries() -> Vec<f64> {
        let mut xs = vec![SATURATED, -SMALL_X, SMALL_X];
        // Piece boundaries t = i·TAIL_STEP ⇔ x = 2/t − 2.
        xs.extend((1..ERFC_TAIL.len()).map(|i| 2.0 / (i as f64 * TAIL_STEP) - 2.0));
        xs
    }

    /// [`boundaries`] plus the inner piece edges of the direct fit.
    fn boundaries_and_live_edges() -> Vec<f64> {
        let mut xs = boundaries();
        xs.extend((1..LN_HALF_ERFC.len()).map(|i| LIVE_LO + i as f64 * LIVE_STEP));
        xs
    }

    /// Walks the 10⁻⁶ grid a thousand steps either side of every one of
    /// `boundaries`: `f` must never increase, and from `strict_from` up
    /// every step must strictly decrease.
    fn assert_decreasing_across(
        boundaries: Vec<f64>,
        name: &str,
        f: impl Fn(f64) -> f64,
        strict_from: f64,
    ) {
        for b in boundaries {
            let mut prev = f(b - 1e-3);
            for k in -999..=1000 {
                let x = b + k as f64 * 1e-6;
                let cur = f(x);
                if x < strict_from {
                    assert!(cur <= prev, "{name} rose at {x}: {prev} -> {cur}");
                } else {
                    assert!(cur < prev, "{name} not decreasing at {x}: {prev} -> {cur}");
                }
                prev = cur;
            }
        }
    }

    /// And on a coarse grid, 10⁻³, from `from` to the end of the contract
    /// range: every step must strictly decrease.
    fn assert_strictly_decreasing_up_to_200(name: &str, f: impl Fn(f64) -> f64, from: f64) {
        let mut prev = f(from);
        for k in 1..=((200.0 - from) * 1e3) as u32 {
            let x = from + f64::from(k) * 1e-3;
            let cur = f(x);
            assert!(cur < prev, "{name} not decreasing at {x}");
            prev = cur;
        }
    }

    #[test]
    fn ln_erfc_is_strictly_decreasing_across_every_boundary() {
        // Below ≈ −5 the slope of ln erfc is under 1e-11 and the value sits
        // within a few ulps of ln 2, so there only "never increases" can
        // hold; from there on every step must strictly decrease.
        assert_decreasing_across(boundaries(), "ln_erfc", ln_erfc, -5.0);
        assert_strictly_decreasing_up_to_200("ln_erfc", ln_erfc, -5.0);
    }

    /// The normal model whose `log10_sf(x)` is `log₁₀(½·erfc(x))` at exactly
    /// `x`: mean 0 and an `erfc_scale` of exactly 1.
    fn unit_scale_normal() -> Normal {
        // 1/√2 rounded down: its product with √2 rounds to 1.
        let std = f64::from_bits(core::f64::consts::FRAC_1_SQRT_2.to_bits() - 1);
        let n = Normal::new(0.0, std).unwrap();
        for x in [-5.9, -0.3, 0.7, 17.0] {
            assert_eq!(n.log10_sf(x), ln_half_erfc(x) * LOG10_E, "scale is not 1");
        }
        n
    }

    #[test]
    fn log10_sf_is_strictly_decreasing_from_saturation_up() {
        // The direct fit has no ln 2 to cancel against: at −6 the value is
        // −1e-17 and a 10⁻⁶ step moves its fifth digit, so every step from
        // there up must show — across all 208 piece edges, the hand-over to
        // the tail form and the tail's own pieces. Below −6 it is exactly 0.
        let n = unit_scale_normal();
        assert_decreasing_across(
            boundaries_and_live_edges(),
            "log10_sf",
            |x| n.log10_sf(x),
            SATURATED,
        );
        assert_strictly_decreasing_up_to_200("log10_sf", |x| n.log10_sf(x), SATURATED);
        assert_eq!(n.log10_sf(SATURATED - 1e-9), 0.0);
        assert!(n.log10_sf(SATURATED) < 0.0);
    }

    #[test]
    fn kernel_matches_oracle_at_the_boundaries_and_extremes() {
        for b in boundaries_and_live_edges() {
            for x in [b - 1e-9, b, b + 1e-9] {
                let (got, want) = (ln_erfc(x), oracle::ln_erfc(x));
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "ln_erfc({x}) = {got}, oracle {want}"
                );
            }
        }
        assert_eq!(ln_erfc(-40.0), oracle::ln_erfc(-40.0));
        assert_eq!(ln_half_erfc(-40.0), 0.0);
        assert_eq!(ln_half_erfc(f64::INFINITY), f64::NEG_INFINITY);
        assert!(ln_half_erfc(f64::NAN).is_nan());
        assert_eq!(erfc(-40.0), 2.0);
        assert_eq!(erf(-40.0), -1.0);
        assert_eq!(erf(40.0), 1.0);
        assert_eq!(ln_erfc(f64::INFINITY), f64::NEG_INFINITY);
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert!(ln_erfc(f64::NAN).is_nan() && erfc(f64::NAN).is_nan() && erf(f64::NAN).is_nan());
        // Far past anything a detector will see, still finite and ordered.
        assert!(ln_erfc(1e6) < ln_erfc(1e5) && ln_erfc(1e6).is_finite());
    }

    #[test]
    fn the_block_is_the_scalar_lane_for_lane() {
        // Every regime and both hand-overs side by side, then the edges of
        // every row of the direct fit, a block at a time.
        let mut xs = vec![
            -40.0,
            SATURATED,
            -0.3,
            SMALL_X,
            17.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for edge in boundaries_and_live_edges() {
            xs.extend([edge - 1e-9, edge, edge + 1e-9]);
        }
        xs.resize(xs.len().next_multiple_of(LANES), 0.0);
        for block in xs.chunks(LANES) {
            let block: &[f64; LANES] = block.try_into().unwrap();
            for (x, got) in block.iter().zip(ln_half_erfc_block(block)) {
                assert_eq!(got.to_bits(), ln_half_erfc(*x).to_bits(), "at {x}");
            }
        }
        for (i, centre) in LIVE_CENTRE.iter().enumerate() {
            assert_eq!(*centre, LIVE_LO + (i as f64 + 0.5) * LIVE_STEP);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            #[test]
            fn erfc_matches_oracle(x in -6.0f64..27.0) {
                let (got, want) = (erfc(x), oracle::erfc(x));
                // Past x ≈ 26.55 erfc is subnormal and carries no 13 digits;
                // there the two may differ by a few units of the last place.
                prop_assert!(
                    (got - want).abs() <= 1e-13 * want + 1e-322,
                    "erfc({}) = {:e}, oracle {:e}", x, got, want
                );
            }

            #[test]
            fn erf_matches_oracle(x in -6.0f64..6.0) {
                let (got, want) = (erf(x), oracle::erf(x));
                prop_assert!(
                    (got - want).abs() <= 1e-15 + 1e-13 * want.abs(),
                    "erf({}) = {:e}, oracle {:e}", x, got, want
                );
            }

            #[test]
            fn ln_erfc_matches_oracle(x in -6.0f64..200.0) {
                let (got, want) = (ln_erfc(x), oracle::ln_erfc(x));
                prop_assert!(
                    (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "ln_erfc({}) = {}, oracle {}", x, got, want
                );
            }

            /// The hot range of a monitor — peers between two heartbeats sit
            /// at u ∈ [−7, 0], suspects a little above — sampled densely.
            #[test]
            fn ln_erfc_matches_oracle_where_monitors_live(x in -7.5f64..8.0) {
                let (got, want) = (ln_erfc(x), oracle::ln_erfc(x));
                prop_assert!(
                    (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "ln_erfc({}) = {}, oracle {}", x, got, want
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 64 } else { 4096 }))]

            /// Where a live peer sits between two heartbeats the log of the
            /// tail comes from the direct fit, which has an absolute
            /// contract: the value is within 1.5 of zero there.
            #[test]
            fn log10_sf_matches_oracle_where_live_peers_sit(x in -6.0f64..0.5) {
                let want = oracle_ln_half_erfc(x);
                let got = ln_half_erfc(x);
                prop_assert!((got - want).abs() <= 1e-14, "ln_half_erfc({}) = {}, oracle {}", x, got, want);
                let got = unit_scale_normal().log10_sf(x);
                prop_assert!(
                    (got - want * LOG10_E).abs() <= 1e-14,
                    "log10_sf({}) = {}, oracle {}", x, got, want * LOG10_E
                );
            }

            /// Staging changes the order the work is done in, not the work.
            #[test]
            fn the_block_is_the_scalar_anywhere(
                xs in prop::collection::vec(-8.0f64..2.0, LANES..LANES + 1),
            ) {
                let block: &[f64; LANES] = xs.as_slice().try_into().unwrap();
                for (x, got) in block.iter().zip(ln_half_erfc_block(block)) {
                    prop_assert_eq!(got.to_bits(), ln_half_erfc(*x).to_bits(), "at {}", x);
                }
            }
        }
    }
}
