#!/usr/bin/env python3
"""Generates crates/afd-core/src/dist/erf_table.rs (needs mpmath).

Three tables, all rounded from 60-digit arithmetic to the nearest f64:

  ERF_SMALL     for |x| < SMALL_X: erf(x)/x as a function of y = x^2 on
                [0, SMALL_X^2].
  ERFC_TAIL     for x >= SMALL_X: with t = 2/(2+x), the function
                    g(t) = ln(erfc(x) * exp(x^2) / t)
                is smooth on [0, T_MAX] (g(0) = -ln(2 sqrt(pi))). The
                interval is cut into PIECES equal pieces, one row each.
  LN_HALF_ERFC  for LIVE_LO <= x < SMALL_X: ln(erfc(x)/2) itself, the log of
                a normal upper tail, on LIVE_PIECES pieces of width
                LIVE_STEP, at degree LIVE_DEGREE. A monitored process that
                is alive sits here
                between two heartbeats, where the value is within 1.5 of
                zero: fitting it directly needs no exp and no ln, and does
                not cancel against ln 2 the way ln(2 - erfc(-x)) does.

A row holds the monomial coefficients, in d = (variable - centre of the
interval), of the Chebyshev interpolant on that interval: degree DEGREE for
ERF_SMALL and ERFC_TAIL, LIVE_DEGREE for LN_HALF_ERFC. The live fit is the
one a monitor evaluates for nearly every peer at every publish, so it trades
table size (208 rows of 7) for a shorter polynomial.

Before writing anything the script rebuilds the classical single-piece fit
(Chebyshev series of g in ty = 4t - 2 on t in [0, 1], degree 27) and checks
its leading coefficients against their published values, so a broken g or a
broken transform cannot produce a plausible-looking table. After rounding it
evaluates the tables in plain f64 arithmetic, the way erf.rs does, against
mpmath on a dense grid and fails if the error exceeds MAX_ERR, or if
LN_HALF_ERFC does not step strictly downwards over its grid and across
every edge between two of its pieces.

    python3 scripts/gen_erfc_table.py            # rewrite erf_table.rs
    python3 scripts/gen_erfc_table.py --check    # fail if the file differs
"""
import pathlib
import sys

import mpmath as mp

mp.mp.dps = 60

SMALL_X = mp.mpf("0.5")
T_MAX = mp.mpf("0.8")  # t at x = SMALL_X
PIECES = 8
DEGREE = 10
TAIL_SCALE = PIECES / float(T_MAX)  # pieces per unit of t
TAIL_STEP = float(T_MAX) / PIECES  # width of a piece
SMALL_MID = float(SMALL_X) ** 2 / 2  # centre of [0, SMALL_X^2]
MAX_ERR = 6e-16  # ~2.5 ulp of g or of ln(erfc(x)/2) at x = SMALL_X: evaluation rounding, not truncation
LIVE_LO = mp.mpf(-6)  # below it erfc(x)/2 is 1 to the last bit
LIVE_DEGREE = 6
LIVE_SCALE = 32.0  # pieces per unit of x
LIVE_STEP = 1 / LIVE_SCALE  # width of a piece
LIVE_PIECES = int((SMALL_X - LIVE_LO) * LIVE_SCALE)

OUT = pathlib.Path(__file__).resolve().parent.parent / "crates/afd-core/src/dist/erf_table.rs"


def g(t):
    t = mp.mpf(t)
    if t == 0:
        return -mp.log(2 * mp.sqrt(mp.pi))
    x = 2 / t - 2
    return mp.log(mp.erfc(x)) + x * x - mp.log(t)


def cheb_coeffs(f, a, b, degree):
    """Chebyshev-interpolant coefficients of f on [a, b] (c[0] not halved)."""
    n = degree + 1
    mid, half = (a + b) / 2, (b - a) / 2
    theta = [mp.pi * (k + mp.mpf(1) / 2) / n for k in range(n)]
    fv = [f(mid + half * mp.cos(th)) for th in theta]
    return [2 * sum(fv[k] * mp.cos(j * theta[k]) for k in range(n)) / n for j in range(n)]


def cheb_to_monomial(c):
    """Coefficients in s of sum_j c[j] T_j(s), c[0] already halved."""
    n = len(c)
    t_prev, t_cur = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
    out = [mp.mpf(0)] * n
    out[0] += c[0]
    for j in range(1, n):
        for k, v in enumerate(t_cur):
            out[k] += c[j] * v
        t_next = [mp.mpf(0)] + [2 * v for v in t_cur]
        for k, v in enumerate(t_prev):
            t_next[k] -= v
        t_prev, t_cur = t_cur, t_next
    return out


def check_against_published_fit():
    published = [
        "-1.3026537197817094",
        "0.6419697923564903",
        "0.019476473204185836",
        "-0.009561514786808632",
    ]
    c = cheb_coeffs(g, mp.mpf(0), mp.mpf(1), 27)
    for got, want in zip(c, published):
        if abs(got - mp.mpf(want)) > mp.mpf("1e-15"):
            sys.exit(f"generator self-check failed: {mp.nstr(got, 20)} vs published {want}")


def row(f, a, b, degree=DEGREE):
    """f on [a, b] as f64 monomial coefficients in d = v - (a + b)/2."""
    c = cheb_coeffs(f, a, b, degree)
    c[0] /= 2
    half = (b - a) / 2
    return [float(m / half**k) for k, m in enumerate(cheb_to_monomial(c))]


def erf_over_x(y):
    if y == 0:
        return 2 / mp.sqrt(mp.pi)
    x = mp.sqrt(y)
    return mp.erf(x) / x


def erf_small():
    return row(erf_over_x, mp.mpf(0), SMALL_X**2)


def erfc_tail():
    width = T_MAX / PIECES
    return [row(g, i * width, (i + 1) * width) for i in range(PIECES)]


def ln_half_erfc(x):
    x = mp.mpf(x)
    # log1p of the lower tail: erfc(x)/2 is 1 - 1e-17 at the low end.
    return mp.log1p(-mp.erfc(-x) / 2) if x < 0 else mp.log(mp.erfc(x) / 2)


def ln_half_erfc_live():
    step = mp.mpf(LIVE_STEP)
    return [
        row(ln_half_erfc, LIVE_LO + i * step, LIVE_LO + (i + 1) * step, LIVE_DEGREE)
        for i in range(LIVE_PIECES)
    ]


def poly10(c, d):
    """Plain-f64 mirror of erf.rs `poly10` (same Estrin grouping)."""
    d2 = d * d
    d4 = d2 * d2
    d8 = d4 * d4
    lo = (c[0] + c[1] * d) + (c[2] + c[3] * d) * d2
    mid = (c[4] + c[5] * d) + (c[6] + c[7] * d) * d2
    hi = (c[8] + c[9] * d) + c[10] * d2
    return lo + mid * d4 + hi * d8


def poly6(c, d):
    """Plain-f64 mirror of erf.rs `poly6` (same Estrin grouping)."""
    d2 = d * d
    d4 = d2 * d2
    lo = (c[0] + c[1] * d) + (c[2] + c[3] * d) * d2
    hi = (c[4] + c[5] * d) + c[6] * d2
    return lo + hi * d4


def eval_small(table, x):
    return x * poly10(table, x * x - SMALL_MID)


def eval_tail(rows, t):
    i = min(int(t * TAIL_SCALE), PIECES - 1)
    return poly10(rows[i], t - (i + 0.5) * TAIL_STEP)


def eval_live(rows, x):
    i = min(int((x - float(LIVE_LO)) * LIVE_SCALE), LIVE_PIECES - 1)
    return poly6(rows[i], x - (float(LIVE_LO) + (i + 0.5) * LIVE_STEP))


def validate_live(rows):
    worst, prev = 0.0, 0.0
    points = 20000
    for k in range(points):
        x = float(LIVE_LO) + float(SMALL_X - LIVE_LO) * k / points
        got = eval_live(rows, x)
        if not got < prev:
            sys.exit(f"LN_HALF_ERFC does not step down at {x!r}: {prev!r} -> {got!r}")
        prev = got
        worst = max(worst, float(abs(mp.mpf(got) - ln_half_erfc(x))))
    # Across each edge between two pieces, on the 1e-6 grid erf.rs tests on.
    for i in range(1, LIVE_PIECES):
        edge = float(LIVE_LO) + i * LIVE_STEP
        steps = [eval_live(rows, edge + k * 1e-6) for k in (-1, 0, 1)]
        if not steps[0] > steps[1] > steps[2]:
            sys.exit(f"LN_HALF_ERFC does not step down across the edge at {edge!r}: {steps!r}")
    if worst > MAX_ERR:
        sys.exit(f"LN_HALF_ERFC error {worst:.3e} exceeds {MAX_ERR:.1e}")
    return worst


def validate(small, rows):
    worst = 0.0
    for k in range(2001):
        x = float(SMALL_X) * k / 2000
        want = mp.erf(mp.mpf(x))
        got = eval_small(small, x)
        err = abs(mp.mpf(got) - want) / (want if want else 1)
        worst = max(worst, float(err))
    for k in range(1, 40001):
        # x from 0.5 to ~1e6, log-spaced.
        x = float(SMALL_X) * 10 ** (k * 6.3 / 40000)
        t = 2.0 / (2.0 + x)
        err = abs(mp.mpf(eval_tail(rows, t)) - g(mp.mpf(t)))
        worst = max(worst, float(err))
    if worst > MAX_ERR:
        sys.exit(f"table error {worst:.3e} exceeds {MAX_ERR:.1e}")
    return worst


def render_rows(rows):
    lines = []
    for row in rows:
        lines.append("    [")
        lines += [f"        {c!r}," for c in row]
        lines.append("    ],")
    return lines + ["];", ""]


def render(small, rows, worst, live, live_worst):
    assert DEGREE == 10, "erf.rs hard-codes the degree-10 Estrin grouping"
    assert LIVE_DEGREE == 6, "erf.rs hard-codes the degree-6 Estrin grouping"
    lines = [
        "// @generated by scripts/gen_erfc_table.py — do not edit by hand.",
        "//",
        f"// Worst error of the tables evaluated in f64 against mpmath: {worst:.2e}",
        "// (relative for ERF_SMALL, absolute in g for ERFC_TAIL) and",
        f"// {live_worst:.2e} (absolute, LN_HALF_ERFC).",
        "",
        "/// Coefficients in `d = x² − SMALL_MID` of `erf(x)/x` for `|x| < SMALL_X`.",
        "#[rustfmt::skip]",
        f"pub(super) const ERF_SMALL: [f64; {DEGREE + 1}] = [",
    ]
    lines += [f"    {c!r}," for c in small]
    lines += [
        "];",
        "",
        "/// Where the small-argument series hands over to the tail fit.",
        f"pub(super) const SMALL_X: f64 = {float(SMALL_X)!r};",
        "",
        "/// Centre of `[0, SMALL_X²]`.",
        f"pub(super) const SMALL_MID: f64 = {SMALL_MID!r};",
        "",
        "/// Pieces per unit of `t`: piece `i` covers `[i, i + 1) / TAIL_SCALE`.",
        f"pub(super) const TAIL_SCALE: f64 = {TAIL_SCALE!r};",
        "",
        "/// Width of a piece, `1/TAIL_SCALE`.",
        f"pub(super) const TAIL_STEP: f64 = {TAIL_STEP!r};",
        "",
        "/// Row `i`: coefficients in `d = t − (i + ½)·TAIL_STEP` of",
        "/// `g(t) = ln(erfc(x)·e^{x²}/t)`, `t = 2/(2 + x)`.",
        "#[rustfmt::skip]",
        f"pub(super) const ERFC_TAIL: [[f64; {DEGREE + 1}]; {PIECES}] = [",
    ]
    lines += render_rows(rows)
    lines += [
        "/// Where the direct fit of `ln(½·erfc(x))` starts; it ends at `SMALL_X`.",
        f"pub(super) const LIVE_LO: f64 = {float(LIVE_LO)!r};",
        "",
        "/// Pieces per unit of `x`: piece `i` covers `LIVE_LO + [i, i + 1) / LIVE_SCALE`.",
        f"pub(super) const LIVE_SCALE: f64 = {LIVE_SCALE!r};",
        "",
        "/// Width of a piece, `1/LIVE_SCALE`.",
        f"pub(super) const LIVE_STEP: f64 = {LIVE_STEP!r};",
        "",
        "/// Row `i`: coefficients in `d = x − (LIVE_LO + (i + ½)·LIVE_STEP)` of",
        "/// `ln(½·erfc(x))`.",
        "#[rustfmt::skip]",
        f"pub(super) const LN_HALF_ERFC: [[f64; {LIVE_DEGREE + 1}]; {LIVE_PIECES}] = [",
    ]
    lines += render_rows(live)
    return "\n".join(lines)


def main():
    check_against_published_fit()
    small, rows, live = erf_small(), erfc_tail(), ln_half_erfc_live()
    text = render(small, rows, validate(small, rows), live, validate_live(live))
    if "--check" in sys.argv[1:]:
        if OUT.read_text() != text:
            sys.exit(f"{OUT} is stale; rerun scripts/gen_erfc_table.py")
        return
    OUT.write_text(text)
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
