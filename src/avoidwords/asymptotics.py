"""Numerical growth checks: does w_r(n) behave like C_r * ((r+1)*2^r)^n * n^(-3/2)?

Ratios and normalized terms are computed exactly as rationals, rounded to
128-bit floats only at the boundary, then accelerated by Richardson (Neville
in 1/n) extrapolation. The growth rates and the -3/2 exponent are on firm
footing; the leading constants are conjectural and reported as such.

mpmath is imported inside the functions that compute with it, so importing
this module (and through it the package and the CLI) does not load it.
"""

from fractions import Fraction

from .fixtures import load_cached_recurrence
from .scheme import word_counts

PRECISION_BITS = 128
RICHARDSON_DEPTH = 3
QUOTIENT_DEPTH = 2  # the exponent and 1/n fits, on quotients of neighbouring terms
TAIL_POINTS = 8
# scheme terms a cached recurrence must reproduce before it extends them
CHECK_TERMS = 30


class TooFewTermsError(ValueError):
    """The sequence is too short for a stable extrapolation."""


def conjectured_growth(r):
    return (r + 1) * 2**r


def reference_constant(r):
    """Conjectural leading constant, evaluated from its closed form (r <= 5)."""
    from mpmath import mp, pi, sqrt

    with mp.workprec(PRECISION_BITS):
        inv_sqrt_pi = 1 / sqrt(pi)
        forms = {
            1: inv_sqrt_pi,
            2: inv_sqrt_pi * 3 * sqrt(3) / (7 * sqrt(7)),
            3: inv_sqrt_pi / 8,
            4: inv_sqrt_pi / (6 * sqrt(6)),
            5: inv_sqrt_pi * 3 * sqrt(3) / 125,
        }
        return forms.get(r)


REFERENCE_FIRST_CORRECTION = {
    1: Fraction(-9, 8),
    2: Fraction(-249, 392),
    3: Fraction(-33, 64),
    4: Fraction(-23, 48),
    5: Fraction(-471, 1000),
}


def _frac_to_mpf(fr):
    from mpmath import mpf

    fr = Fraction(fr)
    return mpf(fr.numerator) / mpf(fr.denominator)


def _richardson(values, indices, depth):
    """Neville extrapolation to h=0 with h=1/n; exact for poly of degree `depth` in 1/n."""
    from mpmath import mpf

    h = [mpf(1) / n for n in indices]
    table = list(values)
    for m in range(1, depth + 1):
        nxt = []
        for i in range(len(table) - 1):
            num = h[i] * table[i + 1] - h[i + m] * table[i]
            nxt.append(num / (h[i] - h[i + m]))
        table = nxt
    return table[-1]


def _tail(stop, depth):
    """The TAIL_POINTS + depth indices just below `stop`."""
    return list(range(stop - TAIL_POINTS - depth, stop))


def growth_ratio(terms):
    """Extrapolated limit of w(n)/w(n-1) from the tail of the terms."""
    if len(terms) < 50:
        raise TooFewTermsError("need at least 50 terms for a growth estimate")
    from mpmath import mp

    idx = _tail(len(terms), RICHARDSON_DEPTH)
    with mp.workprec(PRECISION_BITS):
        ratios = [_frac_to_mpf(Fraction(terms[n], terms[n - 1])) for n in idx]
        return _richardson(ratios, idx, RICHARDSON_DEPTH)


def _normalized_terms(terms, indices, growth, exponent):
    from mpmath import mp, mpf

    with mp.workprec(PRECISION_BITS):
        g = mpf(growth) if not isinstance(growth, mpf) else growth
        out = []
        for n in indices:
            t = mpf(terms[n])
            out.append(t / (g**n) / mpf(n) ** exponent)
        return out


def fit_constant(terms, growth, exponent):
    """Extrapolated limit of w(n) / (growth^n * n^exponent)."""
    if growth <= 0:
        raise ValueError("growth must be positive")
    from mpmath import mp, mpf

    idx = _tail(len(terms), RICHARDSON_DEPTH)
    with mp.workprec(PRECISION_BITS):
        u = _normalized_terms(terms, idx, growth, mpf(exponent))
        return _richardson(u, idx, RICHARDSON_DEPTH)


def fit_exponent(terms, growth):
    """Free fit of e in w(n) ~ C * growth^n * n^e."""
    from mpmath import log, mp, mpf

    idx = _tail(len(terms), QUOTIENT_DEPTH)
    with mp.workprec(PRECISION_BITS):
        g = mpf(growth)
        es = []
        for n in idx:
            vn = mpf(terms[n]) / g**n
            vp = mpf(terms[n - 1]) / g ** (n - 1)
            es.append(log(vn / vp) / log(mpf(n) / (n - 1)))
        return _richardson(es, idx, QUOTIENT_DEPTH)


def fit_first_correction(terms, growth, exponent):
    """Extrapolated c1 in w(n) ~ C growth^n n^exponent (1 + c1/n + ...).

    Uses -n(n+1)*(u(n+1)/u(n) - 1) = c1 + O(1/n), which sidesteps the fitted
    constant entirely.
    """
    from mpmath import mp, mpf

    nmax = len(terms) - 1
    idx = _tail(nmax, QUOTIENT_DEPTH)
    with mp.workprec(PRECISION_BITS):
        u = _normalized_terms(terms, list(range(idx[0], nmax + 1)), growth, mpf(exponent))
        base = idx[0]
        vals = []
        for n in idx:
            un = u[n - base]
            un1 = u[n + 1 - base]
            vals.append(-mpf(n) * (n + 1) * (un1 / un - 1))
        return _richardson(vals, idx, QUOTIENT_DEPTH)


def verified_recurrence(r):
    """The cached recurrence for w_r and the fresh scheme terms that verified it.

    Returns (recurrence, terms w_r(0..check length)), or None when no
    recurrence is cached. The recurrence must reproduce at least
    max(CHECK_TERMS, order + 10) + 1 freshly computed scheme terms before it
    is trusted for a long extension; ArithmeticError when it does not.
    """
    try:
        rec = load_cached_recurrence(r)
    except (FileNotFoundError, KeyError):
        return None
    initial = word_counts(r, max(CHECK_TERMS, rec.order + 10))
    if not rec.verify(initial):
        raise ArithmeticError(f"cached recurrence for r={r} fails on fresh terms")
    return rec, initial


def sequence_for(r, nmax):
    """Terms w_r(0..nmax) and the path that made them.

    Returns (list of terms, source). A cached recurrence is preferred: once
    `verified_recurrence` has checked it, it extends the check terms (source
    "recurrence-extension"). With no cached recurrence, or when the check
    terms already reach nmax, the terms are the scheme series' own (source
    "scheme-series"); for long sequences the series costs far more than the
    extension. Its work grows as nmax^3 (n^2 dot-product steps per prime, and
    a number of primes proportional to n): for r = 6, which ships no
    recurrence, `word_counts(6, 300)` takes about 1.4 s, `word_counts(6, 600)`
    15 s and all 2001 terms of `asympt --r 6` about 10 min on 2 vCPUs.
    """
    verified = verified_recurrence(r)
    if verified is None:
        return word_counts(r, nmax), "scheme-series"
    rec, initial = verified
    if nmax < len(initial):
        return initial[: nmax + 1], "scheme-series"
    return rec.extend(initial, nmax), "recurrence-extension"


def conjecture_check(r, nmax=2000, tol=0.01):
    """Growth report for w_r(0..nmax), as a JSON-ready dict.

    `n_range` is the tail window the extrapolations used, `source` the path
    that made the terms (see `sequence_for`), and `passed` whether the growth
    estimate lies within `tol` of (r+1)*2^r, relatively.
    """
    seq, source = sequence_for(r, nmax)
    from mpmath import mp, mpf, pi

    with mp.workprec(PRECISION_BITS):
        growth = growth_ratio(seq)
        target = conjectured_growth(r)
        dev = abs(growth - target) / target
        c = fit_constant(seq, growth=mpf(target), exponent=mpf(-1.5))
        e = fit_exponent(seq, growth=mpf(target))
        c1 = fit_first_correction(seq, growth=mpf(target), exponent=mpf(-1.5))
        cref = reference_constant(r)
        c1ref = REFERENCE_FIRST_CORRECTION.get(r)
        return {
            "r": r,
            "nmax": nmax,
            "n_range": [nmax - TAIL_POINTS - RICHARDSON_DEPTH + 1, nmax],
            "tolerance": tol,
            "growth_estimate": float(growth),
            "conjectured_growth": target,
            "growth_relative_deviation": float(dev),
            "passed": bool(dev <= tol),
            "fitted_constant": float(c),
            "reference_constant": None if cref is None else float(cref),
            "constant_relative_deviation": None if cref is None else float(abs(c - cref) / cref),
            "fitted_exponent": float(e),
            "fitted_first_correction": float(c1),
            "reference_first_correction": None if c1ref is None else float(c1ref),
            "constant_squared_times_pi": float(c * c * pi),
            "source": source,
            "note": "growth rate and exponent are checks of rigorous structure; the "
                    "leading constant comparisons are conjectural",
        }


def report_text(report):
    """The text form of a `conjecture_check` report."""
    n_lo, n_hi = report["n_range"]
    cref = report["reference_constant"]
    c1ref = report["reference_first_correction"]
    lines = [
        f"r={report['r']}  (terms to n={report['nmax']}, tail window "
        f"{n_lo}..{n_hi}, source: {report['source']})",
        f"  growth:    estimated {report['growth_estimate']:.10g}   "
        f"conjectured {report['conjectured_growth']}   "
        f"rel.dev {report['growth_relative_deviation']:.3e}   "
        f"[{'PASS' if report['passed'] else 'FAIL'} at tol {report['tolerance']}]",
        f"  exponent:  fitted {report['fitted_exponent']:+.6f}   expected -1.5",
        f"  constant:  fitted {report['fitted_constant']:.10g}"
        + (
            f"   reference {cref:.10g}   rel.dev {report['constant_relative_deviation']:.3e}"
            if cref is not None
            else "   (no reference value)"
        ),
        f"  1/n term:  fitted {report['fitted_first_correction']:+.6f}"
        + (f"   reference {c1ref:+.6f}" if c1ref is not None else ""),
        f"  C^2*pi:    {report['constant_squared_times_pi']:.10g}   "
        "(square of constant times pi, for rational-square inspection)",
    ]
    return "\n".join(lines)
