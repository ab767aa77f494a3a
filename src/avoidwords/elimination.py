"""Eliminate the auxiliary enumerators from a scheme.

Two independent backends produce a polynomial in {x, G0_0} that annihilates
the g^(0,0) series: a Groebner basis under a block elimination order, and a
chain of resultants (one auxiliary variable at a time, monomial and integer
content stripped after each step). Compressing x^r -> x then yields the
algebraic equation satisfied by the counting generating function itself, a
MultivariatePolynomial over ("x", "F") in the form `canonical_equation` gives.
"""

import signal

from .groebner import block_elimination_key, groebner_basis
from .polynomials import MultivariatePolynomial, NonDivisibleError, exact_divide, resultant
from .scheme import scheme_pairs, variable_name
from .series import evaluate_on_series

DEFAULT_TIMEOUT = 120.0
ANNIHILATION_MARGIN = 2  # times deg_x + deg_F; a shorter cutoff accepts junk


class EliminationTimeout(TimeoutError):
    """The wall-clock budget for an elimination was exhausted."""


class EmptyEliminationError(ArithmeticError):
    """Nothing free of the eliminated variables is left: no Groebner basis
    element, or a resultant chain whose every pair had a zero resultant."""


class InsufficientSeriesError(ValueError):
    """The series is too short for a meaningful annihilation check."""


def eliminate(scheme, backend="resultants", timeout=DEFAULT_TIMEOUT):
    """A nonzero polynomial in {x, G0_0} vanishing on the scheme's solution.

    backend "resultants": variables removed one at a time, largest (i+j, i)
    first, with monomial and integer content stripped after every resultant;
    a pair whose resultant is zero is dropped.
    backend "buchberger": reduced basis under the elimination order, smallest
    member free of the auxiliary variables.

    The budget is a SIGALRM interval timer: after `timeout` seconds of wall
    clock its handler raises EliminationTimeout between any two bytecodes of
    the run. Signal handlers can only be set in the main thread, so a budget
    elsewhere raises ValueError. None, or a budget longer than the timer can
    hold, means no limit; a budget of 0 raises before any step.
    """
    run = {"resultants": _eliminate_resultants, "buchberger": _eliminate_buchberger}.get(backend)
    if run is None:
        raise ValueError(f"unknown backend {backend!r}")
    if timeout is None:
        return run(scheme)
    message = f"{backend} elimination exceeded its time budget of {timeout} s"
    if timeout <= 0:
        raise EliminationTimeout(message)

    def expire(signum, frame):
        raise EliminationTimeout(message)

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
        except OverflowError:
            pass  # beyond the timer's range: no limit
        return run(scheme)
    finally:
        # cancel first: an alarm after the restore could reach SIG_DFL and
        # end the process
        try:
            signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)


def _eliminate_buchberger(scheme):
    variables = scheme.variables
    keep = {"x", variable_name((0, 0))}
    elim_positions = [k for k, v in enumerate(variables) if v not in keep]
    kept_positions = [variables.index(variable_name((0, 0))), variables.index("x")]
    key_fn = block_elimination_key(len(variables), elim_positions, kept_positions)
    gens = [poly.primitive().terms for poly in scheme.equations.values()]
    basis = groebner_basis(gens, key_fn)
    for p in basis:  # sorted by leading monomial, smallest first
        if all(all(e[pos] == 0 for pos in elim_positions) for e in p):
            out = MultivariatePolynomial(variables, p)
            return out.restrict_variables(("x", variable_name((0, 0)))).primitive()
    raise EmptyEliminationError("no Groebner basis element lies in the kept variables")


def _eliminate_resultants(scheme):
    order = sorted(
        (p for p in scheme_pairs(scheme.r) if p != (0, 0)),
        key=lambda p: (p[0] + p[1], p[0]),
        reverse=True,
    )
    # monomial factors x^a * prod G^e never vanish on the series solution
    # (every enumerator has a nonzero series), so stripping them keeps every
    # intermediate a valid annihilator and stops degree creep
    polys = [poly.strip_monomial_content().primitive() for _, poly in sorted(scheme.equations.items())]
    for name in map(variable_name, order):
        having = [p for p in polys if p.degree(name) > 0]
        others = [p for p in polys if p.degree(name) <= 0]
        if not having:
            continue
        if len(having) == 1:
            # the constraint only projects away; dropping it keeps everything
            # that vanishes on the scheme solution
            polys = others
            continue
        pivot = min(having, key=lambda p: (p.degree(name), len(p)))
        produced = []
        for q in having:
            if q is pivot:
                continue
            res = resultant(pivot, q, name)
            # zero: pivot and q share a factor; all kept still vanish on the solution
            if not res.is_zero:
                produced.append(res.strip_monomial_content().primitive())
        polys = others + produced
    if not polys:
        raise EmptyEliminationError("the resultant chain kept no polynomial")
    best = min(polys, key=lambda p: (p.total_degree(), len(p)))
    return best.restrict_variables(("x", variable_name((0, 0)))).primitive()


def f_major(exponents):
    """Order key on (x, F) exponent pairs: the degree in F, then in x."""
    return exponents[1], exponents[0]


def canonical_equation(poly):
    """An equation over (x, F) made integer-primitive, with a positive
    leading coefficient under the f_major order."""
    p = poly.primitive()
    if p.terms and p.terms[max(p.terms, key=f_major)] < 0:
        p = -p
    return p


def compress_exponents(poly, r):
    """Substitute x^r -> x and rename G0_0 to F, canonically.

    Every x exponent must be divisible by r; a violation raises
    NonDivisibleError naming the offending monomial.
    """
    compressed = poly.substitute_power("x", r) if r > 1 else poly
    pairs = compressed.restrict_variables(("x", variable_name((0, 0))))
    return canonical_equation(MultivariatePolynomial(("x", "F"), pairs.terms))


def verify_annihilation(poly, f):
    """True iff poly(x, f(x)) vanishes identically modulo x^len(f).

    Requires the cutoff to reach ANNIHILATION_MARGIN * (deg_x + deg_F).
    """
    need = ANNIHILATION_MARGIN * (poly.degree("x") + poly.degree("F"))
    if len(f) < need:
        raise InsufficientSeriesError(
            f"series cutoff {len(f)} below required margin {need}"
        )
    return not any(evaluate_on_series(poly, {"F": f}))


def match_equation(ours, reference):
    """The verdict of comparing canonical forms: "equal", "proper-multiple"
    (a polynomial multiple of the reference, which also passes) or
    "mismatch"."""
    a = canonical_equation(ours)
    b = canonical_equation(reference)
    if a == b:
        return "equal"
    try:
        q = exact_divide(a, b)
    except NonDivisibleError:
        return "mismatch"
    return "proper-multiple" if q else "mismatch"
