"""Packed-monomial multiplication and division against tuple-loop oracles.

The oracles are the schoolbook loops on exponent tuples: no packing, and
division stops only when a leading term fails to divide over Z.
"""

import pytest
from hypothesis import given, settings, strategies as st

from avoidwords.polynomials import (
    MultivariatePolynomial as MP,
    NonDivisibleError,
    exact_divide,
    pseudo_rem,
)
from division_oracle import pseudo_division

NAMES = ("x", "y", "z", "w")
# exponents around powers of two, so sums land on both sides of a field width
EDGE_EXPONENTS = (0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32)


def tuple_mul(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return MP(p.variables, out)


def tuple_exact_divide(num, den):
    lead_d = max(den.terms)
    cd = den.terms[lead_d]
    rem = dict(num.terms)
    q = {}
    while rem:
        lead_r = max(rem)
        if any(a < b for a, b in zip(lead_r, lead_d)):
            raise NonDivisibleError("leading term not divisible")
        e = tuple(a - b for a, b in zip(lead_r, lead_d))
        c, r = divmod(rem[lead_r], cd)
        if r:
            raise NonDivisibleError("leading coefficient not divisible")
        q[e] = c
        for ed, cdd in den.terms.items():
            ee = tuple(a + b for a, b in zip(e, ed))
            s = rem.get(ee, 0) - c * cdd
            if s:
                rem[ee] = s
            else:
                rem.pop(ee, None)
    return MP(num.variables, q)


@st.composite
def poly_triples(draw, exponents=st.integers(0, 3), max_size=5):
    """Three polynomials over one tuple of 0..4 variables."""
    variables = NAMES[: draw(st.integers(0, 4))]
    terms = st.dictionaries(
        st.tuples(*[exponents] * len(variables)),
        st.integers(-9, 9),
        max_size=max_size,
    )
    return [MP(variables, draw(terms)) for _ in range(3)]


edge_polys = poly_triples(st.sampled_from(EDGE_EXPONENTS), max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.one_of(poly_triples(), edge_polys))
def test_mul_matches_tuple_loop(polys):
    p, q, _ = polys
    assert p * q == tuple_mul(p, q)


@pytest.mark.parametrize("c", [0, 1, -3])
def test_mul_by_constant_polynomial(c):
    p = MP(("x", "y"), {(15, 1): 2, (0, 16): -7, (0, 0): 5})
    k = MP.constant(p.variables, c)
    assert p * k == k * p == tuple_mul(p, k) == p * c


def test_mul_without_variables():
    assert MP((), {(): 3}) * MP((), {(): -2}) == MP.constant((), -6)


@settings(max_examples=150, deadline=None)
@given(st.one_of(poly_triples(), edge_polys))
def test_exact_divide_recovers_factor(polys):
    p, q, _ = polys
    if q.is_zero:
        return
    assert exact_divide(p * q, q) == p == tuple_exact_divide(tuple_mul(p, q), q)


@settings(max_examples=150, deadline=None)
@given(st.one_of(poly_triples(), edge_polys))
def test_exact_divide_agrees_on_perturbed_products(polys):
    p, q, s = polys
    if q.is_zero:
        return
    num = p * q + s
    try:
        want = tuple_exact_divide(num, q)
    except NonDivisibleError:
        with pytest.raises(NonDivisibleError):
            exact_divide(num, q)
    else:
        assert exact_divide(num, q) == want


@pytest.mark.parametrize(
    "num,den",
    [
        # fields of 4 bits; long division would leave y**16 + y
        ({(1, 15): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1}),
        # fields of 2 bits; long division would leave x*y**5 + x*y**2
        ({(3, 0): 1, (3, 3): 1}, {(1, 1): 1, (2, 0): 1}),
    ],
)
def test_non_exact_division_stops_before_a_field_overflows(num, den):
    num, den = MP(("x", "y"), num), MP(("x", "y"), den)
    with pytest.raises(NonDivisibleError):
        tuple_exact_divide(num, den)
    with pytest.raises(NonDivisibleError):
        exact_divide(num, den)


def test_divisor_of_higher_degree_does_not_divide():
    X, Y = MP.variable(("x", "y"), "x"), MP.variable(("x", "y"), "y")
    with pytest.raises(NonDivisibleError):
        exact_divide(X**3, X * Y)
    assert exact_divide(MP.zero(("x", "y")), X * Y).is_zero


@settings(max_examples=100, deadline=None)
@given(st.one_of(poly_triples(), edge_polys), st.sampled_from(NAMES[:2]))
def test_pseudo_division_identity_random(polys, name):
    f, g, _ = polys
    if name not in f.variables or g.is_zero:
        return
    q, r = pseudo_division(f, g, name)
    n = g.degree(name)
    d = f.degree(name) - n + 1
    if d > 0:
        lc = g.coefficient_of(name, n)
        assert lc**d * f == q * g + r
        assert r.degree(name) < n
    else:
        assert q.is_zero and r == f
    assert pseudo_rem(f, g, name) == r
