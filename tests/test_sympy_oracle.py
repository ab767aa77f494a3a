"""gcd and square-free part against sympy, an independent implementation.

Both sides are compared up to sign and integer content. The gcd inputs share
a planted factor w, so nontrivial gcds reach the subresultant sequence and
not only the random-evaluation screen.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from avoidwords.polynomials import MultivariatePolynomial as MP, polynomial_gcd, squarefree_part

sympy = pytest.importorskip("sympy")

VARS = ("x", "y", "z")
SYMS = sympy.symbols(VARS)


@st.composite
def polys(draw, max_terms=3):
    terms = draw(
        st.dictionaries(
            st.tuples(*(st.integers(0, 2) for _ in VARS)),
            st.integers(-3, 3).filter(bool),
            min_size=1,
            max_size=max_terms,
        )
    )
    return MP(VARS, terms)


def to_sympy(p):
    expr = sum(c * sympy.Mul(*(s**k for s, k in zip(SYMS, e))) for e, c in p.terms.items())
    return sympy.Poly(expr, *SYMS)


def same_up_to_unit_and_content(a, b):
    a = a.primitive()[1]
    b = b.primitive()[1]
    return a == b or a == -b


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_gcd_matches_sympy(w, s, t):
    a, b = w * s, w * t
    got = polynomial_gcd(a, b)
    assert same_up_to_unit_and_content(to_sympy(got), sympy.gcd(to_sympy(a), to_sympy(b)))


@settings(max_examples=60, deadline=None)
@given(polys(), polys(max_terms=2), st.sampled_from(VARS))
def test_squarefree_part_matches_sympy(s, w, name):
    p = s * w * w
    assume(p.degree(name) > 0)
    # p / gcd(p, dp/dname) keeps each irreducible factor that involves
    # `name` once and drops every factor free of it
    var = SYMS[VARS.index(name)]
    _, factors = sympy.factor_list(to_sympy(p).as_expr(), *SYMS)
    want = sympy.Mul(*(f for f, _ in factors if sympy.degree(f, var) > 0))
    got = squarefree_part(p, name)
    assert same_up_to_unit_and_content(to_sympy(got), sympy.Poly(want, *SYMS))
