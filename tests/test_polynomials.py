import pytest
from hypothesis import example, given, settings, strategies as st

from avoidwords.polynomials import (
    MultivariatePolynomial as MP,
    NonDivisibleError,
    exact_divide,
    resultant,
)
from division_oracle import pseudo_division
from resultant_oracle import sylvester_resultant

VARS = ("x", "y")


def poly(terms):
    return MP(VARS, terms)


X = poly({(1, 0): 1})
Y = poly({(0, 1): 1})
ONE = poly({(0, 0): 1})


def rand_poly(draw_terms):
    return MP(VARS, dict(draw_terms))


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5),
    max_size=5,
).map(rand_poly)


def test_difference_of_squares():
    assert (X + ONE) * (X - ONE) == X * X - ONE


def test_multiplication_by_zero_annihilates():
    p = X * Y + 3 * X - 2
    assert (p * MP.zero(VARS)).is_zero


def test_square_then_scale_associates():
    g = Y
    assert (g * g) * X == g * (g * X)


@settings(max_examples=60)
@given(small_polys, small_polys, small_polys)
def test_ring_distributivity(p, q, s):
    assert (p + q) * s == p * s + q * s


@settings(max_examples=60)
@given(small_polys, small_polys)
def test_ring_commutativity(p, q):
    assert p * q == q * p
    assert p + q == q + p


def test_no_zero_coefficients_stored():
    p = poly({(1, 0): 1, (0, 0): 2}) - poly({(1, 0): 1})
    assert all(c != 0 for c in p.terms.values())
    assert (0, 0) in p.terms and (1, 0) not in p.terms


def test_exact_divide_roundtrip():
    a = X**2 + 2 * X * Y + 3
    b = Y**2 - X + 1
    assert exact_divide(a * b, b) == a


def test_exact_divide_failure():
    with pytest.raises(NonDivisibleError):
        exact_divide(X + ONE, Y)


def test_exact_divide_needs_an_integer_quotient():
    with pytest.raises(NonDivisibleError):
        exact_divide(2 * X, poly({(0, 0): 4}))


def test_pseudo_division_identity():
    f = X**3 * Y + X * Y**2 + 7
    g = X * Y + 2
    q, r = pseudo_division(f, g, "x")
    d = f.degree("x") - g.degree("x") + 1
    lc = g.coefficient_of("x", g.degree("x"))
    assert lc**d * f == q * g + r
    assert r.degree("x") < g.degree("x")


# -------- resultants --------

def res_vars(names):
    return tuple(names)


def test_resultant_linear_pair():
    variables = ("y", "a", "b")
    y = MP.variable(variables, "y")
    a = MP.variable(variables, "a")
    b = MP.variable(variables, "b")
    r = resultant(y - a, y - b, "y")
    assert r == a - b or r == b - a  # sign is convention; a-b expected
    assert r == a - b


def test_resultant_evaluation_case():
    variables = ("x", "y")
    x = MP.variable(variables, "x")
    y = MP.variable(variables, "y")
    one = MP.constant(variables, 1)
    r = resultant(y * y - x, y - one, "y")
    assert r == one - x


def test_resultant_degenerate_rejected():
    with pytest.raises(ValueError):
        resultant(X + ONE, X - ONE, "y")


@settings(max_examples=25, deadline=None)
@given(small_polys, small_polys)
def test_resultant_matches_sylvester_determinant(p, q):
    if p.degree("y") < 1 or q.degree("y") < 1:
        return
    assert resultant(p, q, "y") == sylvester_resultant(p, q, "y")


@settings(max_examples=20, deadline=None)
@given(small_polys, small_polys, small_polys)
@example(Y + ONE, Y + ONE, Y)  # y - w is the constant -1
def test_resultant_zero_iff_common_factor(w, s, t):
    # constructed common factor (y - w): resultant must vanish. When w is y
    # plus a constant, y - w has no y left and is no common factor in y
    if s.is_zero or t.is_zero:
        return
    base = Y - w if (Y - w).degree("y") >= 1 else Y
    p = base * s
    q = base * t
    if p.degree("y") < 1 or q.degree("y") < 1:
        return
    assert resultant(p, q, "y").is_zero


def test_resultant_nonzero_for_coprime():
    p = Y - X
    q = Y - X - ONE
    assert not resultant(p, q, "y").is_zero


@settings(max_examples=20, deadline=None)
@given(small_polys, small_polys)
def test_nonzero_resultant_implies_coprime(p, q):
    sympy = pytest.importorskip("sympy")
    if p.degree("y") < 1 or q.degree("y") < 1:
        return
    if not resultant(p, q, "y").is_zero:
        x, y = sympy.symbols(VARS)

        def to_sympy(a):
            return sum(c * x**i * y**j for (i, j), c in a.terms.items())

        assert sympy.degree(sympy.gcd(to_sympy(p), to_sympy(q)), y) <= 0


# -------- serialization --------

def test_json_roundtrip():
    p = poly({(2, 1): 3, (0, 0): -4})
    data = p.to_json()
    assert data["terms"][0]["coeff"] in ("-4", "3")
    assert MP.from_json(data) == p


def test_from_json_rejects_a_fraction_coefficient():
    data = {"variables": ["x", "y"], "terms": [{"exponents": [1, 0], "coeff": "3/2"}]}
    with pytest.raises(ValueError):
        MP.from_json(data)


def test_primitive_form():
    p = poly({(1, 0): -4, (0, 0): 4})
    prim = p.primitive()
    assert prim.terms == {(1, 0): 1, (0, 0): -1}
    assert prim.primitive() is prim


def test_strip_monomial_content():
    p = X**2 * Y + X**3
    out = p.strip_monomial_content()
    assert out == Y + X
