import pytest
from hypothesis import given, settings, strategies as st

from avoidwords.polynomials import MultivariatePolynomial as MP
from avoidwords.series import evaluate_on_series, series_mul


def test_geometric_times_one_minus_x():
    geo = [1] * 10
    one_minus_x = [1, -1] + [0] * 8
    prod = series_mul(geo, one_minus_x)
    assert prod == [1] + [0] * 9


def test_multiplicative_identity():
    a = [3, 1, 4, 1, 5]
    assert series_mul(a, [1, 0, 0, 0, 0]) == a


def test_catalan_square_coefficient():
    # [x^2] C(x)^2 where C = 1 + x + 2x^2 + ...: by hand (1+x+2x^2)^2 -> 5
    c = [1, 1, 2]
    assert series_mul(c, c)[2] == 5


def test_cutoff_is_minimum_of_operands():
    a = [1] * 10
    b = [1] * 6
    assert len(series_mul(a, b)) == 6
    assert len(series_mul(b, a)) == 6


small_poly_coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=5)


@settings(max_examples=40)
@given(small_poly_coeffs, small_poly_coeffs)
def test_series_mul_agrees_with_polynomial_mul(a_coeffs, b_coeffs):
    cutoff = 12  # beyond any product degree here, so truncation is inert
    variables = ("x",)
    pa = MP(variables, {(i,): c for i, c in enumerate(a_coeffs)})
    pb = MP(variables, {(i,): c for i, c in enumerate(b_coeffs)})
    prod = pa * pb
    sa = a_coeffs + [0] * (cutoff - len(a_coeffs))
    sb = b_coeffs + [0] * (cutoff - len(b_coeffs))
    got = series_mul(sa, sb)
    want = [prod.terms.get((i,), 0) for i in range(cutoff)]
    assert got == want


def test_polynomial_evaluation_on_series():
    variables = ("x", "G")
    p = MP(variables, {(1, 2): 1, (0, 1): -1, (0, 0): 1})  # x*G^2 - G + 1
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    res = evaluate_on_series(p, {"G": catalan})
    assert not any(res)


oracle_variables = ("x", "F", "G")
oracle_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    oracle_terms,
    st.lists(st.integers(-3, 3), min_size=9, max_size=9),
    st.lists(st.integers(-3, 3), min_size=9, max_size=9),
    st.integers(1, 9),
)
def test_evaluate_on_series_agrees_with_polynomial_substitution(terms, f, g, cutoff):
    # substitute the truncated series as polynomials in x, expand, and read
    # off the coefficients below the cutoff: x shifts, powers and mixed
    # products of F and G all go through polynomial arithmetic
    poly = MP(oracle_variables, terms)
    f, g = f[:cutoff], g[:cutoff]
    x = MP.variable(oracle_variables, "x")
    fx = sum((c * x**i for i, c in enumerate(f)), MP.zero(oracle_variables))
    gx = sum((c * x**i for i, c in enumerate(g)), MP.zero(oracle_variables))
    expanded = MP.zero(oracle_variables)
    for (a, b, e), c in poly.terms.items():
        expanded = expanded + c * x**a * fx**b * gx**e
    want = [expanded.terms.get((i, 0, 0), 0) for i in range(cutoff)]
    assert evaluate_on_series(poly, {"F": f, "G": g}) == want


def test_evaluate_on_series_rejects_unequal_cutoffs():
    poly = MP(oracle_variables, {(0, 1, 1): 1})
    with pytest.raises(ValueError):
        evaluate_on_series(poly, {"F": [1, 1, 2], "G": [1, 1]})
