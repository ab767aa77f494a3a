from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from avoidwords.polynomials import MultivariatePolynomial as MP
from avoidwords.series import (
    TruncatedSeries,
    evaluate_polynomial_on_series,
)


def test_geometric_times_one_minus_x():
    geo = TruncatedSeries([1] * 10)
    one_minus_x = TruncatedSeries([1, -1], 10)
    prod = geo * one_minus_x
    assert prod.coeffs == [1] + [0] * 9


def test_multiplicative_identity():
    a = TruncatedSeries([3, 1, 4, 1, 5])
    assert a * TruncatedSeries.one(5) == a


def test_catalan_square_coefficient():
    # [x^2] C(x)^2 where C = 1 + x + 2x^2 + ...: by hand (1+x+2x^2)^2 -> 5
    c = TruncatedSeries([1, 1, 2], 3)
    assert (c * c)[2] == 5


def test_cutoff_is_minimum_of_operands():
    a = TruncatedSeries([1] * 10)
    b = TruncatedSeries([1] * 6)
    assert (a * b).cutoff == 6
    assert (a + b).cutoff == 6


def test_indexing_beyond_cutoff_rejected():
    a = TruncatedSeries([1, 2], 2)
    with pytest.raises(IndexError):
        a[2]


def test_shift_drops_tail():
    a = TruncatedSeries([1, 2, 3], 3)
    assert a.shift(1).coeffs == [0, 1, 2]
    assert a.shift(5).coeffs == [0, 0, 0]


small_poly_coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=5)


@settings(max_examples=40)
@given(small_poly_coeffs, small_poly_coeffs)
def test_series_mul_agrees_with_polynomial_mul(a_coeffs, b_coeffs):
    cutoff = 12  # beyond any product degree here, so truncation is inert
    variables = ("x",)
    pa = MP(variables, {(i,): c for i, c in enumerate(a_coeffs)})
    pb = MP(variables, {(i,): c for i, c in enumerate(b_coeffs)})
    prod = pa * pb
    sa = TruncatedSeries(a_coeffs, cutoff)
    sb = TruncatedSeries(b_coeffs, cutoff)
    got = sa * sb
    want = [prod.terms.get((i,), 0) for i in range(cutoff)]
    assert got.coeffs == want


def test_polynomial_evaluation_on_series():
    variables = ("x", "G")
    p = MP(variables, {(1, 2): 1, (0, 1): -1, (0, 0): 1})  # x*G^2 - G + 1
    catalan = TruncatedSeries([1, 1, 2, 5, 14, 42, 132, 429], 8)
    x = TruncatedSeries.x(8)
    res = evaluate_polynomial_on_series(p, {"x": x, "G": catalan})
    assert res.is_zero()


def test_json_roundtrip():
    s = TruncatedSeries([1, Fraction(1, 2), 3], 5)
    assert TruncatedSeries.from_json(s.to_json()) == s
