"""The packed subresultant PRS against the oracles, on packing edge cases.

``resultant`` must equal the Bareiss determinant of the Sylvester matrix
exactly, sign included. The cases cover the field layout of the packed
views: a variable in neither operand, one in only one, degree drops above 1
(an abnormal PRS), a planted common factor, and field widths at the edge of
the proven bound.
"""

import pytest

from avoidwords import polynomials
from avoidwords.polynomials import MultivariatePolynomial as MP, resultant
from division_oracle import pseudo_division
from resultant_oracle import sylvester_resultant

VARS = ("x", "y", "z", "w")
X, Y, Z, W = (MP.variable(VARS, v) for v in VARS)


def proven_bound(f, g, name):
    """max over the other variables v of (n+1)*D_v and a_v + (m-n+1)*b_v."""
    m, n = f.degree(name), g.degree(name)
    top = 0
    for v in VARS:
        a, b = max(f.degree(v), 0), max(g.degree(v), 0)
        if v != name and (a or b):
            top = max(top, (n + 1) * (n * a + m * b), a + (m - n + 1) * b)
    return top


def assert_matches_oracles(p, q, name="x"):
    assert resultant(p, q, name) == sylvester_resultant(p, q, name)
    assert resultant(q, p, name) == sylvester_resultant(q, p, name)


# w occurs in neither operand
NEITHER = (Y * X**3 + Z**2 * X - 3 * Y * Z + 1, (Y + Z) * X**2 - 2 * X + Y**2)
# z occurs in p only
ONE_SIDE = (Z * X**3 + Y * X**2 - Z**2 + 2, Y**2 * X**2 + 3 * X - Y)
# g = x^4 + y*x + z and f = (x^3 + w)*g + y*x + 1, so the first remainder
# drops from degree 4 to 1; the planted (x + y*z) keeps a drop of more than
# one degree and makes the resultant zero
G4 = X**4 + Y * X + Z
F7 = (X**3 + W) * G4 + Y * X + 1
ABNORMAL = [(F7, G4), ((X + Y * Z) * F7, (X + Y * Z) * G4)]


@pytest.mark.parametrize("p,q", [NEITHER, ONE_SIDE], ids=["in-neither", "in-one"])
def test_packed_prs_matches_oracles_on_the_field_layout(p, q):
    _, _, (fields, _), _ = polynomials._views(p, q, "x")
    assert fields == 2  # y and z; w gets no field
    assert_matches_oracles(p, q)


@pytest.mark.parametrize("f,g", ABNORMAL, ids=["coprime", "planted-factor"])
def test_abnormal_prs_matches_oracles(f, g):
    q, r = pseudo_division(f, g, "x")
    assert r.degree("x") <= g.degree("x") - 2  # the sequence skips a degree
    lc = g.coefficient_of("x", g.degree("x"))
    assert lc ** (f.degree("x") - g.degree("x") + 1) * f == q * g + r
    assert_matches_oracles(f, g)


def test_planted_common_factor_gives_a_zero_resultant():
    common = Y * X**2 - Z * W + 1
    p, q = common * (X**2 + Z), common * (W * X - Y)
    assert resultant(p, q, "x").is_zero and sylvester_resultant(p, q, "x").is_zero


def test_fields_hold_a_bound_at_a_power_of_two():
    # deg_x 3 and 1; in y, D = 1*1 + 3*5 = 16 and (n+1)*D = 32 = 2^5
    f = Y * X**3 + Z * X**2 + 2 * X - W
    g = Y**5 * X + Y * Z - 1
    assert proven_bound(f, g, "x") == 32
    _, _, (fields, width), _ = polynomials._views(f, g, "x")
    assert (fields, width) == (3, 6)  # y, z, w; 6 bits hold 32, 5 would not
    assert_matches_oracles(f, g)


def test_fields_hold_a_bound_just_below_a_power_of_two():
    # the bound is 63 = 2^6 - 1 and the sequence builds a y exponent of 33,
    # so five bits per field would carry
    f = 2 * X**5 * Y**3 * Z + X**4 * Y**2 * Z**3 + Y**2 * Z**3
    g = 3 * X * Y**3 * Z**3 + 2 * Y**3 * Z**3 - X**2 * Y**3 * Z + X * Y - 3 * Y**3
    assert proven_bound(f, g, "x") == 63
    assert_matches_oracles(f, g)
