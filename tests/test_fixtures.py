"""The shipped data files against the factored displays they transcribe.

``data/*.json`` is the package's only source for the reference equations
and recurrences; the builders below, written from the factored forms, are
the independent oracle for those files.
"""

import json
from importlib import resources

import pytest

from avoidwords.elimination import canonical_equation, verify_annihilation
from avoidwords.fixtures import (
    load_cached_recurrence,
    reference_equation,
    reference_recurrence,
)
from avoidwords.guessing import LinearRecurrence
from avoidwords.polynomials import MultivariatePolynomial
from avoidwords.scheme import word_counts

XF = ("x", "F")
X = MultivariatePolynomial(XF, {(1, 0): 1})
F = MultivariatePolynomial(XF, {(0, 1): 1})
ONE = MultivariatePolynomial(XF, {(0, 0): 1})


def _c(n):
    return MultivariatePolynomial(XF, {(0, 0): n})


def _xpoly(*coeffs):
    """Polynomial in x alone; coefficients given highest degree first."""
    out = {}
    deg = len(coeffs) - 1
    for k, c in enumerate(coeffs):
        if c:
            out[(deg - k, 0)] = c
    return MultivariatePolynomial(XF, out)


def _build_equation(r):
    if r == 1:
        return canonical_equation(X * F**2 - F + ONE)
    if r == 2:
        return canonical_equation(ONE - (2 * X + ONE) * F**2 + X * (X + _c(4)) * F**4)
    if r == 3:
        return canonical_equation(
            (4 * X + ONE) ** 2
            + _xpoly(64, 48, -1) * F**2
            - 2 * X * _xpoly(128, 108, 27) * F**4
            - 16 * X**2 * _xpoly(32, 27) * F**6
            + X**2 * _xpoly(32, 27) ** 2 * F**8
        )
    assert r == 4
    return canonical_equation(
        X**3 * _xpoly(5, -256) ** 4 * _xpoly(4, 1) ** 4 * F**16
        + 4 * X**3 * _xpoly(85, 58) * _xpoly(5, -256) ** 3 * _xpoly(4, 1) ** 3 * F**14
        + 2 * X**2 * _xpoly(200, 11845, 8658, 6503, 256)
        * _xpoly(5, -256) ** 2 * _xpoly(4, 1) ** 2 * F**12
        + 4 * X**2 * _xpoly(5, -256) * _xpoly(4, 1)
        * _xpoly(25500, -977800, 15739435, 9911721, 2082455, 138496) * F**10
        + X * _xpoly(60000, 2772000, -471787725, 11351360680, 15348867846,
                     7091445146, 1387805641, 96468480, -458752) * F**8
        + 4 * X * _xpoly(127500, -6439500, 28100475, 187145995, 58215739,
                         -5955159, -2743199, -108800) * F**6
        + _xpoly(10000, 628250, -57924600, 1098116930, 827342646,
                 223797652, 24970546, 842512, 1024) * F**4
        + _xpoly(42500, -1521500, -6516800, -7480160, -276672,
                 461716, 49271, -1024) * F**2
        + X * _xpoly(1, 1) ** 2 * _xpoly(25, 65, 11) ** 2
    )


def _npoly(*factors):
    """Product of polynomials given as ascending coefficient tuples."""
    out = [1]
    for fac in factors:
        new = [0] * (len(out) + len(fac) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(fac):
                new[i + j] += a * b
        out = new
    return out


def _scale(poly, c):
    return [c * v for v in poly]


def _build_recurrence(r):
    # ascending coefficient tuples; p_k multiplies w(n+k)
    if r == 1:
        return LinearRecurrence(((-2, -4), (2, 1)))
    if r == 2:
        p0 = _scale(_npoly((12, 7), (1, 2), (1, 1)), -6)
        p1 = _scale([528, 1426, 1215, 329], -1)
        p2 = _scale(_npoly((5, 2), (5, 7), (2, 1)), 2)
        return LinearRecurrence((tuple(p0), tuple(p1), tuple(p2)))
    assert r == 3
    p0 = _scale(_npoly((1, 4), (3, 2), (3, 4), (25, 14), (1, 1)), -64)
    p1 = _scale([3975, 20322, 39676, 37144, 16736, 2912], -8)
    p2 = _scale(_npoly((5, 3), (1, 2), (7, 3), (11, 14), (2, 1)), 3)
    return LinearRecurrence((tuple(p0), tuple(p1), tuple(p2)))


def equation_fixture_json(r):
    """Canonical JSON payload for the r-th reference equation, as shipped."""
    return {
        "kind": "equation",
        "r": r,
        "status": "reference",
        "description": f"algebraic equation satisfied by the generating function, r={r}",
        "polynomial": _build_equation(r).to_json(),
    }


def recurrence_fixture_json(r):
    rec = _build_recurrence(r)
    return {
        "kind": "recurrence",
        "r": r,
        "status": "reference",
        "description": f"denominator-cleared linear recurrence for the counting sequence, r={r}",
        "recurrence": rec.to_json(),
    }


def _data(name):
    path = resources.files("avoidwords") / "data" / name
    return json.loads(path.read_text())


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_equation_files_match_builders(r):
    data = _data(f"equation_r{r}.json")
    assert data["status"] == "reference"
    assert MultivariatePolynomial.from_json(data["polynomial"]) == _build_equation(r)
    assert reference_equation(r) == _build_equation(r)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_recurrence_files_match_builders(r):
    data = _data(f"recurrence_r{r}.json")
    assert LinearRecurrence.from_json(data["recurrence"]).coeffs == _build_recurrence(r).coeffs
    assert reference_recurrence(r).coeffs == _build_recurrence(r).coeffs


@pytest.mark.parametrize("r", [4, 5])
def test_cached_recurrences_are_marked_and_verify(r):
    data = _data(f"recurrence_r{r}.json")
    assert data["status"] == "empirically-verified"
    rec = load_cached_recurrence(r)
    assert rec.verify(word_counts(r, 40))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_reference_equations_canonical_and_annihilating(r):
    p = reference_equation(r)
    assert p == canonical_equation(p)
    cutoff = max(50, 2 * (p.degree("x") + p.degree("F")) + 1)
    series = word_counts(r, cutoff)
    assert verify_annihilation(p, series)


def test_equation_degrees():
    assert (reference_equation(1).degree("x"), reference_equation(1).degree("F")) == (1, 2)
    assert (reference_equation(2).degree("x"), reference_equation(2).degree("F")) == (2, 4)
    assert (reference_equation(3).degree("x"), reference_equation(3).degree("F")) == (4, 8)
    assert (reference_equation(4).degree("x"), reference_equation(4).degree("F")) == (11, 16)


def test_fixture_payload_shapes():
    eq = equation_fixture_json(2)
    assert eq["kind"] == "equation" and "polynomial" in eq
    rec = recurrence_fixture_json(3)
    assert rec["kind"] == "recurrence" and "recurrence" in rec


@pytest.mark.parametrize(
    "kind,r,payload",
    [("equation", r, equation_fixture_json) for r in (1, 2, 3, 4)]
    + [("recurrence", r, recurrence_fixture_json) for r in (1, 2, 3)],
)
def test_payloads_reproduce_data_files(kind, r, payload):
    assert _data(f"{kind}_r{r}.json") == payload(r)


def test_missing_references_raise():
    with pytest.raises(KeyError):
        reference_equation(5)
    with pytest.raises(KeyError):
        reference_recurrence(4)  # shipped, but only empirically verified
    with pytest.raises(FileNotFoundError):
        load_cached_recurrence(6)
    assert load_cached_recurrence(2).coeffs == _build_recurrence(2).coeffs
