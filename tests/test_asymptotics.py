import json

import mpmath
from mpmath import mp, mpf

from avoidwords.asymptotics import (
    conjectured_growth,
    conjecture_check,
    fit_constant,
    fit_exponent,
    growth_ratio,
    reference_constant,
    report_text,
    sequence_for,
)
import pytest

from avoidwords.asymptotics import TooFewTermsError


def test_conjectured_growth_values():
    assert [conjectured_growth(r) for r in range(1, 6)] == [4, 12, 32, 80, 192]


def test_geometric_growth_is_exact():
    seq = [3**n for n in range(60)]
    assert abs(growth_ratio(seq) - 3) < 1e-12


def test_too_few_terms_rejected():
    with pytest.raises(TooFewTermsError):
        growth_ratio([1] * 20)


def test_synthetic_model_recovers_constant():
    # terms rounded from C * 4^n * n^(-3/2): recovery to 1e-6 demanded
    C = 0.37
    with mp.workprec(400):
        terms = [1] + [int(mpmath.nint(mpf(C) * mpf(4) ** n * mpf(n) ** mpf(-1.5)))
                       for n in range(1, 1200)]
    seq = terms
    got = fit_constant(seq, growth=4, exponent=-1.5)
    assert abs(got - C) / C < 1e-6


def test_catalan_asymptotics():
    seq, source = sequence_for(1, 2000)
    assert source == "recurrence-extension"
    g = growth_ratio(seq)
    assert abs(g - 4) / 4 < 1e-4
    c = fit_constant(seq, growth=4, exponent=-1.5)
    ref = reference_constant(1)
    assert abs(c - ref) / ref < 0.005
    e = fit_exponent(seq, growth=4)
    assert abs(e + 1.5) < 0.1


def test_full_report_r2():
    rep = conjecture_check(2, nmax=1000, tol=0.001)
    assert rep["passed"]
    assert abs(rep["fitted_constant"] - rep["reference_constant"]) / rep["reference_constant"] < 0.02
    assert abs(rep["fitted_first_correction"] - rep["reference_first_correction"]) < 0.05
    assert "conjectural" in rep["note"]


def test_first_correction_r1_within_5_percent():
    rep = conjecture_check(1, nmax=2000, tol=0.01)
    ref = -9 / 8
    assert abs(rep["fitted_first_correction"] - ref) / abs(ref) < 0.05


def test_deviation_improves_with_more_terms():
    # empirical regression guard, not a theorem
    for r in (1, 3):
        short = conjecture_check(r, nmax=500, tol=0.01)
        long = conjecture_check(r, nmax=2000, tol=0.01)
        assert long["growth_relative_deviation"] <= short["growth_relative_deviation"]


def test_report_serialization_and_table():
    rep = conjecture_check(1, nmax=500, tol=0.01)
    assert json.loads(json.dumps(rep)) == rep
    assert rep["r"] == 1 and rep["passed"] is True
    assert rep["n_range"] == [490, 500]
    text = report_text(rep)
    assert "growth" in text and "PASS" in text


def test_sequence_for_falls_back_to_scheme_without_recurrence():
    seq, source = sequence_for(6, 20)  # no cached recurrence at r=6
    assert source == "scheme-series"
    from avoidwords.scheme import word_counts

    assert seq == word_counts(6, 20)


def test_report_source_is_the_path_that_ran():
    # r=6 has no recurrence, however many terms; r=2 at nmax 55 is extended
    assert conjecture_check(6, nmax=80)["source"] == "scheme-series"
    assert conjecture_check(2, nmax=55)["source"] == "recurrence-extension"
    # within the re-verification span the scheme terms are returned as they are
    assert sequence_for(2, 20)[1] == "scheme-series"


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_sequence_for_returns_only_ints(r):
    # the CLI prints linear-rec terms from decimals; none may leak out of here
    seq, source = sequence_for(r, 2000)
    assert source == "recurrence-extension" and len(seq) == 2001
    assert all(type(t) is int for t in seq)
