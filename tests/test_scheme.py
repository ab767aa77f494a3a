import pytest

from avoidwords import scheme as scheme_module
from avoidwords.polynomials import MultivariatePolynomial as MP
from avoidwords.scheme import (
    build_scheme,
    canon_pair,
    scheme_pairs,
    solve_series,
    variable_name,
    word_counts,
)
from avoidwords.series import evaluate_on_series
from avoidwords.words import P123, P231, count_avoiders_bruteforce, count_avoiders_recurrence
from scheme_oracle import solve_series_full


def test_canon_pair_sorts():
    assert canon_pair(2, 1) == (1, 2)
    assert canon_pair(0, 0) == (0, 0)


def test_r1_single_equation():
    s = build_scheme(1)
    assert set(s.equations) == {(0, 0)}
    v = s.variables
    g = MP.variable(v, "G0_0")
    x = MP.variable(v, "x")
    assert s.equations[(0, 0)] == 1 + x * g * g - g


def test_r2_matches_warmup_equations():
    s = build_scheme(2)
    v = s.variables
    x = MP.variable(v, "x")
    g00 = MP.variable(v, "G0_0")
    g01 = MP.variable(v, "G0_1")
    g11 = MP.variable(v, "G1_1")
    expected = {
        (0, 0): 1 + x * g00 * g01 + x * g01 * g11 - g00,
        (0, 1): x * g00**2 + x * g01**2 - g01,
        (1, 1): x * g00 * g01 + x * g01 * (1 + g11) - g11,
    }
    for pair, want in expected.items():
        assert s.equations[pair] == want, pair


def test_r3_equation_count_and_variables():
    s = build_scheme(3)
    assert len(s.equations) == 6
    assert set(s.variables) == {"x", "G0_0", "G0_1", "G0_2", "G1_1", "G1_2", "G2_2"}


def test_invalid_r_rejected():
    with pytest.raises(ValueError):
        build_scheme(0)


def test_cutoff_one_gives_delta_only():
    for r in (1, 2, 3):
        sol = solve_series(r, 1)
        for pair, series in sol.items():
            assert series[0] == (1 if pair == (0, 0) else 0)


def test_catalan_series():
    sol = solve_series(1, 7)
    assert sol[(0, 0)] == [1, 1, 2, 5, 14, 42, 132]


def test_r2_g00_series():
    sol = solve_series(2, 7)
    g00 = sol[(0, 0)]
    assert [g00[k] for k in (0, 2, 4, 6)] == [1, 1, 6, 43]
    assert all(g00[k] == 0 for k in (1, 3, 5))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_grading(r):
    sol = solve_series(r, 60)
    for (i, j), series in sol.items():
        for m, c in enumerate(series):
            if m % r != (i + j) % r:
                assert c == 0, (r, (i, j), m)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_solver_matches_full_convolution_at_small_cutoffs(r):
    # cutoffs below r+1 leave some strided slices empty (k < ra)
    scheme = build_scheme(r)
    for cutoff in range(1, 3 * r + 3):
        sol = solve_series(r, cutoff)
        assert all(len(series) == cutoff for series in sol.values())
        assert sol == solve_series_full(scheme, cutoff), cutoff


@pytest.mark.parametrize("r,nmax", [(3, 100), (4, 75), (5, 60)])
def test_solver_matches_full_convolution_at_length(r, nmax):
    scheme = build_scheme(r)
    cutoff = r * nmax + 1
    assert solve_series(r, cutoff) == solve_series_full(scheme, cutoff)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_residuals_vanish(r):
    scheme = build_scheme(r)
    sol = solve_series(r, 25)
    assignment = {variable_name(pair): series for pair, series in sol.items()}
    for pair, poly in scheme.equations.items():
        assert not any(evaluate_on_series(poly, assignment)), pair


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_coefficients_nonnegative_integers(r):
    sol = solve_series(r, 30)
    for series in sol.values():
        for c in series:
            assert isinstance(c, int) and c >= 0


def test_word_counts_examples():
    assert word_counts(1, 5) == [1, 1, 2, 5, 14, 42]
    assert word_counts(2, 3) == [1, 1, 6, 43]
    assert word_counts(3, 2)[2] == 20  # only two distinct letters: all avoid


def test_word_counts_needs_no_polynomial_scheme(monkeypatch):
    def refuse(r):
        raise AssertionError("word_counts built the polynomial scheme")

    monkeypatch.setattr(scheme_module, "build_scheme", refuse)
    assert word_counts(2, 10) == [
        1, 1, 6, 43, 352, 3114, 29004, 280221, 2782476, 28221784, 291138856,
    ]


def test_counts_against_bruteforce_and_recurrence():
    for r, nmax in [(1, 5), (2, 3), (3, 2), (4, 2)]:
        seq = word_counts(r, nmax)
        for n in range(nmax + 1):
            vec = (r,) * n
            assert seq[n] == count_avoiders_bruteforce(vec, P231, cap=12), (r, n)
            assert seq[n] == count_avoiders_bruteforce(vec, P123, cap=12), (r, n)
            assert seq[n] == count_avoiders_recurrence(vec), (r, n)


@pytest.mark.parametrize("r", [5, 6])
def test_counts_against_multiset_recurrence(r):
    seq = word_counts(r, 20)
    assert seq == [count_avoiders_recurrence((r,) * n) for n in range(21)]


def test_pretty_printer_mentions_all_enumerators():
    text = build_scheme(2).pretty()
    for frag in ("g^(0,0)", "g^(0,1)", "g^(1,1)"):
        assert frag in text


def test_count_sequence_starts_one_one_and_stays_positive():
    for r in range(1, 6):
        seq = word_counts(r, 8)
        assert seq[0] == 1 and seq[1] == 1
        assert all(t > 0 for t in seq)
