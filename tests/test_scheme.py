import re
import time
from fractions import Fraction

import pytest

from avoidwords import scheme as scheme_module
from avoidwords.polynomials import MultivariatePolynomial as MP
from avoidwords.scheme import (
    build_scheme,
    canon_pair,
    scheme_pairs,
    solve_series,
    solve_series_mod,
    variable_name,
    word_counts,
)
from avoidwords.series import evaluate_on_series
from avoidwords.words import (
    P123,
    P231,
    count_avoiders_bruteforce,
    count_avoiders_recurrence,
    recurrence_counts,
)
from scheme_oracle import solve_series_full, solve_series_strided


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
    for solve in (lambda: solve_series(0, 5), lambda: word_counts(0, 3),
                  lambda: solve_series_mod(0, 5, 7)):
        with pytest.raises(ValueError):
            solve()


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


# n up to 20 at r = 5, 6; at r = 7, 8 the largest n whose recurrence pass
# takes about a second
RECURRENCE_NMAX = {5: 20, 6: 20, 7: 28, 8: 26}


@pytest.mark.parametrize("r", sorted(RECURRENCE_NMAX))
def test_counts_against_multiset_recurrence(r):
    nmax = RECURRENCE_NMAX[r]
    assert word_counts(r, nmax) == recurrence_counts([(r,) * n for n in range(nmax + 1)])


def test_pretty_printer_mentions_all_enumerators():
    text = build_scheme(2).pretty()
    for frag in ("g^(0,0)", "g^(0,1)", "g^(1,1)"):
        assert frag in text


def test_pretty_printer_names_survive_two_digit_indices():
    # from r = 11 on, G0_1 is a prefix of G0_10; each name must print whole
    scheme = build_scheme(11)
    lines = scheme.pretty().splitlines()
    assert len(lines) == 66
    for line, ((i, j), poly) in zip(lines, sorted(scheme.equations.items())):
        head, rhs = line.split(" = ")
        assert head == f"g^({i},{j})"
        shown = {f"G{a}_{b}" for a, b in re.findall(r"g\^\((\d+),(\d+)\)(?=[*^ ]|$)", rhs)}
        assert not re.search(r"\)\d", rhs)
        rhs_poly = poly + MP.variable(scheme.variables, f"G{i}_{j}")
        assert shown == {v for v in scheme.variables if v != "x" and rhs_poly.degree(v) > 0}


def test_count_sequence_starts_one_one_and_stays_positive():
    for r in range(1, 6):
        seq = word_counts(r, 8)
        assert seq[0] == 1 and seq[1] == 1
        assert all(t > 0 for t in seq)


def _largest_modulus(r, cutoff):
    """The largest prime the sweep's no-overflow rule allows at this cutoff."""
    return scheme_module._sweep_primes(r, cutoff, 1)[0]


@pytest.mark.parametrize("r", range(1, 9))
def test_residues_equal_exact_terms_mod_p(r):
    scheme = build_scheme(r)
    for cutoff in (1, r + 1, 2 * r + 3, 4 * r + 2):
        exact = solve_series_full(scheme, cutoff)
        for p in (2, 3, 7919, _largest_modulus(r, cutoff)):
            want = {pair: [c % p for c in series] for pair, series in exact.items()}
            assert solve_series_mod(r, cutoff, p) == want, (cutoff, p)


@pytest.mark.parametrize("r", range(1, 9))
def test_residues_equal_strided_terms_mod_p_at_length(r):
    cutoff = 30 * r + 1
    exact = solve_series_strided(r, cutoff)
    p = _largest_modulus(r, cutoff)
    assert solve_series_mod(r, cutoff, p) == {
        pair: [c % p for c in series] for pair, series in exact.items()}


def test_solve_series_mod_refuses_an_overflowing_modulus():
    with pytest.raises(ValueError):
        solve_series_mod(2, 11, 2**31 - 1)  # 6 * (2^31 - 2)^2 >= 2^63
    with pytest.raises(ValueError):
        solve_series_mod(2, 11, 1)
    assert solve_series_mod(2, 1, 2**31 - 1) == {(0, 0): [1], (0, 1): [0], (1, 1): [0]}


@pytest.mark.parametrize("r", range(1, 10))
def test_certificate_is_an_exact_supersolution(r):
    x0, y = scheme_module._certificate(r)
    assert isinstance(x0, Fraction) and all(isinstance(v, Fraction) for v in y.values())
    assert 0 < x0 < 1
    assert scheme_module._is_supersolution(r, x0, y)
    # 2*x0 lies past the singularity ((r+1)*2^r)^(-1/r), where no finite y passes
    assert not scheme_module._is_supersolution(r, 2 * x0, y)


def test_supersolution_check_is_exact():
    # r=1: Phi(x, y) = 1 + x*y^2, and 1 + y^2/4 = y has the double root y = 2
    assert scheme_module._is_supersolution(1, Fraction(1, 4), {(0, 0): Fraction(2)})
    assert not scheme_module._is_supersolution(
        1, Fraction(1, 4) + Fraction(1, 10**30), {(0, 0): Fraction(2)})


# the count benchmark's scheme jobs run at r*nmax up to 760 for r = 3..6
@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_certified_bound_covers_every_pair_at_count_sizes(r):
    cutoff = r * (760 // r) + 1
    exact = solve_series_strided(r, cutoff)
    for pair, series in exact.items():
        top = scheme_module._coefficient_bound(r, cutoff - 1, [pair])
        assert max(series).bit_length() <= top.bit_length(), pair
        for m in range(0, cutoff, 7):
            assert series[m] <= scheme_module._coefficient_bound(r, m, [pair]), (pair, m)
    assert solve_series(r, cutoff) == exact
    assert word_counts(r, 760 // r) == exact[(0, 0)][::r]


@pytest.mark.parametrize("r,cutoff", [(1, 2), (2, 11), (3, 751), (6, 751), (8, 1921),
                                      (6, 12001), (9, 9001)])
def test_sweep_primes_keep_every_dot_product_in_int64(r, cutoff):
    longest = -(-cutoff // r)
    bound = scheme_module._coefficient_bound(r, cutoff - 1, scheme_pairs(r))
    primes = scheme_module._sweep_primes(r, cutoff, bound)
    assert all(longest * (p - 1) ** 2 < 2**63 for p in primes)
    assert len(set(primes)) == len(primes)
    modulus = 1
    for p in primes:
        modulus *= p
    assert modulus > bound


def test_batches_of_primes_combine_to_the_same_terms(monkeypatch):
    want = solve_series_strided(4, 201)
    monkeypatch.setattr(scheme_module, "BATCH_ENTRIES", 1)  # one prime per batch
    assert solve_series(4, 201) == want
    assert word_counts(4, 50) == want[(0, 0)][::4]


def test_word_counts_r8_n240_within_budget():
    start = time.perf_counter()
    terms = word_counts(8, 240)
    assert time.perf_counter() - start < 4.0
    assert terms[:4] == [1, 1, 12870, 15168751]
