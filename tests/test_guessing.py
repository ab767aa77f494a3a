from decimal import Decimal, localcontext
from itertools import chain

import numpy as np
import pytest

from avoidwords import linalg
from avoidwords.cli import EXACT
from avoidwords.elimination import match_equation
from avoidwords.fixtures import reference_equation, reference_recurrence
from avoidwords.guessing import (
    InsufficientTermsError,
    LinearRecurrence,
    NonIntegralExtensionError,
    SingularRecurrenceError,
    _algebraic_matrix,
    _recurrence_matrix,
    guess_algebraic,
    guess_recurrence,
)
from avoidwords.polynomials import MultivariatePolynomial as MP
from avoidwords.scheme import word_counts
from avoidwords.series import series_mul

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_catalan_recurrence_guessed():
    rec = guess_recurrence(word_counts(1, 40), 1, 1)
    assert rec.coeffs == ((-2, -4), (2, 1))  # (n+2) w(n+1) = 2(2n+1) w(n)


def test_constant_sequence():
    rec = guess_recurrence([1] * 30, 1, 1)
    assert rec.coeffs == ((-1,), (1,))


def test_r2_recurrence_matches_transcription():
    rec = guess_recurrence(word_counts(2, 60), 2, 3)
    assert rec.coeffs == reference_recurrence(2).coeffs


def test_r3_recurrence_matches_transcription():
    rec = guess_recurrence(word_counts(3, 60), 2, 5)
    assert rec.coeffs == reference_recurrence(3).coeffs


@pytest.mark.parametrize("small", [2, 3, 5, 7])
def test_unlucky_first_prime_is_replaced(monkeypatch, small):
    # a small prime divides minors of the fit matrix, so its rank is too low;
    # the later primes must take over rather than be skipped
    real = linalg.primes_below
    monkeypatch.setattr(linalg, "primes_below", lambda bound: chain((small,), real(bound)))
    rec = guess_recurrence(word_counts(2, 60), 2, 3)
    assert rec is not None and rec.coeffs == reference_recurrence(2).coeffs


def test_modular_matrices_match_exact_rows():
    # the numpy builders against the integer matrices they reduce, at the
    # largest prime, where int64 products come closest to overflow
    p = next(linalg.primes_below(2**31))
    terms = word_counts(5, 40)
    order, degree, rows = 4, 6, 30
    exact = [[n**j * terms[n + k] for k in range(order + 1) for j in range(degree + 1)]
             for n in range(rows)]
    built = _recurrence_matrix(terms, order, degree, rows, p)
    assert built.tolist() == [[c % p for c in row] for row in exact]

    series = word_counts(4, 40)
    powers = [[1] + [0] * (len(series) - 1)]
    for _ in range(5):
        powers.append(series_mul(powers[-1], series))
    dx, df = 3, 5
    exact = [[powers[b][i - a] if i >= a else 0
              for b in range(df + 1) for a in range(dx + 1)] for i in range(rows)]
    residues = np.array([[c % p for c in s] for s in powers], dtype=np.int64)
    built = _algebraic_matrix(residues, dx, df, rows)
    assert built.tolist() == [[c % p for c in row] for row in exact]


def test_recurrence_past_64_primes_is_found():
    # w(n+1) = (a*n + b) * w(n) with a 1,110-bit a: reconstructing a and b
    # takes more than 64 primes below 2^31, and no cap may stop the search
    a, b = 3**700 + 1, 5**480 + 7
    terms = [1]
    for n in range(30):
        terms.append((a * n + b) * terms[-1])
    rec = guess_recurrence(terms, 1, 1)
    assert rec is not None and rec.coeffs == ((-b, -a), (1,))


def test_search_is_minimal_in_order_plus_degree():
    # generous bounds must not change the result
    rec = guess_recurrence(word_counts(1, 60), 3, 4)
    assert rec.coeffs == ((-2, -4), (2, 1))


def test_insufficient_terms_rejected():
    with pytest.raises(InsufficientTermsError):
        guess_recurrence(word_counts(1, 10), 3, 3)


def test_guess_none_when_no_recurrence_fits():
    # 2^(n^2)-ish growth has no low-order P-recurrence
    terms = [2 ** (n * n) for n in range(40)]
    assert guess_recurrence(terms, 2, 2) is None


# -------- verification and extension --------

def test_verify_on_catalan():
    rec = reference_recurrence(1)
    assert rec.verify(CATALAN)


def test_verify_rejects_wrong_sequence():
    rec = reference_recurrence(1)
    assert not rec.verify(word_counts(2, 20))


def test_extension_reproduces_catalan():
    rec = reference_recurrence(1)
    ext = rec.extend(word_counts(1, 1), 10)
    assert ext == CATALAN


def test_extension_r2_reaches_43():
    rec = reference_recurrence(2)
    ext = rec.extend(word_counts(2, 2), 3)
    assert ext[3] == 43


def test_extension_shorter_than_order_returns_initial():
    rec = reference_recurrence(2)
    ext = rec.extend(word_counts(2, 5), 1)
    assert ext == word_counts(2, 1)


def test_singular_extension_detected():
    # leading coefficient n-1 vanishes at n=1
    rec = LinearRecurrence(((1,), (-1, 1)))
    with pytest.raises(SingularRecurrenceError):
        rec.extend([1, 1], 5)


def test_non_integral_extension_detected():
    # 3*w(n+1) = w(n) forces fractions immediately
    rec = LinearRecurrence(((-1,), (3,)))
    with pytest.raises(NonIntegralExtensionError):
        rec.extend([1], 3)


def test_non_integral_extension_detected_on_exact_decimals():
    # the CLI's decimal extension keeps divmod's remainder as its exactness gate
    rec = LinearRecurrence(((-1,), (3,)))
    with localcontext(EXACT), pytest.raises(NonIntegralExtensionError):
        rec.extend([Decimal(1)], 3)


def test_guess_idempotent_after_extension():
    rec = guess_recurrence(word_counts(2, 60), 2, 3)
    longer = rec.extend(word_counts(2, 5), 140)
    again = guess_recurrence(longer, 2, 3)
    assert again.coeffs == rec.coeffs


def test_normalization_stable_across_prefix_lengths():
    a = guess_recurrence(word_counts(2, 60), 2, 3)
    b = guess_recurrence(word_counts(2, 90), 2, 3)
    assert a.coeffs == b.coeffs


def test_guess_verifies_on_twice_the_terms():
    for r, (mo, md) in [(1, (1, 1)), (2, (2, 3)), (3, (2, 5))]:
        short = word_counts(r, 60)
        rec = guess_recurrence(short, mo, md)
        assert rec.verify(word_counts(r, 120)), r


def test_recurrence_json_roundtrip():
    rec = reference_recurrence(3)
    assert LinearRecurrence.from_json(rec.to_json()).coeffs == rec.coeffs


# -------- algebraic guessing --------

def test_catalan_equation_guessed():
    series = word_counts(1, 30)
    p = guess_algebraic(series, 1, 2)
    assert p == reference_equation(1)


def test_geometric_series_equation():
    geo = [1] * 25
    p = guess_algebraic(geo, 1, 1)
    assert p == MP(("x", "F"), {(1, 1): 1, (0, 1): -1, (0, 0): 1})  # canonical (1-x)F - 1


def test_r2_equation_recovered_from_series():
    series = word_counts(2, 40)
    p = guess_algebraic(series, 2, 4)
    assert match_equation(p, reference_equation(2)) in ("equal", "proper-multiple")


def test_algebraic_insufficient_terms():
    series = word_counts(1, 10)
    with pytest.raises(InsufficientTermsError):
        guess_algebraic(series, 4, 8)


def test_algebraic_returns_none_below_true_degrees():
    series = word_counts(1, 30)
    assert guess_algebraic(series, 1, 1) is None
