"""Guess linear recurrences with polynomial coefficients, and verify them.

The searcher walks candidate (order, degree) pairs by increasing total, sets
up the homogeneous linear system satisfied by the unknown coefficient
polynomials, and keeps a kernel vector only when it also annihilates terms
that were held out of the fit. Algebraic equations are guessed the same way
from series coefficients. Both build their systems modulo primes and take
kernel candidates from ``linalg.integer_kernel``; a candidate is accepted only
after an exact check on every available term or coefficient.

A recurrence is never more than empirically verified: it is checked on all
supplied terms, not proved.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .elimination import canonical_equation
from .linalg import integer_kernel
from .polynomials import MultivariatePolynomial
from .series import evaluate_on_series, series_mul

# trailing terms or coefficients held out of every fit and checked first
HOLDOUT = 10


class InsufficientTermsError(ValueError):
    """Not enough sequence terms for the requested search bounds."""


class SingularRecurrenceError(ArithmeticError):
    """Leading coefficient vanished at some index during extension."""


class NonIntegralExtensionError(ArithmeticError):
    """Extension required a non-exact division: the recurrence is wrong."""


def _poly_eval(coeffs, n):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def _poly_trim(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class LinearRecurrence:
    """sum_k p_k(n) * w(n+k) = 0, with integer coefficient polynomials.

    coeffs[k] lists p_k ascending in powers of n. Canonical form: the family
    is content-free, p_L is nonzero, and its leading coefficient is positive.
    """

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs or all(c == 0 for c in self.coeffs[-1]):
            raise ValueError("leading coefficient polynomial must be nonzero")

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def from_kernel_vector(cls, vec, order, degree):
        """Canonicalize a primitive integer vector laid out as (k, j) -> vec[k*(degree+1)+j]."""
        polys = [
            _poly_trim(vec[k * (degree + 1): (k + 1) * (degree + 1)])
            for k in range(order + 1)
        ]
        while len(polys) > 1 and polys[-1] == (0,):
            polys.pop()
        if polys[-1][-1] < 0:
            polys = [tuple(-c for c in p) for p in polys]
        return cls(tuple(polys))

    def residual(self, terms, n):
        return sum(_poly_eval(p, n) * terms[n + k] for k, p in enumerate(self.coeffs))

    def verify(self, terms):
        """Exact check of the recurrence at every applicable index."""
        L = self.order
        return all(self.residual(terms, n) == 0 for n in range(len(terms) - L))

    def extend(self, initial, nmax):
        """Terms w(0..nmax) from at least `order` initial ones, by exact division."""
        L = self.order
        if len(initial) < L:
            raise ValueError(f"need at least {L} initial terms")
        terms = list(initial[: nmax + 1])
        pL = self.coeffs[L]
        for n in range(len(terms) - L, nmax + 1 - L):
            lead = _poly_eval(pL, n)
            if lead == 0:
                raise SingularRecurrenceError(f"leading coefficient vanishes at n={n}")
            acc = 0
            for k in range(L):
                acc += _poly_eval(self.coeffs[k], n) * terms[n + k]
            q, rem = divmod(-acc, lead)
            if rem:
                raise NonIntegralExtensionError(f"non-integral term at n={n + L}")
            terms.append(q)
        return terms

    def __str__(self):
        def poly_str(p):
            parts = []
            for j, c in enumerate(p):
                if c == 0:
                    continue
                if j == 0:
                    parts.append(str(c))
                elif j == 1:
                    parts.append(f"{c}*n" if c != 1 else "n")
                else:
                    parts.append(f"{c}*n^{j}" if c != 1 else f"n^{j}")
            return " + ".join(parts) if parts else "0"

        terms = [f"({poly_str(p)})*w(n+{k})" if k else f"({poly_str(p)})*w(n)"
                 for k, p in enumerate(self.coeffs) if any(p)]
        return " + ".join(terms) + " = 0"

    def to_json(self):
        return {
            "order": self.order,
            "coefficients": [[str(c) for c in p] for p in self.coeffs],
        }

    @classmethod
    def from_json(cls, data):
        return cls(tuple(tuple(int(c) for c in p) for p in data["coefficients"]))


# ---------------- the search shared by both guessers ----------------

def _first_verified(max_i, max_j, candidates, coefficients, verify):
    """The first candidate that passes `verify`, or None.

    Boxes (i, j) with i <= max_i and j <= max_j are tried by increasing
    i + j (ties: smaller i); within a box, the list candidates(i, j) is
    tried by increasing total bit size of coefficients(candidate), earlier
    candidates first among equals.
    """
    def bits(c):
        return sum(abs(v).bit_length() for v in coefficients(c))

    for total in range(max_i + max_j + 1):
        for i in range(min(total, max_i) + 1):
            if total - i <= max_j:
                for c in sorted(candidates(i, total - i), key=bits):
                    if verify(c):
                        return c
    return None


# ---------------- the (order, degree) search ----------------

def guess_recurrence(terms, max_order, max_degree):
    """Smallest verified recurrence within the bounds, or None.

    Candidates are tried by increasing order+degree (ties: smaller order);
    a fit must also annihilate the HOLDOUT trailing terms it was not fitted
    on, then the whole list, before it is accepted. When a candidate system
    has a kernel of dimension above one, the basis vector with the smallest
    total coefficient bit size wins.
    """
    need = (max_order + 1) * (max_degree + 1) + max_order + HOLDOUT
    if len(terms) < need:
        raise InsufficientTermsError(
            f"{len(terms)} terms supplied; bounds require at least {need}"
        )
    return _first_verified(
        max_order, max_degree,
        lambda order, degree: _recurrence_candidates(terms, order, degree),
        lambda rec: chain.from_iterable(rec.coeffs),
        lambda rec: rec.verify(terms),
    )


def _recurrence_candidates(terms, order, degree):
    """Kernel recurrences of exactly this order and degree bound."""
    width = (order + 1) * (degree + 1)
    # rows >= width in both guessers: `need` leaves the outer box's width past holdout and shifts
    rows = min(width + 4, len(terms) - HOLDOUT - order)
    kernel = integer_kernel(lambda p: _recurrence_matrix(terms, order, degree, rows, p))
    recs = (LinearRecurrence.from_kernel_vector(vec, order, degree) for vec in kernel)
    # a lower-order recurrence would have been found earlier
    return [rec for rec in recs if rec.order == order]


def _recurrence_matrix(terms, order, degree, rows, p):
    """Row n holds n^j * w(n+k) mod p at column k*(degree+1)+j."""
    tmod = np.array([t % p for t in terms[: rows + order]], dtype=np.int64)
    shifted = np.stack([tmod[k: k + rows] for k in range(order + 1)], axis=1)
    powers = np.ones((rows, degree + 1), dtype=np.int64)
    n = np.arange(rows, dtype=np.int64)
    for j in range(1, degree + 1):
        powers[:, j] = powers[:, j - 1] * n % p
    return (shifted[:, :, None] * powers[:, None, :] % p).reshape(rows, -1)


# ---------------- direct algebraic-equation guessing ----------------

def guess_algebraic(series, max_deg_x, max_deg_f):
    """Smallest P over (x, F) with P(x, f) = 0 mod x^len(series), or None.

    Cross-check of the elimination route: works straight from the series'
    integer coefficients, holdout-checked on the final HOLDOUT coefficients
    and then checked exactly up to the cutoff.
    """
    need = (max_deg_x + 1) * (max_deg_f + 1) + HOLDOUT
    if len(series) < need:
        raise InsufficientTermsError(
            f"cutoff {len(series)} below required {need} for these bounds"
        )
    powers = [[1] + [0] * (len(series) - 1)]
    for _ in range(max_deg_f):
        powers.append(series_mul(powers[-1], series))
    residues = {}

    def powers_mod(p):
        if p not in residues:
            residues[p] = np.array([[c % p for c in s] for s in powers], dtype=np.int64)
        return residues[p]

    return _first_verified(
        max_deg_f, max_deg_x,
        lambda df, dx: _algebraic_candidates(series, powers_mod, dx, df),
        lambda poly: poly.terms.values(),
        lambda poly: not any(evaluate_on_series(poly, {"F": series})),
    )


def _algebraic_candidates(series, powers_mod, dx, df):
    """Canonical kernel equations within (dx, df)."""
    width = (dx + 1) * (df + 1)
    rows = min(width + 4, len(series) - HOLDOUT)
    kernel = integer_kernel(lambda p: _algebraic_matrix(powers_mod(p), dx, df, rows))
    return [
        canonical_equation(MultivariatePolynomial(
            ("x", "F"), {(i % (dx + 1), i // (dx + 1)): c for i, c in enumerate(vec)}
        ))
        for vec in kernel
    ]


def _algebraic_matrix(powers, dx, df, rows):
    """Row i holds [x^i] x^a F^b mod p at column b*(dx+1)+a."""
    out = np.zeros((rows, df + 1, dx + 1), dtype=np.int64)
    for a in range(dx + 1):
        out[a:, :, a] = powers[: df + 1, : rows - a].T
    return out.reshape(rows, -1)
