"""Guess linear recurrences and algebraic equations, and verify them.

Both guessers solve one Hermite-Pade problem: polynomials q_j(X) of degree
<= rho with sum_j q_j * f_j = 0 mod X^s. A recurrence of order rho and
degree d is one among 1, w, theta w, ..., theta^d w, where theta^j w is the
series of n^j * w(n); an equation P(x, F) = 0 of degrees (rho, d) is one
among F^0, ..., F^d. Per prime, one order basis gives the least rho within
the bound and the least d at it (`_least_relations`); `linalg.integer_rows`
lifts them to integers. The fit never reads the HOLDOUT trailing terms, and
a candidate is accepted only after an exact check on every term.
"""

from dataclasses import dataclass

import numpy as np

from .elimination import canonical_equation
from .linalg import echelon, integer_rows, order_basis
from .polynomials import MultivariatePolynomial
from .series import evaluate_on_series

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
        polys = [tuple(vec[k * (degree + 1): (k + 1) * (degree + 1)]) for k in range(order + 1)]
        polys = [p[: max([j + 1 for j, c in enumerate(p) if c], default=1)] for p in polys]
        while len(polys) > 1 and polys[-1] == (0,):
            polys.pop()
        if polys[-1][-1] < 0:
            polys = [tuple(-c for c in p) for p in polys]
        return cls(tuple(polys))

    def verify(self, terms):
        """Exact check of the recurrence at every applicable index."""
        return all(sum(_poly_eval(p, n) * terms[n + k] for k, p in enumerate(self.coeffs)) == 0
                   for n in range(len(terms) - self.order))

    def extend(self, initial, nmax):
        """Terms w(0..nmax) from at least `order` initial ones, by exact division."""
        L = self.order
        if len(initial) < L:
            raise ValueError(f"need at least {L} initial terms")
        terms = list(initial[: nmax + 1])
        for n in range(len(terms) - L, nmax + 1 - L):
            lead = _poly_eval(self.coeffs[L], n)
            if lead == 0:
                raise SingularRecurrenceError(f"leading coefficient vanishes at n={n}")
            acc = sum(_poly_eval(self.coeffs[k], n) * terms[n + k] for k in range(L))
            q, rem = divmod(-acc, lead)
            if rem:
                raise NonIntegralExtensionError(f"non-integral term at n={n + L}")
            terms.append(q)
        return terms

    def __str__(self):
        def monomial(c, j):
            power = "" if j == 0 else "n" if j == 1 else f"n^{j}"
            return str(c) if not power else power if c == 1 else f"{c}*{power}"

        return " + ".join(
            f"({' + '.join(monomial(c, j) for j, c in enumerate(p) if c)})*w(n{f'+{k}' if k else ''})"
            for k, p in enumerate(self.coeffs) if any(p)
        ) + " = 0"

    def to_json(self):
        return {"order": self.order, "coefficients": [[str(c) for c in p] for p in self.coeffs]}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(tuple(int(c) for c in p) for p in data["coefficients"]))


def terms_needed(order, columns):
    """Terms a search to degree `order` among `columns` series needs (a
    recurrence search has max_degree + 2 columns, an equation search
    max_deg_f + 1): (order + 1) * columns + 3 to fit, HOLDOUT to check. A
    recurrence box has one unknown fewer, its column 1 stopping a degree
    lower, so at least 4 more equations than unknowns; an equation box 3.
    """
    return (order + 1) * columns + 3 + HOLDOUT


def _fitted(values, order, columns):
    if len(values) < (need := terms_needed(order, columns)):
        raise InsufficientTermsError(f"{len(values)} terms supplied; bounds require at least {need}")
    return values[: len(values) - HOLDOUT]


def _prime_bound(length):
    """2^b for the largest b with 2^(2b) * 2^(bit length of `length`) <= 2^63:
    every prime p below it has length * (p-1)^2 < 2^63."""
    return 2 ** ((63 - length.bit_length()) // 2)


def _least_relations(columns, p, max_order, shift=None, skip=0):
    """(signature, rows) of the least relations mod p, or None if none has
    order <= `max_order`: the order rho is the least degree of the order
    basis, the degree d the least index in columns[skip:] of the last column
    used at order rho. Rows are in `echelon` form, X^i of column skip+j at
    j*(rho+1)+i; the signature is (rho, d, -dimension, pivots).

    A primitive integer relation reduces mod p to a nonzero one of no larger
    order or degree. So an order above the bound mod one prime proves none
    over Q; and mod p the least order and degree can only fall, the space at
    them only grow, and at equal dimension its pivots only fall (`echelon`).
    All but finitely many primes keep all four.
    """
    basis, degrees = order_basis(columns, p, shift)
    order = int(degrees.min())
    if order > max_order:
        return None
    rows = basis[degrees == order, skip:, : order + 1]
    pivots, rows = echelon(rows.reshape(len(rows), -1), p)
    width = (pivots[0] // (order + 1) + 1) * (order + 1)
    keep = sum(c < width for c in pivots)
    return (order, width // (order + 1) - 1, -keep, pivots[:keep]), rows[:keep, :width]


def _smallest_verified(candidates, coefficients, verify):
    """The first candidate to pass `verify` by total coefficient bit size, or None."""
    def bits(c):
        return sum(abs(v).bit_length() for v in coefficients(c))

    return next((c for c in sorted(candidates, key=bits) if verify(c)), None)


def guess_recurrence(terms, max_order, max_degree):
    """The verified recurrence of least order within the bounds, at the least
    degree for it; or None. A relation of order rho whose column 1 has
    degree below rho holds at n = 0 ... len(terms) - HOLDOUT - rho - 1. A
    space of dimension above one is tried in n-form `echelon` rows."""
    fitted = _fitted(terms, max_order, max_degree + 2)

    def solve(p):
        columns = _recurrence_columns(fitted, max_degree, p)
        found = _least_relations(columns, p, max_order, [1] + [0] * (max_degree + 1), skip=1)
        if found is None:
            return None
        (order, degree, *_), rows = found
        pivots, rows = echelon(_theta_to_n(rows, order, degree, p), p)
        return (order, degree, -len(pivots), pivots), rows

    signature, vectors = integer_rows(solve, _prime_bound(len(fitted)))
    return _smallest_verified(
        [LinearRecurrence.from_kernel_vector(v, *signature[:2]) for v in vectors],
        lambda rec: [c for p in rec.coeffs for c in p],
        lambda rec: rec.verify(terms),
    )


def _recurrence_columns(terms, degree, p):
    """1, w, theta w, ..., theta^degree w mod p: row 1+j holds n^j * w(n). Each
    entry is a product of two residues, so p < 2^31 keeps it in int64."""
    out = np.zeros((degree + 2, len(terms)), dtype=np.int64)
    out[0, 0] = 1
    out[1] = [t % p for t in terms]
    n = np.arange(len(terms), dtype=np.int64) % p
    for j in range(2, degree + 2):
        out[j] = out[j - 1] * n % p
    return out


def _theta_to_n(rows, order, degree, p):
    """Rows of `_least_relations` over theta^0 w ... theta^degree w as
    recurrence vectors mod p, (k, j) at k*(degree+1)+j. At X^(n+order) a row
    reads sum_k p~_k(n+k) * w(n+k), p~_k holding the coefficients of
    X^(order-k); so p_k(n) = p~_k(n+k), a Taylor shift, unimodular over Z."""
    tilde = rows.reshape(len(rows), degree + 1, order + 1)[:, :, ::-1].transpose(0, 2, 1)
    k = np.arange(order + 1, dtype=np.int64)[:, None]
    out = np.zeros_like(tilde)
    for j in range(degree, -1, -1):
        out = (np.roll(out, 1, axis=2) + k * out) % p
        out[:, :, 0] = (out[:, :, 0] + tilde[:, :, j]) % p
    return out.reshape(len(rows), -1)


def guess_algebraic(series, max_deg_x, max_deg_f):
    """The P(x, F) of least x-degree within the bounds, at the least F-degree
    for it, that annihilates the series mod x^len(series); or None. It
    cross-checks the elimination route from the series alone."""
    fitted = _fitted(series, max_deg_x, max_deg_f + 1)
    signature, vectors = integer_rows(
        lambda p: _least_relations(_power_columns(fitted, max_deg_f, p), p, max_deg_x),
        _prime_bound(len(fitted)),
    )
    return _smallest_verified(
        [canonical_equation(MultivariatePolynomial(
            ("x", "F"), {divmod(i, signature[0] + 1)[::-1]: c for i, c in enumerate(v)}
        )) for v in vectors],
        lambda poly: poly.terms.values(),
        lambda poly: not any(evaluate_on_series(poly, {"F": series})),
    )


def _power_columns(series, degree, p):
    """F^0, ..., F^degree mod p to L = len(series) coefficients; each is a dot
    product of at most L residues, so L * (p-1)^2 < 2^63 (`_prime_bound`)."""
    f = np.array([c % p for c in series], dtype=np.int64)
    out = np.zeros((degree + 1, len(f)), dtype=np.int64)
    out[0, 0] = 1
    for b in range(1, degree + 1):
        out[b] = np.convolve(out[b - 1], f)[: len(f)] % p
    return out
