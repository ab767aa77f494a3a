"""The algebraic scheme for 231-avoiding words with fixed letter multiplicities.

For each 0 <= i <= j <= r-1 there is one enumerator g^(i,j)(x), counting
231-avoiding words (by length) in which one boundary letter occurs i times,
another occurs j times, and every remaining letter occurs exactly r times.
The r(r+1)/2 enumerators satisfy a closed system of quadratic equations:

    g^(i,j) = [i=0][j=0]
              + x * sum_{t=0}^{r-1} g^(i,t) * g^((r-t) mod r, (j-1) mod r)
              + sum_{m=0}^{i-1} x^(m+1) * g^(i-m, j-1)

with index pairs sorted into canonical (small, large) order, since the
enumerator only depends on the unordered pair. Every right-hand term carries
a factor of x, so the system solves uniquely coefficient by coefficient; the
counting sequence is read off g^(0,0) at exponents divisible by r.

The rule is written down once, in index form (`scheme_terms`); the
polynomial equations used for elimination and printing are derived from it.
The enumerators are graded by residue class: g^(i,j) has nonzero
coefficients only at exponents = i+j (mod r), since its words have length
i+j+r*k. The series solver relies on this and touches only those
coefficients. It keeps them as residues modulo word-sized primes and
rebuilds the integers by CRT, with enough primes for a bound on every
coefficient that an exact check certifies; the proofs are in
`solve_series`.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, prod

import numpy as np

from .linalg import _crt, _crt_rows, primes_below
from .polynomials import MultivariatePolynomial


def canon_pair(i, j):
    """Sort an index pair; enumerators are symmetric in the two boundary letters."""
    return (i, j) if i <= j else (j, i)


def scheme_pairs(r):
    return [(i, j) for i in range(r) for j in range(i, r)]


def variable_name(pair):
    return f"G{pair[0]}_{pair[1]}"


def scheme_variables(r):
    return ("x",) + tuple(variable_name(p) for p in scheme_pairs(r))


@dataclass(frozen=True)
class AlgebraicScheme:
    """The full equation system for one r; equations are stored as RHS - G_ij."""

    r: int
    variables: tuple
    equations: dict  # (i, j) -> MultivariatePolynomial

    def pretty(self):
        names = {variable_name((a, b)): f"g^({a},{b})" for a, b in scheme_pairs(self.r)}
        display = tuple(names.get(v, v) for v in self.variables)
        lines = []
        for (i, j), poly in sorted(self.equations.items()):
            rhs = poly + MultivariatePolynomial.variable(self.variables, variable_name((i, j)))
            lines.append(f"g^({i},{j}) = {MultivariatePolynomial(display, rhs.terms)}")
        return "\n".join(lines)

    def to_json(self):
        return {
            "r": self.r,
            "variables": list(self.variables),
            "equations": {
                f"{i},{j}": poly.to_json() for (i, j), poly in sorted(self.equations.items())
            },
        }


def scheme_terms(r):
    """The rule in index form: pair -> (delta, quadratic terms, linear terms).

    Quadratic terms are (coef, pair_a, pair_b) standing for coef*x*g_a*g_b,
    with pair_a <= pair_b and repeated products merged into coef; linear
    terms are (xpow, pair) standing for x^xpow*g_pair. Every pair is
    canonical. Both the polynomial equations and the series solver are read
    from this one description.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    terms = {}
    for (i, j) in scheme_pairs(r):
        quads = {}
        for t in range(r):
            a, b = sorted((canon_pair(i, t), canon_pair((r - t) % r, (j - 1) % r)))
            quads[a, b] = quads.get((a, b), 0) + 1
        lins = [(m + 1, canon_pair(i - m, j - 1)) for m in range(i)]
        delta = 1 if (i, j) == (0, 0) else 0
        terms[(i, j)] = (delta, [(c, a, b) for (a, b), c in quads.items()], lins)
    return terms


def build_scheme(r):
    """Construct the r(r+1)/2 equations for the given r."""
    variables = scheme_variables(r)

    def G(pair):
        return MultivariatePolynomial.variable(variables, variable_name(pair))

    x = MultivariatePolynomial.variable(variables, "x")
    equations = {}
    for pair, (delta, quads, lins) in scheme_terms(r).items():
        rhs = MultivariatePolynomial.zero(variables) + delta
        for c, a, b in quads:
            rhs = rhs + c * x * G(a) * G(b)
        for xpow, q in lins:
            rhs = rhs + (x ** xpow) * G(q)
        equations[pair] = rhs - G(pair)
    return AlgebraicScheme(r=r, variables=variables, equations=equations)


# int64 entries of one batch's coefficient array and gathered factors: the
# primes a sweep needs are split into batches that keep them below 32 MiB
BATCH_ENTRIES = 1 << 22


@cache
def _layout(r):
    """The sweep's tables for r: the pairs in array order, and per residue class.

    Pairs are ordered by residue class, so a class's pairs fill one range
    of rows. For degree m in class c, a class lists: its distinct products
    g_a*g_b, as arrays of a's and b's indices and of carries (1 where the
    factors' residues add up to r more than m-1's, so b's slots sit one
    lower); its linear terms x^xpow*g_q, as arrays of q's indices and of
    slot shifts (the slot of exponent m-xpow in g_q, minus m//r: 0 or -1);
    and one integer matrix whose row for a pair weights the products and
    then the linear terms.
    """
    terms = scheme_terms(r)
    pairs = sorted(terms, key=lambda p: sum(p) % r)
    at = {p: n for n, p in enumerate(pairs)}
    classes = []
    start = 0
    for c in range(r):
        rows = [p for p in pairs if sum(p) % r == c]
        products = sorted({(a, b) for p in rows for _, a, b in terms[p][1]})
        column = {ab: n for n, ab in enumerate(products)}
        lins = [(row, xpow, q) for row, p in enumerate(rows) for xpow, q in terms[p][2]]
        weights = np.zeros((len(rows), len(products) + len(lins)), dtype=np.int64)
        for row, p in enumerate(rows):
            for coef, a, b in terms[p][1]:
                weights[row, column[a, b]] += coef
        for n, (row, _, _) in enumerate(lins, len(products)):
            weights[row, n] = 1
        classes.append((
            start, start + len(rows), weights,
            np.array([at[a] for a, _ in products], dtype=np.intp),
            np.array([at[b] for _, b in products], dtype=np.intp),
            np.array([(sum(a) % r + sum(b) % r) // r for a, b in products], dtype=np.intp),
            np.array([at[q] for _, _, q in lins], dtype=np.intp),
            np.array([(c - xpow - sum(q) % r) // r for _, xpow, q in lins], dtype=np.intp),
        ))
        start += len(rows)
    return pairs, classes


def _sweep(r, cutoff, primes):
    """Residues of the scheme's series modulo each of `primes`.

    Returns an int64 array of shape (pair, k, prime), pairs in `_layout`'s
    order: entry [q, k, l] is coefficient s+r*k of pair q, where s is its
    residue class, modulo primes[l]. Each pair has one slot more than it
    has coefficients, and that last slot stays 0: in the array flattened to
    rows of primes, the row before a pair's first slot reads zero, so a dot
    product or linear term that reaches below exponent 0 needs no case of
    its own. Every prime p must satisfy L*(p-1)^2 < 2^63, where L is the
    number of coefficient slots, so that no dot product overflows.
    """
    pairs, classes = _layout(r)
    length = -(-cutoff // r)  # coefficient slots per pair
    stride = length + 1
    mods = np.array(primes, dtype=np.int64)
    coeffs = np.zeros((len(pairs), stride, len(primes)), dtype=np.int64)
    coeffs[pairs.index((0, 0)), 0] = 1
    flat = coeffs.reshape(-1, len(primes))
    steps = np.arange(length, dtype=np.intp)
    tables = [(
        lo, hi, weights, len(a),
        # the flat rows of slot u of g_a, and of slot length-1-u of g_b
        a[:, None] * stride + steps,
        (b * stride - carry)[:, None] + steps[::-1],
        lin_pairs * stride + lin_shifts,
        np.empty((len(weights[0]), len(primes)), dtype=np.int64),
    ) for lo, hi, weights, a, b, carry, lin_pairs, lin_shifts in classes]
    # the gathered factors, reused from degree to degree
    most = max(len(a) for _, _, _, a, *_ in classes) * length * len(primes)
    spare_a, spare_b = np.empty(most, dtype=np.int64), np.empty(most, dtype=np.int64)
    for m in range(1, cutoff):
        lo, hi, weights, n_products, rows_a, rows_b, rows_lin, values = tables[m % r]
        # the products' coefficients of x^(m-1): slots 0..n of g_a against n..0 of g_b
        n = (m - 1) // r
        shape = (n_products, n + 1, len(primes))
        size = n_products * (n + 1) * len(primes)
        # row -1 is the last pair's zero slot; mode "wrap" reads it as such
        factor_a = flat.take(rows_a[:, :n + 1], axis=0, out=spare_a[:size].reshape(shape),
                             mode="wrap")
        factor_b = flat.take(rows_b[:, length - 1 - n:], axis=0,
                             out=spare_b[:size].reshape(shape), mode="wrap")
        np.einsum("ijk,ijk->ik", factor_a, factor_b, out=values[:n_products])
        flat.take(rows_lin + m // r, axis=0, out=values[n_products:], mode="wrap")
        np.remainder(values, mods, out=values)
        np.remainder(weights @ values, mods, out=coeffs[lo:hi, m // r])
    return coeffs


def _fixed_point(r, x):
    """The least solution y of y = Phi(x, y) in floats, as {pair: y}, by
    Newton's method from Phi(x, 0); None if it does not settle (x is past
    the singularity)."""
    terms = scheme_terms(r)
    at = {p: n for n, p in enumerate(terms)}
    size = len(at)
    # Phi(x, y) = delta + y.quad[p].y + lin @ y, with each quad[p] symmetric
    delta = np.zeros(size)
    quad = np.zeros((size, size, size))
    lin = np.zeros((size, size))
    for p, (d, quads, lins) in terms.items():
        delta[at[p]] = d
        for c, a, b in quads:
            quad[at[p], at[a], at[b]] += x * c / 2
            quad[at[p], at[b], at[a]] += x * c / 2
        for xpow, q in lins:
            lin[at[p], at[q]] += x**xpow
    y = delta.copy()
    for _ in range(100):
        half = quad @ y  # half the Jacobian of the quadratic part
        step = np.linalg.solve(np.eye(size) - 2 * half - lin, delta + half @ y + lin @ y - y)
        y += step
        if not np.all(np.isfinite(y) & (y >= 0)):
            return None
        if np.all(np.abs(step) <= 1e-12 * y):
            return dict(zip(terms, y.tolist()))
    return None


def _is_supersolution(r, x0, y):
    """Phi(x0, y) <= y in every component, decided in exact rationals."""
    return all(
        delta + x0 * sum(c * y[a] * y[b] for c, a, b in quads)
        + sum(x0 ** xpow * y[q] for xpow, q in lins) <= y[p]
        for p, (delta, quads, lins) in scheme_terms(r).items()
    )


@cache
def _certificate(r):
    """A rational x0 > 0 and rational y with Phi(x0, y) <= y, as (x0, {pair: y}).

    Floats only propose the point: y is the fixed point at 0.97 of the
    conjectured singularity x* = ((r+1)*2^r)^(-1/r), and x0 sits at 0.95 of
    it. Only the exact check `_is_supersolution` accepts a point; when it
    fails, the point is proposed again at half the scale. See `solve_series`
    for the bound this certifies.
    """
    scale = ((r + 1) * 2**r) ** (-1 / r)
    while True:
        y = _fixed_point(r, 0.97 * scale)
        x0 = Fraction(int(0.95 * scale * 2**20), 2**20)
        if y is not None and x0 > 0:
            y = {p: Fraction(ceil(v * 2**32), 2**32) for p, v in y.items()}
            if _is_supersolution(r, x0, y):
                return x0, y
        scale /= 2


def _coefficient_bound(r, m, pairs):
    """An integer B >= every coefficient of x^m in the given enumerators,
    from the certificate: c_m <= y / x0^m."""
    x0, y = _certificate(r)
    top = max(y[p] for p in pairs)
    return top.numerator * x0.denominator**m // (top.denominator * x0.numerator**m)


def _sweep_primes(r, cutoff, bound):
    """The fewest primes for a sweep to the cutoff whose product exceeds `bound`.

    They are the largest primes below 2^b, for the largest b with
    2^(2b) * 2^(bit length of L) <= 2^63, where L is the longest dot
    product; so L*(p-1)^2 < 2^63.
    """
    b = (63 - (-(-cutoff // r)).bit_length()) // 2
    primes, modulus = [], 1
    for p in primes_below(2**b):
        primes.append(p)
        modulus *= p
        if modulus > bound:
            return primes


def _exact(r, cutoff, pairs):
    """Exact coefficients s+r*k of the given pairs by CRT, one list per pair.

    The primes' product exceeds the certified bound at the top exponent, and
    every coefficient is a nonnegative integer below it, so the residues
    determine it. Primes go in batches; each batch's values are combined
    with the previous batches' by CRT.
    """
    order, classes = _layout(r)  # first, so that r < 1 raises its ValueError
    primes = _sweep_primes(r, cutoff, _coefficient_bound(r, cutoff - 1, pairs))
    length = -(-cutoff // r)
    per_prime = (len(order) + 2 * max(len(a) for _, _, _, a, *_ in classes)) * (length + 1)
    batch = max(1, BATCH_ENTRIES // per_prime)
    values, modulus = None, 1
    for start in range(0, len(primes), batch):
        chunk = primes[start:start + batch]
        coeffs = _sweep(r, cutoff, chunk)
        rows = coeffs[[order.index(p) for p in pairs], :-1].reshape(-1, len(chunk))
        residues = _crt_rows(rows, chunk)
        part = prod(chunk)
        values = residues if values is None else [
            _crt(v, modulus, w, part) for v, w in zip(values, residues)]
        modulus *= part
    return [values[n:n + length] for n in range(0, len(values), length)]


def _spread(r, cutoff, pairs, rows):
    """{pair: list of length cutoff} with each pair's slots at its exponents."""
    series = {}
    for p, row in zip(pairs, rows):
        coeffs = [0] * cutoff
        s = sum(p) % r
        coeffs[s::r] = row[:len(range(s, cutoff, r))]
        series[p] = coeffs
    return series


def solve_series(r, cutoff):
    """Unique power-series solution of the scheme for r up to the cutoff,
    as {pair: coefficient list of length cutoff}.

    Every non-constant right-hand term carries a factor of x, so coefficient
    m of each enumerator depends only on coefficients below m; one sweep per
    degree yields the solution.

    Grading: coefficient m of g^(i,j) is 0 unless m = i+j (mod r). By
    induction on m: the constant term sits at (0,0), where i+j = 0. In
    x*g^(i,t)*g^((r-t) mod r, (j-1) mod r) the residues of the factors add
    up to 1 + (i+t) + (r-t) + (j-1) = i+j (mod r), and in
    x^(m+1)*g^(i-m, j-1) to (m+1) + (i-m) + (j-1) = i+j. So degree m only
    updates the pairs in residue class m mod r, and the convolution of g_a
    and g_b only runs over t = ra (mod r), where ra is g_a's residue.

    Residues: the sweep (`_sweep`) keeps every coefficient modulo a batch
    of word-sized primes in one int64 array of shape (pair, k, prime), k
    indexing the pair's exponents in its residue class. A degree computes
    its class's distinct products for all primes at once, as one batch of
    dot products, then one small integer matrix of quadratic weights times
    the product vector and the linear terms, reduced mod p. The primes satisfy L*(p-1)^2 < 2^63 for the
    longest dot product L, so no int64 sum overflows.

    Exact values come by CRT, from primes whose product exceeds a
    certified bound. Phi is monotone with nonnegative coefficients. If
    rationals x0 > 0 and y satisfy Phi(x0, y) <= y componentwise
    (`_certificate`, checked exactly), then every coefficient c_m of
    g^(i,j) is at most y_ij / x0^m: the Picard iterates G_0 = 0,
    G_{k+1} = Phi(x, G_k) have nonnegative coefficients, agree with the
    solution below degree k, and stay below y at x0, by induction:
    G_{k+1}(x0) = Phi(x0, G_k(x0)) <= Phi(x0, y) <= y. So
    c_m x0^m <= G_{m+1}(x0) <= y. Floats only propose (x0, y). Each
    coefficient is a nonnegative integer below the product of the primes,
    so its residues fix it.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    pairs = scheme_pairs(r)
    return _spread(r, cutoff, pairs, _exact(r, cutoff, pairs))


def solve_series_mod(r, cutoff, p):
    """The solution's coefficients modulo p, as {pair: residue list of length
    cutoff}, from the same sweep; p must satisfy L*(p-1)^2 < 2^63, where
    L = ceil(cutoff/r) is the longest dot product."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    order = _layout(r)[0]
    if p < 2 or -(-cutoff // r) * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"modulus {p} is outside 2 <= p, L*(p-1)^2 < 2^63")
    pairs = scheme_pairs(r)
    coeffs = _sweep(r, cutoff, [p])[[order.index(q) for q in pairs], :-1, 0]
    return _spread(r, cutoff, pairs, coeffs.tolist())


class _Counts(list):
    """A plain list, plus `.terms` (itself) for perfbench/make_reference.py."""

    @property
    def terms(self):
        return self


def word_counts(r, nmax):
    """w_r(0..nmax), the numbers of 123-avoiding words with r of each of n
    letters, read off the series solution of the scheme."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return _Counts(_exact(r, r * nmax + 1, [(0, 0)])[0])
