"""Relations mod primes, lifted to integers by CRT.

`order_basis` finds the polynomial relations among series mod X^s over
GF(p), for every degree bound at once; `echelon` puts rows mod p in a form
that does not depend on p; `integer_rows` combines such rows over primes by
CRT until rational reconstruction succeeds and one more prime confirms it;
`integer_kernel` is the case of a matrix kernel. The vectors returned are
candidates, not proofs: callers accept one only after an exact check.
"""

from itertools import count, takewhile
from math import gcd, isqrt, lcm, prod
from operator import mul
from threading import Lock

import numpy as np


def _is_prime(n):
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in small):
        return n in small
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:  # Miller-Rabin, exact for n < 3.1 * 10^23
        x = pow(a, d, n)
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


_FOUND = {}  # bound -> the primes below it found so far, largest first
_FOUND_LOCK = Lock()


def primes_below(bound):
    """The odd primes below `bound`, largest first, without end (RuntimeError if
    they run out). Streams with one bound extend one shared list under a lock,
    so each candidate is tested once per process and no prime appears twice."""
    found = _FOUND.setdefault(bound, [])
    for i in count():
        with _FOUND_LOCK:
            if i == len(found):
                start = found[-1] - 2 if found else (bound - 2) | 1
                found.append(next(p for p in range(start, 2, -2) if _is_prime(p)))
        yield found[i]


def order_basis(columns, p, shift=None):
    """Order basis mod p of the relations among `columns`, m series f_j mod
    X^s given by their residues (Beckermann and Labahn's iterative
    sigma-basis). Returns (basis, degrees): row i lists polynomials q_ij,
    ascending in X, with sum_j q_ij*f_j = 0 mod X^s and shifted degree
    degrees[i] = max_j (deg q_ij + shift[j]). At each order, of the rows
    with a nonzero residual there, the one of least degree clears it from
    the others and is multiplied by X. So sum_i a_i*row_i has degree
    max_i (deg a_i + degrees[i]): the relations of least degree are the
    constant combinations of the rows of that degree. Products are of two
    residues, so p < 2^31 keeps all in int64.
    """
    residual = np.array(columns, dtype=np.int64) % p
    m, length = residual.shape
    degrees = [0] * m if shift is None else list(shift)
    basis = np.zeros((m, m, length + max(degrees) + 2), dtype=np.int64)
    basis[range(m), range(m), 0] = 1
    for k in range(length):
        coeffs = residual[:, k].tolist()
        live = [i for i, c in enumerate(coeffs) if c]
        if not live:
            continue
        pivot = min(live, key=degrees.__getitem__)
        if len(live) > 1:
            f = np.array(coeffs, dtype=np.int64) * pow(coeffs[pivot], p - 2, p) % p
            f[pivot] = 0
            rest, polys = residual[:, k:], basis[:, :, : max(degrees) + 1]
            rest -= f[:, None] * rest[pivot]
            rest %= p
            polys -= f[:, None, None] * polys[pivot]
            polys %= p
        residual[pivot, k + 1:] = residual[pivot, k:-1]
        basis[pivot, :, 1:] = basis[pivot, :, :-1]
        basis[pivot, :, 0] = 0
        degrees[pivot] += 1
    return basis, np.array(degrees)


def echelon(rows, p):
    """(pivots, rows): independent rows mod p in reduced echelon form from the
    right. Each row's last nonzero entry is a 1 at its pivot, the others are
    0 there, and the rows come by increasing pivot. The pivots are the
    greedy basis from the right of the rows' column matroid. If the rows
    reduce a lattice of rank k that keeps rank k mod p, the pivots can only
    fall in each place: every basis mod p is one over Q, where the greedy
    basis is the largest in each place."""
    rows = np.array(rows, dtype=np.int64) % p
    for r in range(len(rows)):
        last = [int(np.flatnonzero(row)[-1]) for row in rows[r:]]
        i, c = r + int(np.argmax(last)), max(last)
        rows[[r, i]] = rows[[i, r]]
        rows[r] = rows[r] * pow(int(rows[r, c]), p - 2, p) % p
        f = rows[:, c].copy()
        f[r] = 0
        rows = (rows - f[:, None] * rows[r]) % p
    return [int(np.flatnonzero(row)[-1]) for row in rows[::-1]], rows[::-1]


def _rational_reconstruct(c, m):
    """(a, b) with a/b == c mod m and |a|, b <= sqrt(m/2), or None."""
    bound = isqrt(m // 2)
    r0, r1 = m, c % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, abs(s1)) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _crt(a, m, b, p):
    # combine x = a mod m, x = b mod p, for coprime m and p
    diff = (b - a) % p
    inv = pow(m, -1, p)
    return (a + m * (diff * inv % p)) % (m * p)


def _crt_rows(rows, primes):
    """The integers in [0, prod(primes)) with the given residues, one per row
    of `rows`, an int64 array of shape (value, prime); each prime < 2^31.5."""
    modulus = prod(primes)
    cofactors = [modulus // p for p in primes]
    mods = np.array(primes, dtype=np.int64)
    inverses = np.array([pow(c, -1, p) for c, p in zip(cofactors, primes)], dtype=np.int64)
    digits = rows * inverses % mods
    return [sum(map(mul, d, cofactors)) % modulus for d in digits.tolist()]


def _reconstruct(residues, modulus):
    """Vectors of (numerator, denominator) pairs with these residues, or None."""
    fracs = (_rational_reconstruct(c, modulus) for v in residues for c in v)
    flat = list(takewhile(lambda f: f is not None, fracs))
    if len(flat) < len(residues) * len(residues[0]):
        return None
    return [flat[i: i + len(residues[0])] for i in range(0, len(flat), len(residues[0]))]


def _agrees(vectors, rows, p):
    return all(b % p and (a - c * b) % p == 0
               for fracs, v in zip(vectors, rows) for (a, b), c in zip(fracs, v))


def _primitive(fracs):
    den = lcm(*(b for _, b in fracs))
    ints = [a * (den // b) for a, b in fracs]
    g = gcd(*ints)
    return [v // g for v in ints]


def integer_rows(solve, bound=2**31):
    """(signature, primitive integer rows) from reductions mod primes.

    `solve(p)` returns (signature, rows in `echelon` form), or None, which
    must prove there are no rows over Q; then the result is (None, []). The
    caller shows that no signature exceeds the rational one S, and that all
    but finitely many primes are lucky: they give S and the rational echelon
    rows B mod p. A better signature restarts the combination and a worse
    one is skipped, so from the first lucky prime on only lucky ones
    combine. By Cramer's rule B's entries are ratios of minors, at most
    Hadamard's bound H; once the lucky primes' product m exceeds 2H^2,
    isqrt(m // 2) >= H, so every entry reconstructs and the next lucky
    prime confirms it. The primes below 2^b run out only for H of about
    b * pi(2^b) / 2 bits, 10^7 at b = 25.
    """
    best = None
    for p in primes_below(bound):
        found = solve(p)
        if found is None:
            return None, []
        signature, rows = found[0], found[1].tolist()
        if best is None or signature > best:
            best, residues, modulus, vectors = signature, rows, p, None
            continue
        if signature != best:
            continue
        if vectors is not None and _agrees(vectors, rows, p):
            return best, [_primitive(v) for v in vectors]
        residues = [[_crt(a, modulus, b, p) for a, b in zip(u, v)]
                    for u, v in zip(residues, rows)]
        modulus *= p
        vectors = _reconstruct(residues, modulus)


def integer_kernel(build):
    """Candidate kernel basis of an integer matrix, as primitive integer vectors.

    `build(p)` returns the matrix mod p, as nested lists or a 2-D array. Its
    kernel is the relations of degree 0 among its columns read as series.
    [] means some reduction had full column rank, which proves the kernel
    zero. Mod p the kernel can only grow, and at the rational dimension k it
    is the integer kernel L mod p, whose pivots can only fall (`echelon`).
    So (-k, pivots) ranks no reduction above the rational one, and every p
    dividing neither a nonzero minor of the matrix's rank nor L's minor on
    its pivots is lucky, as `integer_rows` requires.
    """
    def solve(p):
        basis, degrees = order_basis(np.asarray(build(p), dtype=np.int64).T, p)
        if degrees.min() > 0:
            return None
        pivots, rows = echelon(basis[degrees == 0, :, 0], p)
        return (-len(pivots), pivots), rows

    return integer_rows(solve)[1]
