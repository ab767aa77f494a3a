"""Integer kernels by modular elimination and CRT reconstruction.

Both guessers look for integer vectors in the kernel of an integer matrix.
``integer_kernel(build)`` finds them without rational arithmetic: the caller
supplies the matrix reduced modulo a word-sized prime, each reduction is
row-reduced over GF(p) with numpy, and the reduced kernel bases of agreeing
primes are combined by CRT until rational reconstruction succeeds and one
further prime confirms it.

The vectors returned are candidates, not proofs: callers accept one only
after an exact check of their own.
"""

from itertools import count
from math import gcd, isqrt, lcm, prod
from operator import mul
from threading import Lock

import numpy as np


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
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


def _mod_rref_kernel(matrix_mod, p):
    """Kernel basis of the matrix over GF(p), columns in natural order.

    Returns (pivot_cols, basis) where basis vectors are integer lists mod p.
    """
    A = np.array(matrix_mod, dtype=np.int64)
    rows, cols = A.shape
    pivot_cols = []
    r = 0
    for c in range(cols):
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r] = (A[r] * inv) % p
        f = A[:, c].copy()
        f[r] = 0
        A = (A - f[:, None] * A[r][None, :]) % p
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [0] * cols
        v[fc] = 1
        for k, pc in enumerate(pivot_cols):
            v[pc] = int((-A[k, fc]) % p)
        basis.append(v)
    return pivot_cols, basis


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
    vectors = []
    for v in residues:
        fracs = []
        for c in v:
            rc = _rational_reconstruct(c, modulus)
            if rc is None:
                return None
            fracs.append(rc)
        vectors.append(fracs)
    return vectors


def _agrees(vectors, basis, p):
    for fracs, v in zip(vectors, basis):
        for (a, b), c in zip(fracs, v):
            if b % p == 0 or (a - c * b) % p:
                return False
    return True


def _primitive(fracs):
    den = lcm(*(b for _, b in fracs))
    ints = [a * (den // b) for a, b in fracs]
    g = gcd(*ints)
    return [v // g for v in ints]


def integer_kernel(build):
    """Candidate kernel basis of an integer matrix, as primitive integer vectors.

    `build(p)` returns the matrix reduced mod p: rows of residues, as nested
    lists or a 2-D integer array. An empty result means that some reduction
    had full column rank, which proves the kernel zero.

    The primes come from `primes_below(2**31)`, uncapped, and the loop ends.
    Let the matrix have rank k over Q and RREF pivots P, and fix a nonzero
    k-by-k minor D on P. Call p lucky when its reduction has rank k and
    pivots P; every p not dividing D is, as P stays independent and each
    other column a combination of the pivots before it. Mod p the rank can
    only fall and the pivots only move right, so no reduction beats a lucky
    one; as a better one restarts the combination and a worse one is
    skipped, from the first lucky prime on only lucky ones combine, with the
    residues of the rational kernel basis. By Cramer's rule its entries are
    ratios of k-by-k minors, at most Hadamard's bound H (the product of the
    columns' norms, each at least 1). Once the lucky primes' product m
    exceeds 2H^2, isqrt(m // 2) >= H, so every entry reconstructs exactly and
    the next lucky prime confirms it; the primes below 2^31 run out only for
    H of 10^9 bits.
    """
    best = None
    for p in primes_below(2**31):
        pivots, basis = _mod_rref_kernel(build(p), p)
        if not basis:
            return []
        if best is None or (-len(pivots), pivots) < (-len(best), best):
            best, residues, modulus, vectors = pivots, basis, p, None
            continue
        if pivots != best:
            continue
        if vectors is not None and _agrees(vectors, basis, p):
            return [_primitive(v) for v in vectors]
        residues = [[_crt(a, modulus, b, p) for a, b in zip(u, v)]
                    for u, v in zip(residues, basis)]
        modulus *= p
        vectors = _reconstruct(residues, modulus)
