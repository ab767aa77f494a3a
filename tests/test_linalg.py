import sys
import threading
from fractions import Fraction
from itertools import islice
from math import gcd

from hypothesis import given, settings, strategies as st

from avoidwords import linalg
from avoidwords.linalg import integer_kernel, primes_below
from fraction_solver import kernel_basis, solve_linear_system


def test_identity_system():
    res = solve_linear_system([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 0, 0])
    assert res.status == "solution"
    assert res.solution == [1, 0, 0]
    assert res.kernel == []


def test_homogeneous_1x2_kernel():
    res = solve_linear_system([[2, -1]])
    assert res.status == "kernel"
    assert len(res.kernel) == 1
    v = res.kernel[0]
    # any scalar multiple of (1, 2) is acceptable
    assert v[1] == 2 * v[0] and v[0] != 0


def test_vandermonde_interpolation():
    # nodes 0,1,2 and values 1,2,4: solved by hand -> 1 + n/2 + n^2/2
    M = [[1, 0, 0], [1, 1, 1], [1, 2, 4]]
    res = solve_linear_system(M, [1, 2, 4])
    assert res.status == "solution"
    assert res.solution == [1, Fraction(1, 2), Fraction(1, 2)]


def test_inconsistent_differs_from_zero_kernel():
    inconsistent = solve_linear_system([[1, 1], [1, 1]], [1, 2])
    assert inconsistent.status == "inconsistent"
    zero_kernel = solve_linear_system([[1, 0], [0, 1]])
    assert zero_kernel.status == "kernel" and zero_kernel.kernel == []


def test_underdetermined_returns_particular_plus_kernel():
    res = solve_linear_system([[1, 1, 0]], [3])
    assert res.status == "solution"
    assert sum(res.solution[:2]) == 3
    assert len(res.kernel) == 2


matrix_strategy = st.integers(1, 4).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
        min_size=1,
        max_size=4,
    )
)


@settings(max_examples=50)
@given(matrix_strategy)
def test_kernel_vectors_annihilate(matrix):
    for v in kernel_basis(matrix):
        for row in matrix:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


@settings(max_examples=50)
@given(matrix_strategy, st.integers(0, 3))
def test_solution_reproduces_rhs(matrix, seed):
    # build a consistent rhs from a known integer vector
    ncols = len(matrix[0])
    x = [((seed + 1) * (j + 1)) % 5 - 2 for j in range(ncols)]
    rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
    res = solve_linear_system(matrix, rhs)
    assert res.status == "solution"
    for row, b in zip(matrix, rhs):
        assert sum(Fraction(a) * v for a, v in zip(row, res.solution)) == b


def test_rank_deficient_consistent():
    res = solve_linear_system([[1, 2], [2, 4]], [3, 6])
    assert res.status == "solution"
    assert len(res.kernel) == 1


# -------- the modular kernel against the Fraction oracle --------

def _with_dependent_rows(drawn):
    rows, mixes = drawn
    extra = [[sum(c * row[j] for c, row in zip(mix, rows)) for j in range(len(rows[0]))]
             for mix in mixes]
    return rows + extra


# independent-looking rows plus integer combinations of them, so that many
# examples are rank-deficient
deficient_strategy = st.integers(1, 5).flatmap(
    lambda ncols: st.tuples(
        st.lists(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
                 min_size=1, max_size=4),
        st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=3),
    )
).map(_with_dependent_rows)


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrix_strategy, deficient_strategy))
def test_modular_kernel_spans_oracle_kernel(matrix):
    vectors = integer_kernel(lambda p: [[a % p for a in row] for row in matrix])
    assert len(vectors) == len(kernel_basis(matrix))
    for v in vectors:
        assert all(isinstance(c, int) for c in v) and gcd(*v) == 1
        for row in matrix:
            assert sum(a * b for a, b in zip(row, v)) == 0
    if vectors:
        # independent: no nonzero combination of the vectors vanishes
        assert kernel_basis([list(col) for col in zip(*vectors)]) == []


def test_kernel_past_64_primes_is_reconstructed():
    # the kernel of [[a, b]] is spanned by (-b, a)/2, whose entries need more
    # than 64 primes below 2^31 to reconstruct, where a capped search gave []
    a, b = 3**700 + 1, 5**480 + 7
    assert integer_kernel(lambda p: [[a % p, b % p]]) == [[-b // 2, a // 2]]


def test_prime_stream_threads_share_one_list_without_repeats(monkeypatch):
    # more threads than cores extend one fresh stream at once, switching
    # often; a lost check-then-append would repeat a prime
    monkeypatch.setattr(linalg, "_FOUND", {})
    bound, take = 2**25, 300
    got = [None] * 8

    def read(k):
        got[k] = list(islice(primes_below(bound), take))

    threads = [threading.Thread(target=read, args=(k,)) for k in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    found = linalg._FOUND[bound]
    assert found == sorted(set(found), reverse=True) and len(found) == take
    assert all(g == found for g in got)
    assert all(linalg._is_prime(p) for p in found) and found[0] == 2**25 - 39
