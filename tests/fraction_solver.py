"""Exact linear algebra over the rationals: the oracle for the modular kernel.

Gaussian elimination with full pivoting, where the pivot is chosen to
minimize the bit size of numerator and denominator. The package itself finds
kernels modulo primes (``avoidwords.linalg.integer_kernel``); this solver
works in Fractions throughout and checks every result it returns, so tests
compare the two.
"""

from dataclasses import dataclass
from fractions import Fraction


class InconsistentSystemError(ArithmeticError):
    """The linear system has no solution."""


@dataclass
class LinearSolveResult:
    status: str            # "solution" | "kernel" | "inconsistent"
    solution: list | None  # particular solution (inhomogeneous, consistent)
    kernel: list           # basis of the homogeneous solution space


def _pivot_size(f):
    return f.numerator.bit_length() + f.denominator.bit_length()


def _eliminate(M, rhs):
    """Row-reduce in place with full pivoting.

    Returns (pivots, col_of_row) where pivots maps column -> pivot row.
    """
    if not M:
        return {}
    nrows = len(M)
    ncols = len(M[0])
    col_perm = list(range(ncols))
    pivots = []  # (row, permuted col position)
    r = 0
    for step in range(min(nrows, ncols)):
        best = None
        best_size = None
        for i in range(r, nrows):
            row = M[i]
            for jp in range(step, ncols):
                v = row[col_perm[jp]]
                if v:
                    s = _pivot_size(v)
                    if best_size is None or s < best_size:
                        best, best_size = (i, jp), s
        if best is None:
            break
        i, jp = best
        M[r], M[i] = M[i], M[r]
        if rhs is not None:
            rhs[r], rhs[i] = rhs[i], rhs[r]
        col_perm[step], col_perm[jp] = col_perm[jp], col_perm[step]
        j = col_perm[step]
        piv = M[r][j]
        for i2 in range(nrows):
            if i2 == r:
                continue
            f = M[i2][j]
            if f:
                ratio = f / piv
                row2 = M[i2]
                rowp = M[r]
                for jj in range(ncols):
                    if rowp[jj]:
                        row2[jj] = row2[jj] - ratio * rowp[jj]
                if rhs is not None:
                    rhs[i2] = rhs[i2] - ratio * rhs[r]
        pivots.append((r, step))
        r += 1
    return {"rank": r, "pivots": pivots, "col_perm": col_perm}


def solve_linear_system(matrix, rhs=None):
    """Solve M*v = rhs exactly.

    With rhs (inhomogeneous): returns status "solution" with a particular
    solution plus a kernel basis, or "inconsistent". Without rhs
    (homogeneous): returns status "kernel" with a kernel basis (empty list
    means the kernel is zero -- distinct from inconsistency, which cannot
    occur for homogeneous systems).

    Every returned solution is re-multiplied through the original matrix and
    checked exactly before returning.
    """
    M_orig = [[Fraction(v) for v in row] for row in matrix]
    if not M_orig:
        if rhs:
            raise ValueError("rhs given for empty matrix")
        return LinearSolveResult("kernel", None, [])
    ncols = len(M_orig[0])
    homogeneous = rhs is None
    b = None if homogeneous else [Fraction(v) for v in rhs]
    M = [row[:] for row in M_orig]
    info = _eliminate(M, b)
    rank = info["rank"]
    col_perm = info["col_perm"]
    nrows = len(M)

    if not homogeneous:
        for i in range(rank, nrows):
            if b[i] != 0:
                return LinearSolveResult("inconsistent", None, [])

    pivot_cols = [col_perm[k] for k in range(rank)]
    free_cols = [col_perm[k] for k in range(rank, ncols)]

    kernel = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for k in range(rank):
            pc = pivot_cols[k]
            v[pc] = -M[k][fc] / M[k][pc]
        kernel.append(v)

    for v in kernel:
        for row in M_orig:
            s = sum(rv * vv for rv, vv in zip(row, v) if rv and vv)
            if s != 0:
                raise ArithmeticError("internal check failed: kernel vector does not annihilate")

    if homogeneous:
        return LinearSolveResult("kernel", None, kernel)

    sol = [Fraction(0)] * ncols
    for k in range(rank):
        pc = pivot_cols[k]
        sol[pc] = b[k] / M[k][pc]
    for row, bv in zip(M_orig, [Fraction(v) for v in rhs]):
        s = sum(rv * vv for rv, vv in zip(row, sol) if rv and vv)
        if s != bv:
            raise ArithmeticError("internal check failed: M*solution != rhs")
    return LinearSolveResult("solution", sol, kernel)


def kernel_basis(matrix):
    """Basis of the exact null space of the matrix."""
    return solve_linear_system(matrix).kernel
