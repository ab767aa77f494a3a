"""Dense Hermite-Pade boxes row-reduced mod p: the oracle for the order basis.

``avoidwords.linalg.order_basis`` finds the relations sum_j q_j * f_j = 0
mod X^s for every degree bound at once. Here each degree bound is a box of
its own: a matrix whose kernel is the relations within that box, row-reduced
one column at a time (``_mod_rref_kernel``, the kernel the guessers used
before the order basis). ``least_box`` walks the boxes in the guessers'
order, least order first and then least degree, and stops at the first
with a nonzero kernel.
"""

import numpy as np


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


def box_matrix(columns, p, shift, order, used):
    """Rows X^0 ... X^(s-1) of the box mod p: the unknowns are the
    coefficients of X^t in q_j for j < used and t <= order - shift[j], in
    that order; column j's series are the residues columns[j]."""
    length = len(columns[0])
    unknowns = [(j, t) for j in range(used) for t in range(order - shift[j] + 1)]
    return [[columns[j][m - t] % p if m >= t else 0 for j, t in unknowns]
            for m in range(length)], unknowns


def least_box(columns, p, shift, max_order, skip=0):
    """(order, degree, kernel, unknowns) of the first box with a nonzero
    kernel mod p, by increasing order and then degree, where degree d uses
    the columns up to skip + d; or None when no box up to max_order has one."""
    for order in range(max_order + 1):
        for degree in range(len(columns) - skip):
            matrix, unknowns = box_matrix(columns, p, shift, order, skip + degree + 1)
            if unknowns:
                kernel = _mod_rref_kernel(matrix, p)[1]
                if kernel:
                    return order, degree, kernel, unknowns
    return None
