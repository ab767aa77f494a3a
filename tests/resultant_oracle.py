"""Resultants from the Bareiss determinant of the Sylvester matrix.

Independent of the subresultant PRS in ``avoidwords.polynomials``; tests use
it as the oracle for ``resultant``.
"""

from avoidwords.polynomials import MultivariatePolynomial, exact_divide


def sylvester_resultant(p, q, name):
    """Resultant via Bareiss determinant of the Sylvester matrix."""
    p._check_compatible(q)
    variables = p.variables
    m = p.degree(name)
    n = q.degree(name)
    if m <= 0 and n <= 0:
        raise ValueError(f"both operands degenerate in {name}")
    P = [p.coefficient_of(name, k) for k in range(m + 1)]
    Q = [q.coefficient_of(name, k) for k in range(n + 1)]
    size = m + n
    zero = MultivariatePolynomial.zero(variables)
    M = [[zero] * size for _ in range(size)]
    for i in range(n):
        for j, c in enumerate(reversed(P)):
            M[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(reversed(Q)):
            M[n + i][i + j] = c
    return _bareiss_det(M, variables)


def _bareiss_det(M, variables):
    n = len(M)
    if n == 0:
        return MultivariatePolynomial.constant(variables, 1)
    M = [row[:] for row in M]
    sign = 1
    prev = MultivariatePolynomial.constant(variables, 1)
    for k in range(n - 1):
        if M[k][k].is_zero:
            for i in range(k + 1, n):
                if not M[i][k].is_zero:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return MultivariatePolynomial.zero(variables)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = M[k][k] * M[i][j] - M[i][k] * M[k][j]
                M[i][j] = exact_divide(num, prev)
            M[i][k] = MultivariatePolynomial.zero(variables)
        prev = M[k][k]
    return M[n - 1][n - 1] * sign
