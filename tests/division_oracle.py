"""Pseudo-division with its quotient, for tests of ``pseudo_rem``.

The package only needs the pseudo-remainder; tests use the quotient to check
the identity lc(g)**d * f == q*g + r.
"""

from avoidwords.polynomials import MultivariatePolynomial, exact_divide, pseudo_rem


def pseudo_division(f, g, name):
    """(q, r) with lc(g)**d * f == q*g + r, deg_name(r) < deg_name(g)."""
    r = pseudo_rem(f, g, name)
    n = g.degree(name)
    d = f.degree(name) - n + 1
    if d <= 0:
        return MultivariatePolynomial.zero(f.variables), f
    lc = g.coefficient_of(name, n)
    return exact_divide(lc**d * f - r, g), r
