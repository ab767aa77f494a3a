"""Truncated power series with exact coefficients.

A series is a plain list of coefficients c_0..c_{N-1}, and its length is the
cutoff N: nothing past it is known, so a product truncates to the shorter
operand. Coefficients are ints.
"""

from functools import reduce


def series_mul(a, b):
    """The product a*b, truncated to the shorter of the two cutoffs."""
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i]
        if ai:
            for j in range(n - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def evaluate_on_series(poly, assignment):
    """poly evaluated mod x^N, as a coefficient list of length N.

    `poly` is a MultivariatePolynomial with a variable `x`, which stays
    formal, so x^a shifts by a; every other variable is replaced by the
    series `assignment[name]`, and all those series must share the cutoff N.
    Each variable's powers, and the product for each distinct non-x
    monomial, are computed once.
    """
    cutoffs = {len(s) for s in assignment.values()}
    if len(cutoffs) != 1:
        raise ValueError("all series must share one cutoff")
    n = cutoffs.pop()
    one = ([1] + [0] * n)[:n]
    powers = {}

    def power(name, e):
        table = powers.setdefault(name, [one])
        while len(table) <= e:
            table.append(series_mul(table[-1], assignment[name]))
        return table[e]

    at_x = poly.variables.index("x")
    others = [(k, name) for k, name in enumerate(poly.variables) if k != at_x]
    products = {}
    acc = [0] * n
    for exps, c in poly.terms.items():
        a, key = exps[at_x], tuple(exps[k] for k, _ in others)
        prod = products.get(key)
        if prod is None:
            factors = [power(name, e) for (_, name), e in zip(others, key) if e]
            prod = products[key] = reduce(series_mul, factors) if factors else one
        for i in range(n - a):
            v = prod[i]
            if v:
                acc[i + a] += c * v
    return acc
