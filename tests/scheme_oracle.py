"""Exact big-integer series solvers: the oracles for ``avoidwords.scheme.solve_series``.

``solve_series_full`` parses each polynomial equation of the scheme back into
index form and then computes every coefficient of every enumerator with a
convolution over all terms, zeros included. ``solve_series_strided`` reads
the index form directly and skips the coefficients that the residue-class
grading forces to zero, in Python integers; it is fast enough for the
lengths the benchmark counts at. The package solver works on residues and
reconstructs by CRT; tests compare it with both.
"""

from operator import mul

from avoidwords.scheme import scheme_pairs, scheme_terms, variable_name


def compile_equations(scheme):
    """Parse each equation into (delta, quadratic terms, linear terms).

    Quadratic terms are (coef, pair_a, pair_b) standing for coef*x*g_a*g_b;
    linear terms are (coef, xpow, pair) standing for coef*x^xpow*g_pair.
    """
    pairs = scheme_pairs(scheme.r)
    var_index = {p: scheme.variables.index(variable_name(p)) for p in pairs}
    compiled = {}
    for (i, j), poly in scheme.equations.items():
        delta = 0
        quads = []
        lins = []
        for exps, c in poly.terms.items():
            xpow = exps[0]
            gs = []
            for p in pairs:
                gs.extend([p] * exps[var_index[p]])
            if not gs and xpow == 0:
                delta = c
            elif len(gs) == 1 and xpow == 0:
                if gs[0] != (i, j) or c != -1:
                    raise AssertionError(f"unexpected bare term in equation {(i, j)}")
            elif len(gs) == 2 and xpow == 1:
                quads.append((c, gs[0], gs[1]))
            elif len(gs) == 1 and xpow >= 1:
                lins.append((c, xpow, gs[0]))
            else:
                raise AssertionError(f"unexpected term shape in equation {(i, j)}: {exps}")
        compiled[(i, j)] = (delta, quads, lins)
    return compiled


def solve_series_full(scheme, cutoff):
    """pair -> coefficient list c_0..c_{cutoff-1}, one full sweep per degree."""
    compiled = compile_equations(scheme)
    pairs = scheme_pairs(scheme.r)
    coeffs = {p: [0] * cutoff for p in pairs}
    for p in pairs:
        coeffs[p][0] = compiled[p][0]
    for m in range(1, cutoff):
        k = m - 1
        for p in pairs:
            _, quads, lins = compiled[p]
            s = 0
            for c, a, b in quads:
                ca, cb = coeffs[a], coeffs[b]
                s += c * sum(ca[t] * cb[k - t] for t in range(k + 1))
            for c, xpow, q in lins:
                if m >= xpow:
                    s += c * coeffs[q][m - xpow]
            coeffs[p][m] = s
    return coeffs


def solve_series_strided(r, cutoff):
    """pair -> coefficient list c_0..c_{cutoff-1}, in exact integers.

    Degree m only updates the pairs in residue class m mod r, and the
    convolution of g_a and g_b only runs over exponents t = ra (mod r), so
    each product is one dot product over strided slices. A product shared by
    several pairs of a class is computed once per degree.
    """
    terms = scheme_terms(r)
    coeffs = {p: [0] * cutoff for p in terms}
    classes = [([], {}) for _ in range(r)]
    for p, (delta, quads, lins) in terms.items():
        coeffs[p][0] = delta
        rows, index = classes[sum(p) % r]
        for c, a, b in quads:
            index.setdefault((a, b), len(index))
        rows.append((coeffs[p], [(c, index[a, b]) for c, a, b in quads],
                     [(xpow, coeffs[q]) for xpow, q in lins]))
    classes = [
        (rows, [(sum(a) % r, coeffs[a], coeffs[b]) for a, b in index])
        for rows, index in classes
    ]
    for m in range(1, cutoff):
        k = m - 1
        rows, products = classes[m % r]
        conv = [
            sum(map(mul, ca[ra:k + 1:r], cb[k - ra::-r])) if k >= ra else 0
            for ra, ca, cb in products
        ]
        for out, quads, lins in rows:
            s = 0
            for c, at in quads:
                s += c * conv[at]
            for xpow, cq in lins:
                if m >= xpow:
                    s += cq[m - xpow]
            out[m] = s
    return coeffs
