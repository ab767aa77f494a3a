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
coefficients; the proof is in `solve_series`.
"""

from dataclasses import dataclass
from operator import mul

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
        lines = []
        for (i, j), poly in sorted(self.equations.items()):
            g = MultivariatePolynomial.variable(self.variables, variable_name((i, j)))
            rhs = poly + g
            text = str(rhs)
            for (a, b) in scheme_pairs(self.r):
                text = text.replace(variable_name((a, b)), f"g^({a},{b})")
            lines.append(f"g^({i},{j}) = {text}")
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


def solve_series(r, cutoff):
    """Unique power-series solution of the scheme for r up to the cutoff,
    as {pair: coefficient list of length cutoff}.

    Every non-constant right-hand term carries a factor of x, so coefficient
    m of each enumerator depends only on coefficients below m; one sweep per
    degree yields the solution. Exact integer arithmetic throughout.

    Grading: coefficient m of g^(i,j) is 0 unless m = i+j (mod r). By
    induction on m: the constant term sits at (0,0), where i+j = 0. In
    x*g^(i,t)*g^((r-t) mod r, (j-1) mod r) the residues of the factors add
    up to 1 + (i+t) + (r-t) + (j-1) = i+j (mod r), and in
    x^(m+1)*g^(i-m, j-1) to (m+1) + (i-m) + (j-1) = i+j. So degree m only
    updates the pairs in residue class m mod r, and the convolution of g_a
    and g_b only runs over t = ra (mod r), where ra is g_a's residue; each
    one is a single C-level dot product over strided slices.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    terms = scheme_terms(r)
    coeffs = {p: [0] * cutoff for p in terms}
    # per residue class: its pairs, with each quadratic term pointing into
    # the class's list of distinct products (ra, coefficients of a, of b),
    # so a product shared by several pairs is computed once per degree
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
    return _Counts(solve_series(r, r * nmax + 1)[(0, 0)][::r])
