"""Truncated power series with exact coefficients.

A series carries its cutoff N and coefficients c_0..c_{N-1}; arithmetic never
reads or writes past the cutoff, and binary operations truncate to the
smaller cutoff of the operands. Coefficients are exact (int or Fraction).
"""

from fractions import Fraction


class TruncatedSeries:
    __slots__ = ("cutoff", "coeffs")

    def __init__(self, coeffs, cutoff=None):
        coeffs = list(coeffs)
        if cutoff is None:
            cutoff = len(coeffs)
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if len(coeffs) > cutoff:
            coeffs = coeffs[:cutoff]
        else:
            coeffs = coeffs + [0] * (cutoff - len(coeffs))
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def zero(cls, cutoff):
        return cls([], cutoff)

    @classmethod
    def one(cls, cutoff):
        return cls([1], cutoff)

    @classmethod
    def x(cls, cutoff):
        return cls([0, 1], cutoff)

    def __getitem__(self, n):
        if not 0 <= n < self.cutoff:
            raise IndexError(f"coefficient index {n} outside cutoff {self.cutoff}")
        return self.coeffs[n]

    def __len__(self):
        return self.cutoff

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.cutoff, other.cutoff)
        return self.coeffs[:n] == other.coeffs[:n] and self.cutoff == other.cutoff

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            out = self.coeffs[:]
            out[0] = out[0] + other
            return TruncatedSeries(out, self.cutoff)
        n = min(self.cutoff, other.cutoff)
        return TruncatedSeries([a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])], n)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.cutoff)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self.coeffs], self.cutoff)
        n = min(self.cutoff, other.cutoff)
        a, b = self.coeffs, other.coeffs
        out = [0] * n
        for i in range(n):
            ai = a[i]
            if ai:
                for j in range(n - i):
                    bj = b[j]
                    if bj:
                        out[i + j] += ai * bj
        return TruncatedSeries(out, n)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = TruncatedSeries.one(self.cutoff)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, k):
        """Multiply by x**k (coefficients past the cutoff are dropped)."""
        if k == 0:
            return self
        if k >= self.cutoff:
            return TruncatedSeries.zero(self.cutoff)
        return TruncatedSeries([0] * k + self.coeffs[: self.cutoff - k], self.cutoff)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(x^{self.cutoff})"

    __repr__ = __str__

    def to_json(self):
        def s(c):
            f = Fraction(c)
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

        return {"cutoff": self.cutoff, "coefficients": [s(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data):
        coeffs = [Fraction(s) if "/" in s else int(s) for s in data["coefficients"]]
        return cls(coeffs, data["cutoff"])


def evaluate_bivariate(poly, f):
    """P(x, f(x)) as a TruncatedSeries at f's cutoff, computed exactly.

    `poly` is a MultivariatePolynomial over ("x", "F").
    """
    n = f.cutoff
    powers = [TruncatedSeries.one(n)]
    for _ in range(poly.degree("F")):
        powers.append(powers[-1] * f)
    acc = [0] * n
    for (a, b), c in poly.terms.items():
        pb = powers[b].coeffs
        for i in range(n - a):
            v = pb[i]
            if v:
                acc[i + a] += c * v
    return TruncatedSeries(acc, n)


def evaluate_polynomial_on_series(poly, assignment):
    """Substitute TruncatedSeries for every variable of a MultivariatePolynomial.

    `assignment` maps each variable name to a series; all series must share a
    cutoff. Slow generic path, meant for residual checks at small cutoffs.
    """
    cutoffs = {s.cutoff for s in assignment.values()}
    if len(cutoffs) != 1:
        raise ValueError("all series must share one cutoff")
    n = cutoffs.pop()
    acc = TruncatedSeries.zero(n)
    for exps, c in poly.terms.items():
        term = TruncatedSeries.one(n) * c
        for name, e in zip(poly.variables, exps):
            if e:
                term = term * (assignment[name] ** e)
        acc = acc + term
    return acc
