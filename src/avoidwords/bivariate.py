"""Bivariate polynomials P(x, F) with exact integer coefficients.

These carry the algebraic equations satisfied by the counting generating
functions. Canonical form is integer-primitive with positive leading
coefficient, where the leading term is the largest under (deg_F, deg_x)
lexicographic order.
"""

from fractions import Fraction
from math import gcd


class BivariatePolynomial:
    """Sparse polynomial in (x, F): {(x_exp, F_exp): int coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for (a, b), c in terms.items():
            if c:
                clean[(int(a), int(b))] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePolynomial is immutable")

    @classmethod
    def zero(cls):
        return cls({})

    # ---------------- queries ----------------

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    def deg_x(self):
        return max((a for a, _ in self.terms), default=-1)

    def deg_f(self):
        return max((b for _, b in self.terms), default=-1)

    def leading_key(self):
        """Largest (F_exp, x_exp) pair; None for zero."""
        if not self.terms:
            return None
        return max((b, a) for a, b in self.terms)

    def leading_coefficient(self):
        b, a = self.leading_key()
        return self.terms[(a, b)]

    def __eq__(self, other):
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # ---------------- arithmetic ----------------

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return BivariatePolynomial(out)

    def __neg__(self):
        return BivariatePolynomial({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return BivariatePolynomial({e: c * other for e, c in self.terms.items()})
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                e = (a1 + a2, b1 + b2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return BivariatePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = BivariatePolynomial({(0, 0): 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # ---------------- canonical form ----------------

    def content(self):
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    def canonical(self):
        """Integer-primitive with positive leading coefficient."""
        if not self.terms:
            return self
        g = self.content()
        if self.leading_coefficient() < 0:
            g = -g
        return BivariatePolynomial({e: c // g for e, c in self.terms.items()})

    def is_canonical(self):
        return self.is_zero or (self.content() == 1 and self.leading_coefficient() > 0)

    # ---------------- exact division ----------------

    def divide_exact(self, den):
        """Quotient q with self == den*q, or None when not divisible.

        Division runs over the rationals and the quotient is returned with
        exact (possibly fractional) coefficients cleared to integers only if
        they are integers; a fractional quotient still counts as divisible.
        """
        if den.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        rem = {e: Fraction(c) for e, c in self.terms.items()}
        bq, aq = den.leading_key()
        cd = den.terms[(aq, bq)]
        q = {}
        while rem:
            b, a = max((bb, aa) for aa, bb in rem)
            if b < bq or a < aq:
                return None
            e = (a - aq, b - bq)
            c = rem[(a, b)] / cd
            q[e] = c
            for (ad, bd), cdd in den.terms.items():
                ee = (e[0] + ad, e[1] + bd)
                s = rem.get(ee, 0) - c * cdd
                if s:
                    rem[ee] = s
                elif ee in rem:
                    del rem[ee]
        out = {}
        for e, c in q.items():
            out[e] = int(c) if c.denominator == 1 else c
        return BivariatePolynomial(out)

    # ---------------- display / serialization ----------------

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: (t[0][1], t[0][0]), reverse=True)
        out = []
        for (a, b), c in items:
            parts = []
            if a == 1:
                parts.append("x")
            elif a > 1:
                parts.append(f"x^{a}")
            if b == 1:
                parts.append("F")
            elif b > 1:
                parts.append(f"F^{b}")
            m = "*".join(parts)
            if not m:
                s = str(c)
            elif c == 1:
                s = m
            elif c == -1:
                s = f"-{m}"
            else:
                s = f"{c}*{m}"
            if out and not s.startswith("-"):
                out.append("+ " + s)
            elif out:
                out.append("- " + s[1:])
            else:
                out.append(s)
        return " ".join(out)

    __repr__ = __str__

    def to_json(self):
        return {
            "variables": ["x", "F"],
            "terms": [
                {"exponents": list(e), "coeff": str(self.terms[e])} for e in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, data):
        return cls({tuple(t["exponents"]): int(t["coeff"]) for t in data["terms"]})
