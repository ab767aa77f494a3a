"""Sparse multivariate polynomials with integer coefficients.

Polynomials are immutable. Coefficients are Python ints; every division the
package makes is exact over Z (by the subresultant theorem in the PRS, and
by Gauss's lemma wherever the divisor is primitive). Exponent vectors are
tuples aligned with a fixed tuple of variable names; arithmetic packs them
into ints: a product or an exact division packs its operands, and a
resultant or pseudo-remainder packs its two operands once and runs the
whole subresultant PRS on packed coefficients. Schoolbook algorithms
throughout, at desk scale.
"""

from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd


class NonDivisibleError(ArithmeticError):
    """Exact polynomial division failed: divisor does not divide dividend."""


def primitive_terms(terms):
    """{exponents: int} with the integer content divided out, signed so the
    lex-largest coefficient is positive; `terms` itself when already so."""
    if not terms:
        return terms
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            break
    if terms[max(terms)] < 0:
        g = -g
    if g == 1:
        return terms
    return {e: c // g for e, c in terms.items()}


# ---------------- packed monomials ----------------
#
# Products, exact division and the PRS run on exponent vectors packed into one
# int each (Kronecker substitution): `width` bits per variable, the first
# variable most significant. While no field exceeds its width, adding keys
# adds exponent vectors and integer order on keys is lex order on tuples.
# Each caller sizes `width` to the largest exponent its loop can produce.

def _max_exponent(terms):
    return max(chain.from_iterable(terms), default=0)


def _field_width(top):
    """Bits per field for exponents in 0..top."""
    return max(top.bit_length(), 1)


def _pack(terms, width):
    out = {}
    for e, c in terms.items():
        k = 0
        for a in e:
            k = (k << width) | a
        out[k] = c
    return out


def _unpack_key(k, nv, width):
    mask = (1 << width) - 1
    return tuple([(k >> s) & mask for s in range((nv - 1) * width, -1, -width)])


def _unpack(packed, nv, width):
    """Tuple-keyed terms of a packed term map."""
    return {_unpack_key(k, nv, width): c for k, c in packed.items()}


def _mul_sum(*pairs):
    """The sum of a*b over the pairs (a, b) of packed term maps, zero terms
    dropped."""
    out = {}
    get = out.get
    for a, b in pairs:
        cols = list(b.items())
        for k1, c1 in a.items():
            for k2, c2 in cols:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _power(a, e):
    out = {0: 1}
    for _ in range(e):
        out = _mul_sum((out, a))
    return out


def _neg(a):
    return {k: -c for k, c in a.items()}


class MultivariatePolynomial:
    """A polynomial in named variables, stored as {exponent tuple: coefficient}.

    Zero coefficients are never stored; the zero polynomial has an empty term
    map. Arithmetic requires identical variable tuples.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        clean = {}
        nv = len(variables)
        for exps, c in terms.items():
            if c == 0:
                continue
            if len(exps) != nv:
                raise ValueError(f"exponent vector {exps} does not match variables {variables}")
            clean[tuple(exps)] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultivariatePolynomial is immutable")

    # ---------------- constructors ----------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, c):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        e = [0] * len(variables)
        e[i] = 1
        return cls(variables, {tuple(e): 1})

    # ---------------- basic queries ----------------

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    def degree(self, name):
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = self.variables.index(name)
        return max(e[i] for e in self.terms)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultivariatePolynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # ---------------- ring operations ----------------

    def _check_compatible(self, other):
        if self.variables != other.variables:
            raise ValueError(f"incompatible variable sets {self.variables} vs {other.variables}")

    def __add__(self, other):
        if isinstance(other, int):
            other = MultivariatePolynomial.constant(self.variables, other)
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return MultivariatePolynomial(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return MultivariatePolynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultivariatePolynomial.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MultivariatePolynomial.zero(self.variables)
            return MultivariatePolynomial(
                self.variables, {e: c * other for e, c in self.terms.items()}
            )
        self._check_compatible(other)
        if not self.terms or not other.terms:
            return MultivariatePolynomial.zero(self.variables)
        width = _field_width(_max_exponent(self.terms) + _max_exponent(other.terms))
        out = _mul_sum((_pack(self.terms, width), _pack(other.terms, width)))
        return MultivariatePolynomial(self.variables, _unpack(out, len(self.variables), width))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = MultivariatePolynomial.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # ---------------- structure ----------------

    def coefficient_of(self, name, k):
        """The coefficient of name**k, as a polynomial with that exponent zeroed."""
        i = self.variables.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                ee = list(e)
                ee[i] = 0
                out[tuple(ee)] = c
        return MultivariatePolynomial(self.variables, out)

    def substitute_power(self, name, divisor):
        """Replace name**(k*divisor) by name**k; every exponent must divide.

        Raises NonDivisibleError carrying the offending monomial otherwise.
        """
        i = self.variables.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] % divisor != 0:
                raise NonDivisibleError(
                    f"exponent of {name} in monomial {self._monom_str(e)} "
                    f"is {e[i]}, not divisible by {divisor}"
                )
            ee = list(e)
            ee[i] //= divisor
            out[tuple(ee)] = c
        return MultivariatePolynomial(self.variables, out)

    def restrict_variables(self, variables):
        """Project onto a variable subset; other exponents must all be zero."""
        variables = tuple(variables)
        drop = [i for i, v in enumerate(self.variables) if v not in variables]
        keep = [self.variables.index(v) for v in variables]
        out = {}
        for e, c in self.terms.items():
            if any(e[i] for i in drop):
                raise ValueError(f"monomial {self._monom_str(e)} uses a dropped variable")
            out[tuple(e[i] for i in keep)] = c
        return MultivariatePolynomial(variables, out)

    # ---------------- normalization ----------------

    def primitive(self):
        """Integer-primitive form with positive leading coefficient (lex order)."""
        terms = primitive_terms(self.terms)
        return self if terms is self.terms else MultivariatePolynomial(self.variables, terms)

    def strip_monomial_content(self):
        """Divide out the largest common monomial factor."""
        if not self.terms:
            return self
        mins = None
        for e in self.terms:
            mins = e if mins is None else tuple(map(min, mins, e))
            if not any(mins):
                return self
        return MultivariatePolynomial(
            self.variables,
            {tuple(a - b for a, b in zip(e, mins)): c for e, c in self.terms.items()},
        )

    # ---------------- display / serialization ----------------

    def _monom_str(self, e):
        parts = []
        for v, k in zip(self.variables, e):
            if k == 1:
                parts.append(v)
            elif k > 1:
                parts.append(f"{v}^{k}")
        return "*".join(parts)

    def __str__(self):
        return self.to_text()

    def to_text(self, order=None):
        """The terms in decreasing order(exponents); by default total degree, then lex."""
        if not self.terms:
            return "0"
        order = order or (lambda e: (sum(e), e))
        items = sorted(self.terms.items(), key=lambda t: order(t[0]), reverse=True)
        out = []
        for e, c in items:
            m = self._monom_str(e)
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
        """Canonical JSON form: variables plus sorted (exponents, coeff) terms."""
        return {
            "variables": list(self.variables),
            "terms": [
                {"exponents": list(e), "coeff": str(self.terms[e])} for e in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, data):
        """Inverse of to_json; a coefficient that is not an integer raises ValueError."""
        terms = {tuple(t["exponents"]): int(t["coeff"]) for t in data["terms"]}
        return cls(tuple(data["variables"]), terms)


# ---------------- exact division ----------------

def exact_divide(num, den):
    """Return q with num == den*q over Z, else raise NonDivisibleError."""
    if den.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    num._check_compatible(den)
    if num.is_zero:
        return num
    nv = len(num.variables)
    width = _field_width(max(_max_exponent(num.terms), _max_exponent(den.terms)))
    q = _divide_packed(_pack(num.terms, width), _pack(den.terms, width), nv, width)
    return MultivariatePolynomial(num.variables, _unpack(q, nv, width))


def _field_degrees(packed, nv, width):
    """The largest exponent in each field over the keys of a packed term map."""
    return [max(col) for col in zip(*[_unpack_key(k, nv, width) for k in packed])]


def _divide_packed(num, den, nv, width):
    """q with num == den*q for packed term maps, else NonDivisibleError.

    Long division cancelling leading terms under lex order; a heap yields
    the remainder's leading term (Monagan and Pearce). An exact quotient has
    degree deg_v(num) - deg_v(den) in each field v, so a quotient term
    outside 0..that bound proves non-divisibility. The check also keeps
    every remainder exponent within 0..deg_v(num), so fields that hold num's
    exponents never carry.
    """
    if not num:
        return {}
    divisor = dict(den)
    lead_d = max(divisor)
    cd = divisor.pop(lead_d)
    tail = list(divisor.items())
    low = _unpack_key(lead_d, nv, width)  # a remainder lead in low..high divides
    high = [lo + a - b for lo, a, b in
            zip(low, _field_degrees(num, nv, width), _field_degrees(den, nv, width))]
    if not all(lo <= hi for lo, hi in zip(low, high)):
        raise NonDivisibleError("divisor has higher degree than dividend")
    rem = dict(num)
    heap = [-k for k in rem]
    heapify(heap)
    q = {}
    while heap:
        lead = -heappop(heap)
        c = rem.pop(lead)
        if not c:
            continue
        if not all(lo <= x <= hi for lo, x, hi in zip(low, _unpack_key(lead, nv, width), high)):
            raise NonDivisibleError("leading term not divisible")
        e = lead - lead_d
        c, r = divmod(c, cd)
        if r:
            raise NonDivisibleError("leading coefficient not divisible")
        q[e] = c
        for ed, cdd in tail:
            k = e + ed
            if k in rem:
                rem[k] -= c * cdd
            else:
                rem[k] = -c * cdd
                heappush(heap, -k)
    return q


# ---------------- univariate views ----------------

def _views(f, g, name):
    """f and g, deg f >= deg g >= 0, as coefficient lists in `name` of packed
    term maps over the other variables that occur in either; also the keys'
    (fields, width) and the inverse view. With m = deg f, n = deg g, and
    D = n*deg_v f + m*deg_v g for each other variable v, the fields hold
    (n+1)*D and deg_v f + (m-n+1)*deg_v g: `pseudo_rem` and
    `_subresultant_prs` prove that none of their exponents exceed these."""
    variables = f.variables
    i = variables.index(name)
    f_deg = [max(col) for col in zip(*f.terms)]
    g_deg = [max(col) for col in zip(*g.terms)]
    m, n = f_deg[i], g_deg[i]
    others = [j for j in range(len(variables)) if j != i and (f_deg[j] or g_deg[j])]
    width = _field_width(max(
        (max((n + 1) * (n * f_deg[j] + m * g_deg[j]), f_deg[j] + (m - n + 1) * g_deg[j])
         for j in others), default=0))

    def view(p, d):
        out = [{} for _ in range(d + 1)]
        for e, c in p.terms.items():
            k = 0
            for j in others:
                k = (k << width) | e[j]
            out[e[i]][k] = c
        return out

    def unview(coeffs):
        out = {}
        for d, c in enumerate(coeffs):
            for k, cc in c.items():
                e = [0] * len(variables)
                e[i] = d
                for j, a in zip(others, _unpack_key(k, len(others), width)):
                    e[j] = a
                out[tuple(e)] = cc
        return MultivariatePolynomial(variables, out)

    return view(f, m), view(g, n), (len(others), width), unview


def pseudo_rem(f, g, name):
    """The pseudo-remainder of f by g in `name`, without the quotient.

    lc(g)**d * f == q*g + r with deg_name(r) < deg_name(g), where
    d = deg f - deg g + 1; f itself when d <= 0. Runs `_prem`, the PRS step,
    on f and g packed once. A step replaces R by lc*R - t*x^(k-n)*g, t the
    top coefficient of R, so after s steps, and in each product on the way,
    deg_v of any other variable v is at most deg_v f + s*deg_v g; with the
    last power of lc, deg_v f + d*deg_v g.
    """
    f._check_compatible(g)
    if g.is_zero:
        raise ZeroDivisionError("pseudo-division by zero")
    if f.degree(name) < g.degree(name):
        return f
    F, G, _, unview = _views(f, g, name)
    return unview(_prem(F, G))


def _prem(f, g):
    """The pseudo-remainder of view f by view g, deg f >= deg g, trimmed."""
    n = len(g) - 1
    lc = g[-1]
    R = list(f)
    owed = len(f) - n  # powers of lc still owed: deg f - deg g + 1
    while True:
        while R and not R[-1]:
            R.pop()
        k = len(R) - 1
        if k < n:
            break
        # the x^k coefficient of lc*R - t*x^(k-n)*g is lc*t - t*lc = 0
        t = _neg(R.pop())
        for j in range(k - n):
            R[j] = _mul_sum((lc, R[j]))
        for j, gc in enumerate(g[:-1], k - n):
            R[j] = _mul_sum((lc, R[j]), (t, gc))
        owed -= 1
    if owed:
        scale = _power(lc, owed)
        R = [_mul_sum((scale, c)) for c in R]
    return R


# ---------------- resultant (subresultant PRS) ----------------

def resultant(p, q, name):
    """Sylvester resultant of p and q with respect to `name`, exact.

    Subresultant PRS (Brown's algorithm) on operands packed once; raises
    ValueError when both inputs are degenerate (degree <= 0 in `name`).
    """
    p._check_compatible(q)
    n = p.degree(name)
    m = q.degree(name)
    if n <= 0 and m <= 0:
        raise ValueError(f"both operands degenerate in {name}")
    if p.is_zero or q.is_zero:
        return MultivariatePolynomial.zero(p.variables)
    sign = 1
    if n < m:
        p, q = q, p
        if n % 2 and m % 2:
            sign = -1
    f, g, fields, unview = _views(p, q, name)
    last, s = _subresultant_prs(f, g, fields)
    if len(last) > 1:
        return MultivariatePolynomial.zero(p.variables)
    return unview([s]) * sign


def _subresultant_prs(f, g, fields):
    """Brown's subresultant PRS of the views f and g, deg f >= deg g >= 0.

    Returns the last member and its subresultant coefficient s: a member
    free of the view's variable, whose s is res(f, g), or the member before
    a zero remainder, gcd(f, g) up to content.

    No field carries. Let m = deg f, n = deg g and, for another variable v,
    D = n*deg_v f + m*deg_v g. Every member's coefficients and every s are
    minors of the Sylvester matrix (n rows of f, m rows of g), of deg_v at
    most D. The first pseudo-remainder stays within
    deg_v f + (m-n+1)*deg_v g <= D (`pseudo_rem`; it runs only if n >= 1)
    and bb is +-1. A later one has deg f <= n and deg g >= 1, so
    d = deg f - deg g <= n - 1 and it stays within D + (d+1)*D <= (n+1)*D.
    With the next d <= n, bb = -lc*c^d stays within (n+1)*D, (-lc)^d within
    n*D, and partial powers within the power. An exact division keeps its
    remainder within the dividend (`_divide_packed`).
    """
    nv, width = fields
    m = len(g) - 1
    d = len(f) - 1 - m
    bb = {0: (-1) ** (d + 1)}
    lc = g[-1]
    c = _neg(_power(lc, d))
    while m > 0:
        h = [_divide_packed(r, bb, nv, width) for r in _prem(f, g)]
        if not h:
            break
        k = len(h) - 1
        f, g, d, m = g, h, m - k, k
        bb = _neg(_mul_sum((lc, _power(c, d))))
        lc = g[-1]
        c = (_divide_packed(_power(_neg(lc), d), _power(c, d - 1), nv, width)
             if d > 1 else _neg(lc))
    return g, _neg(c)
