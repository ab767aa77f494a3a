"""Sparse multivariate polynomials with integer coefficients.

Polynomials are immutable. Coefficients are Python ints; every division the
package makes is exact over Z (by the subresultant theorem in the PRS, and
by Gauss's lemma wherever the divisor is primitive). Exponent vectors are
tuples aligned with a fixed tuple of variable names; multiplication and
exact division pack them into ints internally. Includes exact division,
content/primitive normalization, pseudo-division, subresultant-PRS
resultants and gcds -- everything the elimination machinery needs, at desk
scale (schoolbook algorithms throughout).
"""

import random as _random
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
# Multiplication and exact division run on exponent vectors packed into one
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
    """Tuple-keyed terms of a packed term map, zero coefficients dropped."""
    return {_unpack_key(k, nv, width): c for k, c in packed.items() if c}


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

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

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
        rows = _pack(self.terms, width).items()
        cols = list(_pack(other.terms, width).items())
        out = {}
        get = out.get
        for k1, c1 in rows:
            for k2, c2 in cols:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
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

    def derivative(self, name):
        i = self.variables.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ee = list(e)
            ee[i] -= 1
            ee = tuple(ee)
            out[ee] = out.get(ee, 0) + c * e[i]
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

def exact_divide(num, den, check=None):
    """Return q with num == den*q over Z, else raise NonDivisibleError.

    Long division cancelling leading terms under lex order, on packed
    monomials; a heap yields the remainder's leading term. An exact quotient
    has degree deg_v(num) - deg_v(den) in each variable v, so a quotient term
    above that bound proves non-divisibility. The check also keeps every
    remainder exponent within 0..deg_v(num), so packed fields never carry.
    `check`, when given, is called after every quotient term.
    """
    if den.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    num._check_compatible(den)
    variables = num.variables
    if num.is_zero:
        return num
    nv = len(variables)
    num_deg = [max(col) for col in zip(*num.terms)]
    q_deg = [a - max(col) for a, col in zip(num_deg, zip(*den.terms))]
    if min(q_deg, default=0) < 0:
        raise NonDivisibleError("divisor has higher degree than dividend")
    width = _field_width(max(num_deg, default=0))
    divisor = _pack(den.terms, width)
    lead_d = max(divisor)
    cd = divisor.pop(lead_d)
    tail = list(divisor.items())
    # a remainder's leading exponents, field by field, that give a quotient
    # exponent in 0..q_deg
    low = _unpack_key(lead_d, nv, width)
    high = [lo + d for lo, d in zip(low, q_deg)]
    rem = _pack(num.terms, width)
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
        if check is not None:
            check()
    return MultivariatePolynomial(variables, _unpack(q, nv, width))


# ---------------- univariate views ----------------

def _univ(p, name):
    """Coefficient list [c_0, ..., c_d] of p viewed in `name`; [] for zero."""
    d = p.degree(name)
    if d < 0:
        return []
    return [p.coefficient_of(name, k) for k in range(d + 1)]


def _univ_trim(coeffs):
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    return coeffs


def _univ_to_poly(coeffs, name, variables):
    """Inverse of _univ: the coefficients' monomials are disjoint once shifted."""
    i = variables.index(name)
    out = {}
    for k, c in enumerate(coeffs):
        for e, cc in c.terms.items():
            ee = list(e)
            ee[i] += k
            out[tuple(ee)] = cc
    return MultivariatePolynomial(variables, out)


def pseudo_rem(f, g, name, check=None):
    """The pseudo-remainder of f by g in `name`, without the quotient.

    lc(g)**d * f == q*g + r with deg_name(r) < deg_name(g), where
    d = deg f - deg g + 1; f itself when d <= 0. `check`, when given, is
    called after every product of coefficient polynomials.
    """
    check = check or (lambda: None)
    f._check_compatible(g)
    R = _univ(f, name)
    G = _univ(g, name)
    if not G:
        raise ZeroDivisionError("pseudo-division by zero")
    n = len(G) - 1
    lc = G.pop()
    m = len(R) - 1
    if m < n:
        return f
    steps = 0
    while True:
        _univ_trim(R)
        k = len(R) - 1
        if k < n:
            break
        # R <- lc*R - t*x^(k-n)*G; the x^k coefficient lc*t - t*lc is 0
        t = R.pop()
        for j, c in enumerate(R):
            R[j] = lc * c
            check()
        for j, gc in enumerate(G, k - n):
            R[j] = R[j] - t * gc
            check()
        steps += 1
    scale = lc ** (m - n + 1 - steps)
    for j, c in enumerate(R):
        R[j] = c * scale
        check()
    return _univ_to_poly(R, name, f.variables)


# ---------------- resultant (subresultant PRS) ----------------

def resultant(p, q, name, check=None):
    """Sylvester resultant of p and q with respect to `name`, exact.

    Subresultant PRS (Brown's algorithm); raises ValueError when both inputs
    are degenerate (degree <= 0 in `name`). `check`, when given, is called
    inside every pseudo-remainder and exact division, so it can abort a long
    resultant.
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
    for last, s in _subresultant_prs(p, q, name, check):
        pass
    if last.degree(name) > 0:
        return MultivariatePolynomial.zero(p.variables)
    return s * sign


def _subresultant_prs(f, g, name, check=None):
    """Brown's subresultant PRS of f and g in `name`, deg f >= deg g >= 0.

    Yields (member, s) for g and then for every nonzero pseudo-remainder,
    s being the member's subresultant coefficient. The sequence ends after a
    member free of `name`, whose s is res(f, g), or at a zero remainder,
    when the last member is gcd(f, g) up to content. `check` is passed to
    every pseudo-remainder and exact division.
    """
    m = g.degree(name)
    d = f.degree(name) - m
    bb = MultivariatePolynomial.constant(f.variables, (-1) ** (d + 1))
    lc = g.coefficient_of(name, m)
    c = -(lc**d)
    while True:
        yield g, -c
        if m == 0:
            return
        h = exact_divide(pseudo_rem(f, g, name, check), bb, check)
        if h.is_zero:
            return
        k = h.degree(name)
        f, g, d, m = g, h, m - k, k
        bb = -lc * (c**d)
        lc = g.coefficient_of(name, m)
        c = exact_divide((-lc) ** d, c ** (d - 1), check) if d > 1 else -lc


# ---------------- gcd and square-free part ----------------

def polynomial_gcd(p, q, check=None):
    """gcd over the integers, returned primitive with positive lead.

    A random-evaluation screen settles the common trivial case in one
    univariate gcd; a genuinely nontrivial gcd falls through to Brown's
    subresultant remainder sequence. `check`, when given, is passed to every
    pseudo-remainder and exact division.
    """
    if p.is_zero:
        return q.primitive()
    if q.is_zero:
        return p.primitive()
    p._check_compatible(q)
    if p.is_constant() or q.is_constant():
        return MultivariatePolynomial.constant(p.variables, 1)
    common = [v for v in p.variables if p.degree(v) > 0 and q.degree(v) > 0]
    if not common:
        return MultivariatePolynomial.constant(p.variables, 1)
    name = max(common, key=lambda v: min(p.degree(v), q.degree(v)))
    cp, pp = _content_primitive(p, name, check)
    cq, pq = _content_primitive(q, name, check)
    cont = polynomial_gcd(cp, cq, check)
    d = _screened_gcd_degree(pp, pq, name)
    if d == 0:
        return cont.primitive()
    if pp.degree(name) < pq.degree(name):
        pp, pq = pq, pp
    for g, _ in _subresultant_prs(pp, pq, name, check):
        pass
    if g.degree(name) == 0:
        return cont.primitive()  # gcd is trivial in `name`
    g = _content_primitive(g, name, check)[1]
    return (cont * g).primitive()


SCREEN_TRIALS = 2  # nontrivial univariate gcds before the screen gives up
SCREEN_PRIME = 2**61 - 1


def _screened_gcd_degree(p, q, name):
    """Upper-bound check on deg_name(gcd) by specializing the other variables.

    Returns 0 as soon as one specialization mod SCREEN_PRIME (preserving both
    leading coefficients) has a trivial univariate gcd; otherwise returns a
    positive number (possibly an overestimate -- callers only rely on the 0
    case).
    """
    rng = _random.Random(0x5eed)
    others = [v for v in p.variables if v != name]
    best = None
    trials = SCREEN_TRIALS
    attempts = 0
    while trials > 0 and attempts < 12:
        attempts += 1
        point = {v: rng.choice([-7, -5, -4, -3, -2, 2, 3, 4, 5, 7, 8, 11]) for v in others}
        a = _eval_univariate(p, name, point)
        b = _eval_univariate(q, name, point)
        # the trimmed lists lose their top entry when a leading coefficient
        # vanishes mod SCREEN_PRIME; otherwise the image gcd has at least
        # the true gcd's degree
        if len(a) <= p.degree(name) or len(b) <= q.degree(name):
            continue
        d = _mod_gcd_degree(a, b)
        best = d if best is None else min(best, d)
        if best == 0:
            return 0
        trials -= 1
    return best if best is not None else max(p.degree(name), q.degree(name))


def _eval_univariate(p, name, point):
    """Coefficient list mod SCREEN_PRIME of p with every variable but `name`
    specialized, trimmed of vanishing top entries."""
    i = p.variables.index(name)
    others = [(j, point[v]) for j, v in enumerate(p.variables) if j != i]
    out = {}
    for e, c in p.terms.items():
        for j, v in others:
            if e[j]:
                c = c * pow(v, e[j], SCREEN_PRIME) % SCREEN_PRIME
        out[e[i]] = (out.get(e[i], 0) + c) % SCREEN_PRIME
    coeffs = [out.get(k, 0) for k in range(max(out, default=-1) + 1)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _mod_gcd_degree(a, b):
    """Degree of the gcd over GF(SCREEN_PRIME) of two trimmed coefficient lists."""
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, SCREEN_PRIME)
        while len(a) >= len(b):
            f = a.pop() * inv % SCREEN_PRIME
            shift = len(a) - len(b) + 1
            for k, c in enumerate(b[:-1], shift):
                a[k] = (a[k] - f * c) % SCREEN_PRIME
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _content_primitive(p, name, check=None):
    """(content, primitive part) of p viewed in `name`."""
    coeffs = _univ(p, name)
    cont = MultivariatePolynomial.zero(p.variables)
    for c in coeffs:
        cont = polynomial_gcd(cont, c, check)
        if cont.is_constant() and not cont.is_zero:
            cont = MultivariatePolynomial.constant(p.variables, 1)
            break
    if cont.is_zero:
        return cont, p
    if cont.is_constant():
        return MultivariatePolynomial.constant(p.variables, 1), p.primitive()
    return cont, exact_divide(p, cont, check).primitive()


def squarefree_part(p, name, check=None):
    """p with repeated factors (in `name`) removed, integer-primitive.

    `check` is passed on to polynomial_gcd and exact_divide.
    """
    if p.degree(name) <= 0:
        return p.primitive() if not p.is_zero else p
    g = polynomial_gcd(p, p.derivative(name), check)
    if g.is_constant():
        return p.primitive()
    return exact_divide(p, g, check).primitive()
