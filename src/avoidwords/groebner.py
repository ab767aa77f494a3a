"""Buchberger's algorithm with an elimination block order, over the integers.

Polynomials are plain dicts {exponent tuple: int} kept in the form of
`polynomials.primitive_terms`; reductions are fraction-free. The pair loop is
the textbook one: smallest lcm first, with Buchberger's two criteria. A
reduced basis under a fixed order is unique, and each element is primitive
with a positive lex-largest coefficient, so no pair order changes the result.
The schemes finish in milliseconds at r <= 2; r = 3 outlasts a 20 s budget,
as it did with the Gebauer-Moeller criteria and sugar selection.
"""

from math import gcd

from .polynomials import primitive_terms


def block_elimination_key(nvars, elim_positions, kept_positions):
    """Monomial order key: graded-reverse-lex on the eliminated block, ranked
    above lex on the kept block. Any monomial containing an eliminated
    variable outranks every kept-only monomial, which is what makes the
    basis intersection generate the elimination ideal."""
    elim = tuple(elim_positions)
    relim = tuple(reversed(elim))
    kept = tuple(kept_positions)
    memo = {}

    def key(e):
        k = memo.get(e)
        if k is None:
            k = (
                sum(e[i] for i in elim),
                tuple(-e[i] for i in relim),
                tuple(e[i] for i in kept),
            )
            memo[e] = k
        return k

    return key


def _divides_exp(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm_exp(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _entry(poly, key_fn):
    """A basis entry (poly, lead, lc) for a nonzero polynomial."""
    lead = max(poly, key=key_fn)
    return poly, lead, poly[lead]


def normal_form(p, basis, key_fn):
    """Fully reduce p against the basis entries; fraction-free.

    Returns the reduced dict, made primitive. Integer content is stripped
    every few steps: fraction-free reduction otherwise snowballs coefficient
    sizes through the leading coefficients of the reducers.
    """
    p = dict(p)
    done = set()
    steps = 0
    while True:
        cand = None
        ck = None
        for e in p:
            if e in done:
                continue
            k = key_fn(e)
            if ck is None or k > ck:
                cand, ck = e, k
        if cand is None:
            break
        hit = None
        hit_size = None
        for g in basis:
            if _divides_exp(g[1], cand):
                size = (g[2].bit_length(), len(g[0]))
                if hit is None or size < hit_size:
                    hit, hit_size = g, size
        if hit is None:
            done.add(cand)
            continue
        poly, lead, lc = hit
        c = p[cand]
        d = gcd(lc, c)
        a = lc // d
        b = c // d
        if a != 1:
            for e in p:
                p[e] = p[e] * a
        shift = tuple(x - y for x, y in zip(cand, lead))
        for e2, c2 in poly.items():
            e3 = tuple(x + y for x, y in zip(e2, shift))
            v = p.get(e3, 0) - b * c2
            if v:
                p[e3] = v
            else:
                p.pop(e3, None)
        steps += 1
        if steps % 8 == 0 and p:
            g0 = 0
            for v in p.values():
                g0 = gcd(g0, v)
                if g0 == 1:
                    break
            if g0 > 1:
                for e in p:
                    p[e] //= g0
    return primitive_terms(p)


def _spoly(f, g, lcm):
    d = gcd(f[2], g[2])
    out = {}
    for (poly, lead, _), c in ((f, g[2] // d), (g, -(f[2] // d))):
        shift = tuple(x - y for x, y in zip(lcm, lead))
        for e, v in poly.items():
            e = tuple(x + y for x, y in zip(e, shift))
            v = out.get(e, 0) + c * v
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def groebner_basis(generators, key_fn):
    """Reduced Groebner basis of the generators ({exponent tuple: int} dicts)
    under the given order key, sorted by leading monomial, smallest first."""
    basis = [_entry(p, key_fn) for p in map(primitive_terms, generators) if p]
    pairs = {(i, j): _lcm_exp(basis[i][1], basis[j][1]) for j in range(len(basis)) for i in range(j)}
    while pairs:
        (i, j), lcm = min(pairs.items(), key=lambda item: key_fn(item[1]))
        del pairs[i, j]
        f, g = basis[i], basis[j]
        if all(x == 0 or y == 0 for x, y in zip(f[1], g[1])):
            continue  # coprime leads: the S-polynomial reduces to zero
        if any(
            k != i and k != j and _divides_exp(h[1], lcm)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k, h in enumerate(basis)
        ):
            continue  # chain criterion
        h = normal_form(_spoly(f, g, lcm), basis, key_fn)
        if h:
            h = _entry(h, key_fn)
            pairs.update(((k, len(basis)), _lcm_exp(e[1], h[1])) for k, e in enumerate(basis))
            basis.append(h)
    # minimal, by increasing lead: a kept lead divides every dropped one's;
    # tail reduction keeps the leads, so the order stays sorted
    minimal = []
    for g in sorted(basis, key=lambda g: key_fn(g[1])):
        if not any(_divides_exp(h[1], g[1]) for h in minimal):
            minimal.append(g)
    for k, g in enumerate(minimal):
        minimal[k] = _entry(normal_form(g[0], minimal[:k] + minimal[k + 1:], key_fn), key_fn)
    return [g[0] for g in minimal]
