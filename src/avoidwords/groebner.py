"""Buchberger's algorithm with an elimination block order, over the integers.

Polynomials are plain dicts {exponent tuple: int} kept in the form of
`polynomials.primitive_terms`; reductions are fraction-free. Pair bookkeeping
uses the Gebauer-Moeller criteria and the sugar selection strategy -- the
schemes this runs on are small systems of quadratics, but the elimination
orders make pair management the difference between seconds and hours.
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


def _leading(p, key):
    e = max(p, key=key)
    return e, p[e]


def _divides_exp(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm_exp(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _coprime_exp(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


class _Entry:
    __slots__ = ("poly", "lead", "lc", "key", "sugar", "redundant")

    def __init__(self, poly, key_fn, sugar):
        self.poly = poly
        self.lead, self.lc = _leading(poly, key_fn)
        self.key = key_fn(self.lead)
        self.sugar = sugar
        self.redundant = False


def normal_form(p, entries, key_fn, sugar=None):
    """Fully reduce p against the live basis entries; fraction-free.

    Returns (reduced dict, sugar). The reduced polynomial is primitive.
    Integer content is stripped every few steps: fraction-free reduction
    otherwise snowballs coefficient sizes through the leading coefficients of
    the reducers.
    """
    p = dict(p)
    done = set()
    reducers = [g for g in entries if g.poly and not g.redundant]
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
        for g in reducers:
            if _divides_exp(g.lead, cand):
                size = (g.lc.bit_length(), len(g.poly))
                if hit is None or size < hit_size:
                    hit, hit_size = g, size
        if hit is None:
            done.add(cand)
            continue
        c = p[cand]
        d = gcd(hit.lc, c)
        a = hit.lc // d
        b = c // d
        if a != 1:
            for e in p:
                p[e] = p[e] * a
        shift = tuple(x - y for x, y in zip(cand, hit.lead))
        for e2, c2 in hit.poly.items():
            e3 = tuple(x + y for x, y in zip(e2, shift))
            v = p.get(e3, 0) - b * c2
            if v:
                p[e3] = v
            else:
                p.pop(e3, None)
        if sugar is not None:
            sugar = max(sugar, hit.sugar + sum(shift))
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
    return primitive_terms(p), sugar


def _spoly(f, g, key_fn):
    l = _lcm_exp(f.lead, g.lead)
    d = gcd(f.lc, g.lc)
    cf = g.lc // d
    cg = f.lc // d
    sf = tuple(x - y for x, y in zip(l, f.lead))
    sg = tuple(x - y for x, y in zip(l, g.lead))
    out = {}
    for e, c in f.poly.items():
        ee = tuple(x + y for x, y in zip(e, sf))
        out[ee] = out.get(ee, 0) + cf * c
    for e, c in g.poly.items():
        ee = tuple(x + y for x, y in zip(e, sg))
        v = out.get(ee, 0) - cg * c
        if v:
            out[ee] = v
        else:
            out.pop(ee, None)
    sugar = max(f.sugar + sum(sf), g.sugar + sum(sg))
    return out, sugar


class _Pair:
    __slots__ = ("i", "j", "lcm", "sugar", "degree")

    def __init__(self, entries, i, j):
        self.i = i
        self.j = j
        self.lcm = _lcm_exp(entries[i].lead, entries[j].lead)
        si = entries[i].sugar + sum(x - y for x, y in zip(self.lcm, entries[i].lead))
        sj = entries[j].sugar + sum(x - y for x, y in zip(self.lcm, entries[j].lead))
        self.sugar = max(si, sj)
        self.degree = sum(self.lcm)


def _update_pairs(entries, pairs, t):
    """Gebauer-Moeller update after entries[t] was appended."""
    h = entries[t]
    # candidate new pairs, pruned by the M/F/B criteria
    cand = []
    for i, g in enumerate(entries[:t]):
        if g.redundant:
            continue
        cand.append(_Pair(entries, i, t))
    kept = []
    for p in cand:
        l = p.lcm
        strictly_smaller = False
        for q in cand:
            if q is p:
                continue
            if _divides_exp(q.lcm, l) and q.lcm != l:
                strictly_smaller = True
                break
        if strictly_smaller:
            continue
        kept.append(p)
    # F criterion: among equal lcms keep one, preferring a coprime pair (dropped entirely)
    by_lcm = {}
    for p in kept:
        by_lcm.setdefault(p.lcm, []).append(p)
    new_pairs = []
    for l, group in by_lcm.items():
        coprime = any(
            _coprime_exp(entries[p.i].lead, entries[p.j].lead) for p in group
        )
        if coprime:
            continue  # B criterion: S-polynomial reduces to zero
        new_pairs.append(group[0])
    # chain criterion on the old pairs
    survivors = []
    for p in pairs:
        gi, gj = entries[p.i], entries[p.j]
        if not _divides_exp(h.lead, p.lcm):
            survivors.append(p)
            continue
        if _lcm_exp(gi.lead, h.lead) == p.lcm or _lcm_exp(gj.lead, h.lead) == p.lcm:
            survivors.append(p)
            continue
        # lcm(i,j) strictly contains lm(h): pair (i,j) is redundant
    survivors.extend(new_pairs)
    # redundancy of older basis elements
    for g in entries[:t]:
        if not g.redundant and _divides_exp(h.lead, g.lead):
            g.redundant = True
    return survivors


def groebner_basis(generators, key_fn):
    """Reduced Groebner basis of the generators under the given order key.

    Input and output polynomials are {exponent tuple: int} dicts.
    """
    entries = []
    pairs = []
    for p in generators:
        p = primitive_terms(p)
        if not p:
            continue
        p, _ = normal_form(p, entries, key_fn, 0)
        if not p:
            continue
        entries.append(_Entry(p, key_fn, max(sum(e) for e in p)))
        pairs = _update_pairs(entries, pairs, len(entries) - 1)
    while pairs:
        best = min(range(len(pairs)), key=lambda k: (pairs[k].sugar, key_fn(pairs[k].lcm)))
        pair = pairs.pop(best)
        f, g = entries[pair.i], entries[pair.j]
        s, sugar = _spoly(f, g, key_fn)
        if not s:
            continue
        h, sugar = normal_form(s, entries, key_fn, sugar)
        if not h:
            continue
        entries.append(_Entry(h, key_fn, sugar))
        pairs = _update_pairs(entries, pairs, len(entries) - 1)
    return _reduce_basis(entries, key_fn)


def _reduce_basis(entries, key_fn):
    """Interreduce: minimal leads, fully tail-reduced, canonical order."""
    live = [g for g in entries if not g.redundant]
    # minimality: drop any element whose lead is divisible by another's lead
    minimal = []
    for g in live:
        if any(
            h is not g and _divides_exp(h.lead, g.lead) for h in live
        ):
            continue
        minimal.append(g)
    changed = True
    while changed:
        changed = False
        for idx, g in enumerate(minimal):
            others = [h for h in minimal if h is not g]
            reduced, _ = normal_form(g.poly, others, key_fn, 0)
            if reduced != g.poly:
                changed = True
                if not reduced:
                    minimal.pop(idx)
                else:
                    minimal[idx] = _Entry(reduced, key_fn, g.sugar)
                break
    minimal.sort(key=lambda g: g.key)
    return [g.poly for g in minimal]
