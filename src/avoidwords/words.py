"""Words over {1,...,n}, length-3 pattern containment, and avoider counting.

Three routes to the same counts live here: a depth-first search over multiset
arrangements that prunes as soon as the partial word contains the pattern, a
plain lexicographic full enumeration used as a cross-check oracle, and the
symmetric multiset recurrence. The involution that exchanges 123- and
132-avoidance is the combinatorial heart of the equality between the counts.
"""

P123 = (1, 2, 3)
P132 = (1, 3, 2)
P213 = (2, 1, 3)
P231 = (2, 3, 1)
P312 = (3, 1, 2)
P321 = (3, 2, 1)

DEFAULT_BRUTE_CAP = 12

_INF = float("inf")


class BruteForceCapError(ValueError):
    """Total word length exceeds the configured brute-force cap."""


def contains_pattern(word, pattern):
    """True iff some subsequence of distinct letters is order-isomorphic to the pattern.

    Fast linear scans for 123/132/231; any other length-3 pattern falls back
    to checking all index triples.
    """
    word = tuple(word)
    if pattern == P123:
        return _contains_123(word)
    if pattern == P132:
        return _contains_132(word)
    if pattern == P231:
        return _contains_231(word)
    if len(pattern) != 3 or sorted(pattern) != [1, 2, 3]:
        raise ValueError(f"not a length-3 pattern: {pattern}")
    n = len(word)
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            for k in range(j + 1, n):
                if _order_isomorphic((word[i], word[j], word[k]), pattern):
                    return True
    return False


def _order_isomorphic(triple, pattern):
    a, b, c = triple
    if a == b or a == c or b == c:
        return False
    ranks = sorted(triple)
    return tuple(ranks.index(v) + 1 for v in triple) == pattern


def _contains_123(word):
    m1 = _INF  # smallest letter so far
    m2 = _INF  # smallest letter with a strictly smaller letter before it
    for c in word:
        if c > m2:
            return True
        if m1 < c < m2:
            m2 = c
        if c < m1:
            m1 = c
    return False


def _contains_132(word):
    # c completes 1-3-2 iff some earlier v > c had prefix-min < c at its time
    m1 = _INF
    best = {}  # letter v -> min prefix-min over earlier occurrences of v
    for c in word:
        for v, mv in best.items():
            if v > c and mv < c:
                return True
        if m1 < best.get(c, _INF):
            best[c] = m1
        if c < m1:
            m1 = c
    return False


def _contains_231(word):
    # c completes 2-3-1 iff c < u for some earlier u followed by a larger letter
    best = 0  # largest letter seen that has a strictly larger letter after it
    seen = set()
    for c in word:
        if c < best:
            return True
        for u in seen:
            if best < u < c:
                best = u
        seen.add(c)
    return False


# ---------------- multiset enumeration ----------------

def multiset_permutations(multiplicities):
    """All distinct arrangements, in lexicographic order (successor stepping)."""
    word = []
    for letter, count in enumerate(multiplicities, start=1):
        word.extend([letter] * count)
    if not word:
        yield ()
        return
    word.sort()
    n = len(word)
    while True:
        yield tuple(word)
        i = n - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = reversed(word[i + 1:])


def count_avoiders_enumeration(multiplicities, pattern):
    """Count avoiders by full enumeration with the generic containment test.

    Independent (slow) oracle for the pruned search below; no cap, caller
    beware.
    """
    return sum(
        1 for w in multiset_permutations(multiplicities) if not contains_pattern(w, pattern)
    )


# Incremental containment states for the pruned search. Each push returns
# the data pop needs to restore, or None when appending the letter would
# complete the pattern (so the whole subtree is pruned).

def _push123(c, state):
    m1, m2 = state[0], state[1]
    if c > m2:
        return None
    if m1 < c < m2:
        state[1] = c
    if c < m1:
        state[0] = c
    return (m1, m2)


def _pop123(c, saved, state):
    state[0], state[1] = saved


def _push132(c, state):
    m1, best = state
    for v in range(c + 1, len(best)):
        if best[v] < c:
            return None
    saved = (m1[0], best[c])
    if m1[0] < best[c]:
        best[c] = m1[0]
    if c < m1[0]:
        m1[0] = c
    return saved


def _pop132(c, saved, state):
    m1, best = state
    m1[0], best[c] = saved


def _push231(c, state):
    b, seen = state
    if c < b[0]:
        return None
    saved = (b[0], seen[c])
    for u in range(b[0] + 1, c):
        if seen[u]:
            b[0] = u
    seen[c] = True
    return saved


def _pop231(c, saved, state):
    b, seen = state
    b[0], seen[c] = saved


def count_avoiders_bruteforce(multiplicities, pattern, cap=DEFAULT_BRUTE_CAP):
    """Exact number of arrangements of the multiset avoiding the pattern.

    Depth-first search over arrangements in lexicographic order; a branch is
    cut as soon as the partial word already contains the pattern, since
    containment is monotone under extension. Total length is capped
    (default 12) because the avoider tree still grows fast.
    """
    multiplicities = list(multiplicities)
    if any(a < 0 for a in multiplicities):
        raise ValueError("multiplicities must be nonnegative")
    total = sum(multiplicities)
    if total > cap:
        raise BruteForceCapError(f"total length {total} exceeds cap {cap}")
    nletters = len(multiplicities)
    if pattern == P123:
        push, pop, state = _push123, _pop123, [_INF, _INF]
    elif pattern == P132:
        push, pop, state = _push132, _pop132, ([_INF], [_INF] * (nletters + 1))
    elif pattern == P231:
        push, pop, state = _push231, _pop231, ([0], [False] * (nletters + 1))
    else:
        return count_avoiders_enumeration(multiplicities, pattern)
    return _count_avoiders_dfs(multiplicities, push, pop, state)


def _count_avoiders_dfs(multiplicities, push, pop, state):
    counts = list(multiplicities)
    letters = [i + 1 for i, a in enumerate(counts) if a > 0]

    def rec(remaining):
        if remaining == 0:
            return 1
        total = 0
        for letter in letters:
            if counts[letter - 1] == 0:
                continue
            saved = push(letter, state)
            if saved is None:
                continue
            counts[letter - 1] -= 1
            total += rec(remaining - 1)
            counts[letter - 1] += 1
            pop(letter, saved, state)
        return total

    return rec(sum(counts))


# ---------------- the avoidance involution ----------------

def avoidance_involution(word):
    """The recursive length- and multiset-preserving involution on words.

    It maps 123-avoiding words to 132-avoiding ones and back: write i for the
    first letter; behead the word and clip letters above i+1 down to i+1;
    recurse on that; then re-insert the deleted letters (those > i) in
    reverse order at the clipped positions, and put i back in front.

    The recursion is unrolled. Clipping only ever lowers letters to a bound
    (one more than the smallest head so far), so one descent records each
    level's head and deleted letters; one unwind then re-inserts them,
    innermost level first, on an output kept in reverse.
    """
    word = tuple(word)
    levels = []
    bound = max(word, default=0) + 1
    for d, c in enumerate(word):
        if c >= bound:
            levels.append((bound, None))  # clipped head: nothing above it
        else:
            levels.append((c, [w if w < bound else bound for w in word[d + 1:] if w > c]))
            bound = c + 1
    out = []
    for i, deleted in reversed(levels):
        if deleted:
            top = i + 1
            # read backwards, the clipped positions take the deleted letters
            # in their original order
            nxt = iter(deleted).__next__
            out = [nxt() if c == top else c for c in out]
        out.append(i)
    out.reverse()
    return tuple(out)


# ---------------- the multiset recurrence ----------------

_A_MEMO = {}


def count_avoiders_recurrence(multiplicities):
    """Number of 123-avoiding arrangements via the symmetric recurrence.

    A(a_1,...,a_n) = sum_i A(a_1,...,a_{i-1}, a_i - 1, a_{i+1}+...+a_n), with
    A() = 1; components that hit zero are dropped. The value is symmetric in
    its arguments, so memoization keys are sorted vectors with zeros removed.

    The memo table is a plain dict with idempotent inserts, so concurrent
    CPython threads are safe under the GIL; the intended contract is still
    one call tree per thread.
    """
    key = tuple(sorted(a for a in multiplicities if a > 0))
    if any(a < 0 for a in multiplicities):
        raise ValueError("multiplicities must be nonnegative")
    return _A_recurse(key)


def _A_recurse(key):
    if not key:
        return 1
    hit = _A_MEMO.get(key)
    if hit is not None:
        return hit
    # key is sorted, so each child key is sorted without sorting: the suffix
    # sum s is at least every letter kept and goes last, and v - 1 goes at
    # the start of the run of v; zeros are dropped
    total = 0
    s = sum(key)
    run = 0
    for i, v in enumerate(key):
        s -= v
        if v != key[run]:
            run = i
        lowered = (v - 1,) if v > 1 else ()
        total += _A_recurse(key[:run] + lowered + key[run:i] + ((s,) if s else ()))
    _A_MEMO[key] = total
    return total
