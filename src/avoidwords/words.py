"""Words over {1,...,n}, length-3 pattern containment, and avoider counting.

Two routes to the same counts live here: the symmetric multiset recurrence,
and a depth-first search over multiset arrangements that descends only into
prefixes that can still avoid the pattern, one search for each class of
length-3 patterns under reversal and complement, {123, 321} and
{132, 231, 213, 312}. The involution that exchanges 123- and 132-avoidance
is the combinatorial heart of the equality between the two classes' counts.
"""

from functools import partial
from io import BytesIO
from itertools import repeat

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

    The pattern is any sequence of 1, 2, 3. Linear scans for 123/132/231:
    123 keeps two running minima, and 132 and 231 share one stack scan,
    since a word avoids 231 iff it is stack-sortable (Knuth, TAOCP vol. 1,
    2.2.1) and 132 is 231 read backwards. A word contains 321, 312 or 213
    iff its complement c -> max + 1 - c, which reverses the order of the
    letters, contains 123, 132 or 231.
    """
    pattern = tuple(pattern)
    if type(word) is not tuple:
        word = tuple(word)
    scan = _SCANS.get(pattern)
    if scan:
        return scan(word)
    return _contains_complemented(word, pattern)


def _contains_123(word):
    m1 = _INF  # smallest letter so far
    m2 = _INF  # smallest letter with a strictly smaller letter before it
    for c in word:
        if c <= m1:
            m1 = c
        elif c <= m2:
            m2 = c
        else:
            return True
    return False


def _contains_132(word):
    # read right to left, a 1-3-2 is a 2-3-1: the stack holds the letters
    # with no larger letter after them yet, and low, the largest letter
    # popped, is the largest with one; a later letter below low completes it
    low = -_INF
    stack = []
    for c in reversed(word):
        if c < low:
            return True
        while stack and stack[-1] < c:
            low = stack.pop()
        stack.append(c)
    return False


def _contains_231(word):
    return _contains_132(word[::-1])


_SCANS = {P123: _contains_123, P132: _contains_132, P231: _contains_231}
_COMPLEMENTS = {P321: P123, P312: P132, P213: P231}


def _contains_complemented(word, pattern):
    scan = _SCANS.get(_COMPLEMENTS.get(pattern))
    if scan is None:
        raise ValueError(f"not a length-3 pattern: {pattern}")
    top = max(word, default=0) + 1
    return scan(tuple([top - c for c in word]))


def count_avoiders_bruteforce(multiplicities, pattern, cap=DEFAULT_BRUTE_CAP):
    """Exact number of arrangements of the multiset avoiding the pattern.

    Depth-first search over arrangements; each leaf is one avoiding word.
    For 123 and 231 the search visits only prefixes that extend to an
    avoider:

    * 123: with m2 the smallest letter that has a smaller letter before it,
      a prefix is live iff every letter still to place is <= m2. m2 never
      increases, so a remaining letter above it completes a 123; if none is
      above it, the remaining letters in decreasing order avoid 123.
    * 231: with b the largest letter that has a larger letter after it, a
      prefix is live iff every letter still to place is >= b. b never
      decreases, so a remaining letter below it completes a 231; if none is
      below it, the remaining letters in increasing order avoid 231.

    Reversal maps the arrangements of a multiset one-to-one onto themselves
    and 132-avoiders onto 231-avoiders, so 132 takes the 231 search.
    Complement (i -> n + 1 - i) maps the arrangements of (a_1, ..., a_n)
    one-to-one onto those of (a_n, ..., a_1) and avoiders of 321, 213, 312
    onto avoiders of 123, 231, 132, so those three take the search of their
    image on the reversed vector. Total length is capped (default 12), which
    bounds the avoiders enumerated.
    """
    multiplicities = list(multiplicities)
    if any(a < 0 for a in multiplicities):
        raise ValueError("multiplicities must be nonnegative")
    total = sum(multiplicities)
    if total > cap:
        raise BruteForceCapError(f"total length {total} exceeds cap {cap}")
    pattern = tuple(pattern)
    if pattern in _COMPLEMENTS:
        multiplicities.reverse()
        pattern = _COMPLEMENTS[pattern]
    if pattern == P123:
        return _count_123_avoiders(multiplicities, total)
    if pattern == P231 or pattern == P132:
        return _count_231_avoiders(multiplicities, total)
    raise ValueError(f"not a length-3 pattern: {pattern}")


def _count_123_avoiders(multiplicities, total):
    counts = [1] + multiplicities  # counts[0] stops the scan for the top letter
    letters = [c for c in range(1, len(counts)) if counts[c]]

    # m1: smallest letter placed; m2: as in the docstring; hi: largest
    # letter left, never above m2. Between m1 and m2 only hi keeps every
    # remaining letter <= the new m2.
    def rec(m1, m2, hi, remaining):
        if remaining <= 1:  # a live prefix one letter short has one completion
            return 1
        total = 0
        for c in letters:
            if c > hi:
                break
            k = counts[c]
            if not k or m1 < c < m2 and c < hi:
                continue
            counts[c] = k - 1
            h = hi
            while not counts[h]:
                h -= 1
            total += rec(min(c, m1), c if m1 < c < m2 else m2, h, remaining - 1)
            counts[c] = k
        return total

    return rec(_INF, _INF, letters[-1] if letters else 0, total)


def _count_231_avoiders(multiplicities, total):
    full = [0] + multiplicities
    counts = full + [1]  # the last entry stops the scan for the bottom letter
    letters = range(1, len(full))

    # b: as in the docstring; lo: smallest letter left, never below b. Placing
    # c makes the largest placed letter below c (or b) the new b, so the
    # walk stops once a placed letter above lo has gone by.
    def rec(b, lo, remaining):
        if remaining <= 1:  # a live prefix one letter short has one completion
            return 1
        total = 0
        top = b
        for c in letters:
            k = counts[c]
            if k:
                counts[c] = k - 1
                low = lo
                while not counts[low]:
                    low += 1
                total += rec(top, low, remaining - 1)
                counts[c] = k
            if k < full[c] and c > top:
                top = c
                if top > lo:
                    break
        return total

    lo = next((c for c in letters if counts[c]), len(full))
    return rec(0, lo, total)


# ---------------- the avoidance involution ----------------

def avoidance_involution(word):
    """The recursive length- and multiset-preserving involution on words.

    It maps 123-avoiding words to 132-avoiding ones and back: write i for the
    first letter; behead the word and clip letters above i+1 down to i+1;
    recurse on that; then re-insert the deleted letters (those > i) in
    reverse order at the clipped positions, and put i back in front.

    Here the recursion is one pass per strict left-to-right minimum
    m_0 > m_1 > ... at positions d_0 < d_1 < ..., innermost first: the
    positions after d_j whose current letter exceeds m_j take the original
    letters above m_j after d_j, in reverse order. This equals the
    recursion. Any other head equals the running minimum m or is clipped to
    m+1, so its level only permutes equal letters. By induction from the
    innermost level, the recursion's output from d_j on is this pass's,
    clipped to m_(j-1) + 1: level j's clipped positions are exactly those
    whose current letter exceeds m_j, and a letter that clipping lowers
    exceeds m_(j-1), so level j-1 overwrites it. Nothing clips m_0's level.

    Two kinds of level change nothing, and the pass skips them:

    * One whose own segment, the letters strictly between d_j and d_(j+1)
      (or the end of the word), has no letter above m_j. After level j+1,
      done or skipped, the letters above m_(j+1) after d_(j+1) stand in
      reverse original order, so those above m_j do too. The inner levels
      write nothing up to d_(j+1), and with none in the segment these are
      all the letters above m_j after d_j, so re-inserting them writes
      each back where it is. The innermost level's segment is the rest of
      the word, so it has nothing to re-insert.
    * One with at most one letter above m_j after d_j. The levels inside it
      only permute the letters after d_j, so exactly that letter, if any,
      exceeds m_j there now, and it is written back onto itself.
    """
    if type(word) is not tuple:
        word = tuple(word)
    out = list(word)
    end = len(word)
    while end:
        m = min(word[:end])
        d = word.index(m)
        if d + 1 < end and max(word[d + 1:end]) > m:
            above = [c for c in word[d + 1:] if c > m]
            if len(above) > 1:
                nxt = reversed(above).__next__
                out[d + 1:] = [nxt() if c > m else c for c in out[d + 1:]]
        end = d
    return tuple(out)


# ---------------- the multiset recurrence ----------------

_FIELD_MAX = 0xFFFF  # a packed key has 16 bits per field


def check_recurrence_length(size):
    """ValueError when words of total length `size` are too long for the
    recurrence's keys, whose fields are at most the total length."""
    if size > _FIELD_MAX:
        raise ValueError(
            f"total length {size} overflows the 16-bit key field of the recurrence (max {_FIELD_MAX})"
        )


def count_avoiders_recurrence(multiplicities):
    """Number of 123-avoiding arrangements via the symmetric recurrence.

    A(a_1,...,a_n) = sum_i A(a_1,...,a_{i-1}, a_i - 1, a_{i+1}+...+a_n), with
    A() = 1; components that hit zero are dropped. `recurrence_counts` gives
    the method; for several vectors it shares their states in one pass.
    """
    return recurrence_counts([multiplicities])[0]


def recurrence_counts(vectors):
    """[A(v) for v in vectors], A the symmetric multiset recurrence.

    Each child of a state lists one letter less than the state, so the
    states fall into levels by total length. A top-down sweep collects the
    states that each level reaches from the vectors, each level's keys
    packed into one bytes object; a bottom-up sweep then decodes one level
    at a time, computes its values from the level below and frees that
    level's keys and the values below. So the pass holds every level's keys
    at a few bytes a state, and two levels of values. Nothing outlives the
    call. `vectors` is any iterable, read once; each vector is packed into
    its key as it is read, and every one is checked before any state is
    visited.

    A is symmetric in its arguments, so a vector is taken in ascending order
    and a state lists its runs of equal entries as (v1, n1, v2, n2, ...):
    value v_k occurs n_k times, v1 < v2 < .... Its key is that list packed
    into one int, 16 bits per field, first field most significant; the empty
    list is 0. Every field is at least 1 and at most the total length, which
    is refused above 2^16 - 1, so the packing is one-to-one.

    The n children of one run (value v, n copies, S the sum of the entries
    after it, H the entries before it plus one v - 1) are
    H + v^j + {T - jv} for j < n, with T = S + (n-1)v. They depend on H and
    T alone (v is one more than H's last value), and their sum is U_(n-1) on
    the chain U_0 = A(H + {T}), U_j = U_(j-1) + A(H + v^j + {T - jv}). Each
    level keeps a table of its chains, keyed by H's fields and then T packed
    the same way, that records how far each chain has been extended: the
    top-down sweep adds each chain's children once, and the bottom-up sweep
    holds the chain as the list [U_0, U_1, ...] and sums it once for all the
    parents that share it.
    """
    packed = [_packed(v) for v in vectors]
    wanted = {}  # total length -> the keys asked for
    for size, key in packed:
        wanted.setdefault(size, set()).add(key)
    levels = _reachable(wanted)
    found = {0: 1}
    below = {0: 1}  # the values of the level below
    for size in range(1, len(levels)):
        keys = _unpacked(*levels[size])
        levels[size] = None  # `keys` frees the bytes once it is used up
        values = {}
        chains = {}
        for key in keys:
            # the runs are walked from the last to the first: `pre` packs the
            # runs before the current one, so a head is `pre` with its last
            # count raised or with (v - 1, 1) appended. Every child key stays
            # in run form without sorting: head's values are below v and a
            # lump top is 0, v or above v
            total = 0
            s = 0  # the sum of the entries after the current run
            n = key & 0xFFFF
            v = key >> 16 & 0xFFFF
            pre = key >> 32
            while True:
                u = pre >> 16 & 0xFFFF  # the value of the run before; 0 for none
                if v == 1:  # the first run; v - 1 is dropped
                    head = 0
                elif u == v - 1:
                    head = pre + 1
                else:
                    head = (pre << 16 | v - 1) << 16 | 1
                if n == 1:
                    total += below[(head << 16 | s) << 16 | 1 if s else head]
                else:
                    lump = s + (n - 1) * v  # T, the lump top of child_0
                    ckey = head << 16 | lump
                    chain = chains.get(ckey)
                    if chain is None:
                        chain = chains[ckey] = [below[ckey << 16 | 1]]
                    if len(chain) < n:
                        hv = (head << 16 | v) << 16  # head + (v, 0)
                        for j in range(len(chain), n):  # child_j keeps j copies of v
                            top = lump - j * v
                            if top == v:
                                child = hv | j + 1
                            elif top:
                                child = ((hv | j) << 16 | top) << 16 | 1
                            else:
                                child = hv | j
                            chain.append(chain[-1] + below[child])
                    total += chain[n - 1]
                if not pre:
                    break
                s += v * n
                n = pre & 0xFFFF
                v = u
                pre >>= 32
            values[key] = total
        below = values
        for key in wanted.get(size, ()):
            found[key] = values[key]
    return [found[key] for _, key in packed]


def _packed(multiplicities):
    """(total length, packed key) of one vector; ValueError if it has a
    negative entry or is too long for a key field."""
    multiplicities = list(multiplicities)
    if any(a < 0 for a in multiplicities):
        raise ValueError("multiplicities must be nonnegative")
    entries = sorted(a for a in multiplicities if a > 0)
    size = sum(entries)
    check_recurrence_length(size)
    runs = []
    for a in entries:
        if runs and runs[-2] == a:
            runs[-1] += 1
        else:
            runs += (a, 1)
    key = 0
    for field in runs:
        key = key << 16 | field
    return size, key


def _reachable(wanted):
    """The keys each level reaches from `wanted` (total length -> keys), as
    one (width, keys) pair per total length; the walk is the bottom-up
    sweep's. `keys` is one bytes object of the level's keys, `width` bytes
    each, big-endian, with `width` the byte length of the level's largest
    key: zero bytes in front leave a key's value alone, since its first field
    is the most significant. A state costs `width` bytes, at most 11 in the
    sequences (r,) * n up to r = 10, where an int in a list costs 50 to 60."""
    top = max(wanted, default=0)
    levels = [(1, b"\0")] * (top + 1)  # level 0 is the empty state
    level = set()
    for size in range(top, 0, -1):
        level.update(wanted.get(size, ()))
        below = set()
        add = below.add
        chains = {}  # chain key -> the children added
        for key in level:
            s = 0
            n = key & 0xFFFF
            v = key >> 16 & 0xFFFF
            pre = key >> 32
            while True:
                u = pre >> 16 & 0xFFFF
                if v == 1:
                    head = 0
                elif u == v - 1:
                    head = pre + 1
                else:
                    head = (pre << 16 | v - 1) << 16 | 1
                if n == 1:
                    add((head << 16 | s) << 16 | 1 if s else head)
                else:
                    lump = s + (n - 1) * v
                    ckey = head << 16 | lump
                    done = chains.get(ckey, 0)
                    if done < n:
                        if not done:
                            add(ckey << 16 | 1)
                            done = 1
                        chains[ckey] = n
                        hv = (head << 16 | v) << 16
                        for j in range(done, n):
                            top = lump - j * v
                            if top == v:
                                add(hv | j + 1)
                            elif top:
                                add(((hv | j) << 16 | top) << 16 | 1)
                            else:
                                add(hv | j)
                if not pre:
                    break
                s += v * n
                n = pre & 0xFFFF
                v = u
                pre >>= 32
        width = (max(level).bit_length() + 7) // 8
        keys = bytearray()
        for key in level:
            keys += key.to_bytes(width, "big")
        levels[size] = width, bytes(keys)
        level = below
    return levels


def _unpacked(width, keys):
    """An iterator over the keys of one level that `_reachable` packed."""
    return map(int.from_bytes, iter(partial(BytesIO(keys).read, width), b""), repeat("big"))
