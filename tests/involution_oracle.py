"""One re-insertion pass per letter: the oracle for ``avoidance_involution``.

This is the unrolled recursion with a level for every letter of the word,
each level clipping the letters after it. The package function makes one
pass per strict left-to-right minimum, innermost first, and clips nothing;
tests compare the two.
"""


def involution_every_level(word):
    """The avoidance involution, re-inserting at every level of the recursion."""
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
