"""Full enumeration: the oracle for ``count_avoiders_bruteforce``.

Every arrangement of the multiset, in lexicographic order, each tested with
``contains_pattern``; tests compare its counts with the pruned searches.
"""

from avoidwords.words import contains_pattern


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
    """Count avoiders by full enumeration with ``contains_pattern``.

    Independent (slow) oracle for the pruned searches of
    ``count_avoiders_bruteforce``; no cap, caller beware.
    """
    pattern = tuple(pattern)
    return sum(
        1 for w in multiset_permutations(multiplicities) if not contains_pattern(w, pattern)
    )
