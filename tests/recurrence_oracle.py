"""Sorted-vector memo keys: the oracle for ``count_avoiders_recurrence``.

This is the multiset recurrence with one memo entry per sorted vector and
one lookup per child. The package function keys its memo by runs of equal
multiplicities and reads the sum of each run's children off a chain of
running sums that a per-call table keeps; tests compare the two.
"""

import sys

# stack frames left to the callers of the multiset recurrence
_RECURSION_HEADROOM = 200

_A_MEMO = {}


def recurrence_sorted_keys(multiplicities):
    """Number of 123-avoiding arrangements via the symmetric recurrence.

    A(a_1,...,a_n) = sum_i A(a_1,...,a_{i-1}, a_i - 1, a_{i+1}+...+a_n), with
    A() = 1; components that hit zero are dropped. The value is symmetric in
    its arguments, so memoization keys are sorted vectors with zeros removed.
    """
    multiplicities = list(multiplicities)
    if any(a < 0 for a in multiplicities):
        raise ValueError("multiplicities must be nonnegative")
    key = tuple(sorted(a for a in multiplicities if a > 0))
    deepest = sys.getrecursionlimit() - _RECURSION_HEADROOM
    if sum(key) > deepest:  # the recursion goes one level deeper per letter
        raise ValueError(f"total length {sum(key)} is too deep for the recurrence (max {deepest})")
    return _A_MEMO.get(key) or _A_recurse(key)


def _A_recurse(key):
    if not key:
        return 1
    # key is sorted and not in the memo. Each child key is sorted without
    # sorting: v - 1 goes at the start of the run of v, the suffix sum s is at
    # least every letter kept and goes last; zeros are dropped. Every value
    # is >= 1, so `or` calls the recursion only on a memo miss
    total = 0
    s = sum(key)
    for i, v in enumerate(key):
        s -= v
        if not i or v != key[i - 1]:
            run = i
            head = key[:i] + (v - 1,) if v > 1 else key[:i]
        child = head + key[run:i]
        if s:
            child += (s,)
        total += _A_MEMO.get(child) or _A_recurse(child)
    _A_MEMO[key] = total
    return total
