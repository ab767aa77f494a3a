import itertools
import random
import re
import sys
import threading
import tracemalloc
from math import comb

import pytest
from enumeration_oracle import count_avoiders_enumeration, multiset_permutations
from hypothesis import example, given, settings, strategies as st
from involution_oracle import involution_every_level
from recurrence_oracle import recurrence_sorted_keys

from avoidwords import words
from avoidwords.words import (
    P123,
    P132,
    P213,
    P231,
    P312,
    P321,
    BruteForceCapError,
    avoidance_involution,
    contains_pattern,
    count_avoiders_bruteforce,
    count_avoiders_recurrence,
)

# the three with linear scans first, so the parametrized ids of the
# original three patterns stay pattern0..pattern2
PATTERNS = (P123, P132, P231, P213, P312, P321)


# -------- containment --------

def test_pattern_is_its_own_witness():
    assert contains_pattern([1, 2, 3], P123)


def test_two_distinct_letters_cannot_contain():
    assert not contains_pattern([2, 2, 1], P123)


def test_hand_checked_containment():
    assert contains_pattern([1, 3, 2, 4], P123)  # subsequence (1,3,4)


def test_contains_all_six_patterns_generic():
    w = [3, 1, 4, 2, 5]
    for p in (P123, P132, P213, P231, P312, P321):
        assert contains_pattern(w, p) == _naive_contains(w, p)


def _naive_contains(word, pattern):
    for i, j, k in itertools.combinations(range(len(word)), 3):
        a, b, c = word[i], word[j], word[k]
        if len({a, b, c}) < 3:
            continue
        ranks = sorted((a, b, c))
        if tuple(ranks.index(v) + 1 for v in (a, b, c)) == pattern:
            return True
    return False


@settings(max_examples=150)
@given(st.lists(st.integers(-3, 5), max_size=8))
@example([-1, -2])  # too short for a 132; a sentinel of 0 reported one
@example([0, -1])  # the same, with a letter at the old sentinel
@example([-2, -1])  # too short for a 231
def test_fast_scans_agree_with_naive(word):
    for p in PATTERNS:
        assert contains_pattern(word, p) == _naive_contains(word, p)


def test_stack_scans_agree_with_naive_on_every_short_word():
    for n in range(8):
        for word in itertools.product(range(1, 5), repeat=n):
            for p in (P132, P231):
                assert contains_pattern(word, p) == _naive_contains(word, p), (word, p)


def test_a_pattern_given_as_a_list_answers_as_its_tuple():
    patterns = (P123, P132, P213, P231, P312, P321)
    for n in range(7):
        for word in itertools.product(range(1, 5), repeat=n):
            for p in patterns:
                assert contains_pattern(word, list(p)) == contains_pattern(word, p), (word, p)
    for vector in ((1, 1, 1), (2, 2, 1)):
        for p in patterns:
            expected = count_avoiders_bruteforce(vector, p)
            assert count_avoiders_bruteforce(vector, list(p)) == expected, (vector, p)
            assert count_avoiders_enumeration(vector, list(p)) == expected, (vector, p)
    assert count_avoiders_bruteforce((1, 1, 1), [1, 2, 3]) == 5


# -------- brute-force counting --------

def test_catalan_c3():
    assert count_avoiders_bruteforce((1, 1, 1), P123) == 5


def test_two_letters_all_avoid():
    assert count_avoiders_bruteforce((2, 2), P123) == 6


def test_222_is_43():
    assert count_avoiders_bruteforce((2, 2, 2), P123) == 43


def test_cap_enforced():
    with pytest.raises(BruteForceCapError):
        count_avoiders_bruteforce((7, 7), P123)
    assert count_avoiders_bruteforce((7, 7), P123, cap=14) == 3432  # C(14,7)


def test_multiset_permutations_lexicographic_and_complete():
    words = list(multiset_permutations((2, 1)))
    assert words == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert len(list(multiset_permutations((1, 1, 1, 1)))) == 24


@pytest.mark.parametrize(
    "vector",
    [(1, 1, 1), (2, 2), (2, 1, 1), (2, 2, 1), (3, 2, 1), (0, 2, 1), (2, 0, 1, 1), (1, 3, 0, 2)],
)
@pytest.mark.parametrize("pattern", PATTERNS)
def test_pruned_search_equals_full_enumeration(vector, pattern):
    assert count_avoiders_bruteforce(vector, pattern) == count_avoiders_enumeration(
        vector, pattern
    )


def test_pruned_search_equals_full_enumeration_on_every_small_vector():
    # zeros and unsorted vectors included
    for n in range(6):
        for vector in itertools.product(range(4), repeat=n):
            if sum(vector) > 8:
                continue
            for pattern in (P123, P132, P231):
                assert count_avoiders_bruteforce(vector, pattern) == (
                    count_avoiders_enumeration(vector, pattern)
                ), (vector, pattern)


def test_generic_pattern_falls_back():
    assert count_avoiders_bruteforce((1, 1, 1), P321) == 5


@pytest.mark.parametrize("pattern", [(1, 2, 2), (1, 2, 3, 4), (0, 1, 2)])
def test_not_a_length_3_pattern_is_rejected(pattern):
    with pytest.raises(ValueError, match="not a length-3 pattern"):
        contains_pattern((1, 2, 3), pattern)
    with pytest.raises(ValueError, match="not a length-3 pattern"):
        count_avoiders_bruteforce((1, 1, 1), pattern)


# -------- the involution --------

def test_involution_fixes_empty():
    assert avoidance_involution(()) == ()


def test_involution_hand_examples():
    assert avoidance_involution((2, 2, 1)) == (2, 2, 1)
    assert avoidance_involution((1, 3, 2)) == (1, 2, 3)


def test_involution_equals_every_level_oracle():
    # every word in {1..5}^<=6, then longer words over sparse large alphabets,
    # where clipping lowers letters by more than one
    for length in range(7):
        for word in itertools.product(range(1, 6), repeat=length):
            assert avoidance_involution(word) == involution_every_level(word)
    rng = random.Random(11)
    for _ in range(2000):
        letters = rng.sample(range(1, 1001), rng.randint(1, 9))
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 30)))
        assert avoidance_involution(word) == involution_every_level(word)


@settings(max_examples=250)
@given(st.lists(st.integers(1, 4), max_size=9))
def test_involution_properties(word):
    w = tuple(word)
    fw = avoidance_involution(w)
    assert sorted(fw) == sorted(w)  # multiset preserved
    assert avoidance_involution(fw) == w  # involution
    assert contains_pattern(w, P123) == contains_pattern(fw, P132)
    assert contains_pattern(w, P132) == contains_pattern(fw, P123)


# -------- the multiset recurrence --------

def test_recurrence_base_values():
    assert count_avoiders_recurrence(()) == 1
    assert count_avoiders_recurrence((1, 1)) == 2
    assert count_avoiders_recurrence((1, 1, 1)) == 5
    assert count_avoiders_recurrence((2, 2, 2)) == 43


def test_recurrence_validates_an_iterator_before_consuming_it():
    with pytest.raises(ValueError, match="nonnegative"):
        count_avoiders_recurrence(iter([2, -1]))


def test_recurrence_symmetric():
    rng = random.Random(7)
    for _ in range(10):
        vec = [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
        shuffled = vec[:]
        rng.shuffle(shuffled)
        assert count_avoiders_recurrence(vec) == count_avoiders_recurrence(shuffled)


def test_recurrence_agrees_with_bruteforce_small():
    vectors = [
        v
        for n in range(1, 4)
        for v in itertools.product(range(4), repeat=n)
        if 0 < sum(v) <= 7
    ]
    for v in vectors:
        assert count_avoiders_recurrence(v) == count_avoiders_bruteforce(v, P123)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=6).filter(lambda v: sum(v) <= 10))
def test_recurrence_agrees_with_bruteforce_random(vector):
    assert count_avoiders_recurrence(vector) == count_avoiders_bruteforce(vector, P123)


def test_equinumeracy_spot_checks():
    for v in [(2, 2, 2), (3, 2, 1), (2, 2, 1, 1)]:
        c123 = count_avoiders_bruteforce(v, P123)
        assert count_avoiders_bruteforce(v, P132) == c123
        assert count_avoiders_bruteforce(v, P231) == c123


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=7))
@example([])
@example([0, 0, 5, 0])  # zeros
@example([4, 4, 4, 4, 4, 4, 4])  # one run
@example([2, 5, 2, 5, 5, 1, 2])  # repeats in several runs
@example([0, 1, 2, 3, 4, 5, 6])  # all distinct
def test_recurrence_equals_sorted_key_oracle(vector):
    assert count_avoiders_recurrence(vector) == recurrence_sorted_keys(vector)


# r=3 and r=5 at the nmax of the oracle benchmark's recurrence jobs; r=1, 2
# and 4 at an nmax of similar cost
@pytest.mark.parametrize("r, nmax", [(1, 60), (2, 40), (3, 36), (4, 26), (5, 22)])
def test_recurrence_sequences_equal_sorted_key_oracle(r, nmax):
    vectors = [(r,) * n for n in range(nmax + 1)]
    assert [count_avoiders_recurrence(v) for v in vectors] == [
        recurrence_sorted_keys(v) for v in vectors
    ]


def test_recurrence_reaches_the_stated_depth(monkeypatch):
    # a cold memo makes the recursion go one level deeper per letter
    monkeypatch.setattr(words, "_A_MEMO", {})
    with pytest.raises(ValueError, match="too deep") as info:
        count_avoiders_recurrence((10**6,))
    deepest = int(re.search(r"\(max (\d+)\)", str(info.value)).group(1))
    half = deepest // 2
    assert count_avoiders_recurrence((deepest,)) == 1
    assert count_avoiders_recurrence((half, deepest - half)) == comb(deepest, half)
    for vector in ((deepest + 1,), (half, deepest + 1 - half)):
        with pytest.raises(ValueError, match=f"total length {deepest + 1} .*max {deepest}"):
            count_avoiders_recurrence(vector)


def test_recurrence_refuses_totals_beyond_a_packed_field(monkeypatch):
    # a memo key field holds at most 2^16 - 1, and a lump holds up to the
    # total length, whatever the recursion limit allows
    monkeypatch.setattr(words, "_A_MEMO", {})
    monkeypatch.setattr(sys, "getrecursionlimit", lambda: 10**6)
    with pytest.raises(ValueError, match=r"^total length 70000 .*\(max 65535\)$") as info:
        count_avoiders_recurrence((35_000, 35_000))
    assert "\n" not in str(info.value)
    assert "memo key field" in str(info.value) and "deep" not in str(info.value)


def test_recurrence_memory_budget(monkeypatch):
    # the oracle benchmark's two recurrence jobs, each from its largest n down
    # as `count --method recurrence` computes them, from a cold memo: the
    # per-call chain table must not hold much beside the memo itself. The
    # traced peak on CPython 3.11 is 9.33 MiB with int memo keys (11.55 MiB
    # with tuple keys)
    monkeypatch.setattr(words, "_A_MEMO", {})
    tracemalloc.start()
    try:
        for r, nmax in ((3, 36), (5, 22)):
            for n in range(nmax, -1, -1):
                count_avoiders_recurrence((r,) * n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10.25 * 2**20
    assert len(words._A_MEMO) == 61075


def test_recurrence_threads_get_oracle_values(monkeypatch):
    # call trees on different vectors share one cold memo, with more threads
    # than this suite's 2-core hosts have cores; a short switch interval
    # makes them interleave inside the recursion
    monkeypatch.setattr(words, "_A_MEMO", {})
    vectors = [(3,) * 22, (2, 2, 3, 3, 3, 4, 4, 5, 6, 6, 7, 8, 9), (1, 2, 3) * 6]
    barrier = threading.Barrier(len(vectors))
    results = {}

    def work(vector):
        barrier.wait()
        results[vector] = count_avoiders_recurrence(vector)

    threads = [threading.Thread(target=work, args=(v,)) for v in vectors]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {v: recurrence_sorted_keys(v) for v in vectors}
