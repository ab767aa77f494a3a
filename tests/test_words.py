import itertools
import os
import random
import subprocess
import sys
import threading
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
    recurrence_counts,
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


def test_recurrence_counts_equal_one_call_per_vector():
    vectors = [(2, 2), (), (3, 1, 2), (2, 2), (0, 4), (1,) * 7, (5, 1, 1)]
    assert recurrence_counts(vectors) == [count_avoiders_recurrence(v) for v in vectors]
    assert recurrence_counts(iter(vectors[:3])) == [6, 1, 34]
    assert recurrence_counts([]) == []


def test_recurrence_counts_check_every_vector_before_any_state(monkeypatch):
    def refuse(wanted):
        raise AssertionError("a state was visited")

    monkeypatch.setattr(words, "_reachable", refuse)
    with pytest.raises(ValueError, match="nonnegative"):
        recurrence_counts([(1, 2), (3, -1)])
    with pytest.raises(ValueError, match="total length 65536 "):
        recurrence_counts([(1, 2), (65536,)])


# r=3 and r=5 at the nmax of the oracle benchmark's recurrence jobs; r=1, 2
# and 4 at an nmax of similar cost
@pytest.mark.parametrize("r, nmax", [(1, 60), (2, 40), (3, 36), (4, 26), (5, 22)])
def test_recurrence_sequences_equal_sorted_key_oracle(r, nmax):
    vectors = [(r,) * n for n in range(nmax + 1)]
    assert recurrence_counts(vectors) == [recurrence_sorted_keys(v) for v in vectors]


def test_recurrence_reaches_the_stated_depth():
    # the one limit is the 16-bit key field, 65,535 letters in all: the
    # levels are swept in loops, so the recursion limit plays no part
    assert count_avoiders_recurrence((65535,)) == 1
    assert count_avoiders_recurrence((1, 65534)) == comb(65535, 1)
    # A(a, b) = C(a + b, a), at a size whose a * b states take well under a
    # second; (half, 65535 - half) would visit about 2^30
    assert count_avoiders_recurrence((400, 400)) == comb(800, 400)
    assert count_avoiders_recurrence((123, 456)) == comb(579, 123)
    for vector in ((65536,), (1, 65535), (32768, 32768)):
        with pytest.raises(ValueError, match=r"^total length 65536 .*\(max 65535\)$"):
            count_avoiders_recurrence(vector)


def test_recurrence_refuses_totals_beyond_a_packed_field():
    # a key field holds at most 2^16 - 1, and a lump holds up to the total
    # length
    with pytest.raises(ValueError, match=r"^total length 70000 .*\(max 65535\)$") as info:
        count_avoiders_recurrence((35_000, 35_000))
    assert "\n" not in str(info.value)
    assert "16-bit key field" in str(info.value) and "deep" not in str(info.value)


def _states(r, nmax):
    wanted = {}
    for size, key in map(words._packed, [(r,) * n for n in range(nmax + 1)]):
        wanted.setdefault(size, set()).add(key)
    return sum(len(keys) // width for width, keys in words._reachable(wanted))


def test_recurrence_memory_budget():
    # in a fresh interpreter, the high-water mark of its resident set may
    # rise by at most 1 MiB over the oracle benchmark's two recurrence jobs,
    # one pass each, and by at most 3 MiB once r=6 up to n=34 has run as
    # well. On CPython 3.11 they rose by 0.11 and 1.2 MiB with each level's
    # keys packed in one bytes object, and by 1.75 and 8.6 MiB when the
    # levels were lists of ints. The mark is VmHWM: ru_maxrss keeps the
    # high-water mark of the process that started the interpreter, so under
    # pytest it rose by nothing at all
    src = os.path.dirname(os.path.dirname(words.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "from avoidwords.words import recurrence_counts\n"
        "def high():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
        "before = high()\n"
        "for r, nmax in ((3, 36), (5, 22)):\n"
        "    recurrence_counts([(r,) * n for n in range(nmax + 1)])\n"
        "print(high() - before)\n"
        "recurrence_counts([(6,) * n for n in range(35)])\n"
        "print(high() - before)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True)
    oracle, r6 = map(int, done.stdout.split())  # in KiB
    assert oracle < 1024
    assert r6 < 3 * 1024
    # the states each sequence visits, the empty state included
    assert _states(3, 36) == 44_941
    assert _states(5, 22) == 33_321


def test_recurrence_threads_get_oracle_values():
    # concurrent calls on different vectors share no state; there are more
    # threads than this suite's 2-core hosts have cores, and a short switch
    # interval makes them interleave inside the sweeps
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
