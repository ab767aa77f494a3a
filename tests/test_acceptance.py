"""Acceptance suite: the package's exit criteria, one check per criterion.

Each test prints a single PASS line with its timing; the asserted budgets
are the stated ones. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import os
import time

import pytest

from avoidwords.asymptotics import conjecture_check, reference_constant
from avoidwords.elimination import (
    compress_exponents,
    eliminate,
    match_equation,
    verify_annihilation,
)
from avoidwords.fixtures import reference_equation, reference_recurrence
from avoidwords.guessing import guess_algebraic, guess_recurrence
from avoidwords.scheme import build_scheme, word_counts
from avoidwords.words import (
    P123,
    P132,
    P231,
    avoidance_involution,
    contains_pattern,
    count_avoiders_bruteforce,
    count_avoiders_recurrence,
)

CATALAN_21 = [
    1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012, 742900,
    2674440, 9694845, 35357670, 129644790, 477638700, 1767263190, 6564120420,
]


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        self.elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"\n[acceptance] {self.name}: PASS ({self.elapsed:.1f}s, budget {self.seconds}s)")
            assert self.elapsed < self.seconds, f"{self.name} exceeded budget"
        else:
            print(f"\n[acceptance] {self.name}: FAIL ({self.elapsed:.1f}s)")
        return False


def test_criterion_1_catalan_reproduction(capsys, tmp_path):
    from avoidwords.cli import main

    start = time.monotonic()
    code = main(["count", "--r", "1", "--nmax", "20", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    assert code == 0
    assert [int(t) for t in out.split()] == CATALAN_21
    assert word_counts(1, 20) == CATALAN_21
    with capsys.disabled():
        print(f"\n[acceptance] criterion 1 (Catalan via the CLI, r=1, n<=20): "
              f"PASS ({elapsed:.1f}s, budget 1.0s)")
    assert elapsed < 1.0


def test_criterion_2_oracle_quadruple_agreement():
    with _Budget("criterion 2 (four-way agreement, r<=4, rn<=12)", 120.0):
        for r in range(1, 5):
            scheme_seq = word_counts(r, 12 // r)
            for n in range(12 // r + 1):
                vec = (r,) * n
                b123 = count_avoiders_bruteforce(vec, P123)
                b231 = count_avoiders_bruteforce(vec, P231)
                arec = count_avoiders_recurrence(vec)
                assert b123 == b231 == arec == scheme_seq[n], (r, n)


def test_criterion_3_equation_r2():
    with _Budget("criterion 3 (equation reproduction, r=2)", 10.0):
        raw = eliminate(build_scheme(2), backend="buchberger", timeout=10)
        ours = compress_exponents(raw, 2)
        ref = reference_equation(2)
        assert match_equation(ours, ref) in ("equal", "proper-multiple")
        series = word_counts(2, 50)
        assert verify_annihilation(ref, series)


def test_criterion_4_equation_r3():
    with _Budget("criterion 4 (equation reproduction, r=3)", 120.0):
        raw = eliminate(build_scheme(3), backend="resultants", timeout=115)
        ours = compress_exponents(raw, 3)
        ref = reference_equation(3)
        assert match_equation(ours, ref) in ("equal", "proper-multiple")
        series = word_counts(3, 60)
        assert verify_annihilation(ref, series)
        assert verify_annihilation(ours, series)


def test_criterion_5_equation_r4_verification():
    with _Budget("criterion 5 (16th-degree equation annihilates, r=4)", 120.0):
        series = word_counts(4, 60)
        assert len(series) == 61
        assert verify_annihilation(reference_equation(4), series)


@pytest.mark.skipif(
    not os.environ.get("AVOIDWORDS_RUN_R4_ELIMINATION"),
    reason="full r=4 elimination is opt-in and unbounded",
)
def test_criterion_5_full_r4_elimination_opt_in():
    raw = eliminate(build_scheme(4), backend="resultants", timeout=None)
    ours = compress_exponents(raw, 4)
    assert match_equation(ours, reference_equation(4)) in ("equal", "proper-multiple")


def test_criterion_6_recurrence_reproduction():
    with _Budget("criterion 6 (recurrences r=1,2,3 match and verify on 500)", 300.0):
        bounds = {1: (1, 1), 2: (2, 3), 3: (2, 5)}
        for r, (mo, md) in bounds.items():
            seq = word_counts(r, 60)
            rec = guess_recurrence(seq, mo, md)
            assert rec is not None
            assert rec.coeffs == reference_recurrence(r).coeffs, r
            extended = rec.extend(seq, 500)  # exact divisions enforced
            assert len(extended) == 501
            assert rec.verify(extended), r


def test_criterion_7_conjecture_check():
    with _Budget("criterion 7 (growth, exponent, constants at nmax=2000)", 600.0):
        targets = {1: 4, 2: 12, 3: 32, 4: 80, 5: 192}
        for r, target in targets.items():
            rep = conjecture_check(r, nmax=2000, tol=0.01)
            assert rep["passed"], (r, rep["growth_relative_deviation"])
            assert rep["conjectured_growth"] == target
            assert abs(rep["fitted_exponent"] + 1.5) < 0.1, r
        c1 = conjecture_check(1, nmax=2000)["fitted_constant"]
        ref1 = float(reference_constant(1))
        assert abs(c1 - ref1) / ref1 < 0.005
        c2 = conjecture_check(2, nmax=2000)["fitted_constant"]
        ref2 = float(reference_constant(2))
        assert abs(c2 - ref2) / ref2 < 0.02


def test_criterion_8_bijection_suite():
    with _Budget("criterion 8 (involution suite + equinumeracy)", 300.0):
        total = 0
        for length in range(0, 11):
            for word in itertools.product((1, 2, 3, 4), repeat=length):
                fw = avoidance_involution(word)
                assert sorted(fw) == sorted(word)
                assert avoidance_involution(fw) == word
                assert contains_pattern(word, P123) == contains_pattern(fw, P132)
                assert contains_pattern(word, P132) == contains_pattern(fw, P123)
                total += 1
        assert total == sum(4**k for k in range(11))
        # equinumeracy over all multiplicity multisets with total <= 9
        vectors = _partitions_up_to(9)
        for vec in vectors:
            c123 = count_avoiders_bruteforce(vec, P123)
            assert count_avoiders_bruteforce(vec, P132) == c123, vec
            assert count_avoiders_bruteforce(vec, P231) == c123, vec


def _partitions_up_to(total_max):
    out = []

    def rec(remaining, largest, acc):
        out.append(tuple(acc))
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, acc + [part])

    rec(total_max, total_max, [])
    seen = set()
    unique = []
    for v in out:
        if v not in seen and sum(v) <= total_max:
            seen.add(v)
            unique.append(v)
    return [v for v in unique if v]


def test_criterion_9_algebraic_crosscheck():
    with _Budget("criterion 9 (series-side equation recovery r=1..4)", 120.0):
        bounds = {1: (1, 2), 2: (2, 4), 3: (4, 8), 4: (11, 16)}
        for r, (dx, df) in bounds.items():
            need = (dx + 1) * (df + 1) + 12
            series = word_counts(r, need)
            poly = guess_algebraic(series, dx, df)
            assert poly is not None, r
            allowed = ("equal",) if r == 4 else ("equal", "proper-multiple")
            assert match_equation(poly, reference_equation(r)) in allowed, r
