import signal
import threading
import time

import pytest

from avoidwords import elimination, groebner, polynomials
from avoidwords.elimination import (
    EliminationTimeout,
    EmptyEliminationError,
    compress_exponents,
    eliminate,
    f_major,
    match_equation,
    verify_annihilation,
    InsufficientSeriesError,
)
from avoidwords.fixtures import reference_equation
from avoidwords.polynomials import (
    MultivariatePolynomial as MP,
    NonDivisibleError,
    resultant,
)
from avoidwords.scheme import AlgebraicScheme, build_scheme, word_counts
from resultant_oracle import sylvester_resultant


def test_r1_elimination_is_the_defining_equation():
    q = eliminate(build_scheme(1), "buchberger")
    want = MP(("x", "G0_0"), {(1, 2): 1, (0, 1): -1, (0, 0): 1})
    assert q == want


@pytest.mark.parametrize("backend", ["buchberger", "resultants"])
def test_r2_equation_reproduced(backend):
    q = eliminate(build_scheme(2), backend)
    p2 = compress_exponents(q, 2)
    assert match_equation(p2, reference_equation(2)) in ("equal", "proper-multiple")


def test_backend_agreement_r1_r2():
    for r in (1, 2):
        scheme = build_scheme(r)
        a = compress_exponents(eliminate(scheme, "buchberger"), r)
        b = compress_exponents(eliminate(scheme, "resultants"), r)
        ref = reference_equation(r)
        assert match_equation(a, ref) in ("equal", "proper-multiple")
        assert match_equation(b, ref) in ("equal", "proper-multiple")


def test_r2_buchberger_output_even_in_x():
    q = eliminate(build_scheme(2), "buchberger")
    xi = q.variables.index("x")
    assert all(e[xi] % 2 == 0 for e in q.terms)


def test_r3_resultants_within_budget():
    scheme = build_scheme(3)
    q = eliminate(scheme, "resultants", timeout=120)
    p3 = compress_exponents(q, 3)
    assert match_equation(p3, reference_equation(3)) in ("equal", "proper-multiple")
    series = word_counts(3, 60)
    assert verify_annihilation(p3, series)


def test_elimination_independent_of_equation_order():
    scheme = build_scheme(2)
    reversed_scheme = AlgebraicScheme(
        r=2,
        variables=scheme.variables,
        equations=dict(sorted(scheme.equations.items(), reverse=True)),
    )
    a = eliminate(scheme, "buchberger")
    b = eliminate(reversed_scheme, "buchberger")
    assert a == b


def test_spec_resultant_example_vs_sylvester():
    # eliminating the middle enumerator from the r=2 system two ways
    scheme = build_scheme(2)
    eq00 = scheme.equations[(0, 0)]
    eq01 = scheme.equations[(0, 1)]
    prs = resultant(eq01, eq00, "G0_1")
    sylv = sylvester_resultant(eq01, eq00, "G0_1")
    assert prs == sylv
    assert not prs.is_zero


# -------- compression --------

def test_compress_identity_for_r1():
    q = MP(("x", "G0_0"), {(1, 2): 1, (0, 1): -1, (0, 0): 1})
    p = compress_exponents(q, 1)
    assert p == MP(("x", "F"), {(1, 2): 1, (0, 1): -1, (0, 0): 1})


def test_compress_r2_warmup():
    q = eliminate(build_scheme(2), "buchberger")
    p = compress_exponents(q, 2)
    assert p == reference_equation(2)


def test_canonical_sign_follows_the_f_major_lead():
    # the lex (x-major) lead x^2*F and the F-major lead x*F^2 have opposite
    # signs, so integer-primitive with a positive lex lead is not canonical
    lex_form = MP(("x", "F"), {(2, 1): 1, (1, 2): -3})
    want = MP(("x", "F"), {(1, 2): 3, (2, 1): -1})
    p = compress_exponents(MP(("x", "G0_0"), {(2, 1): 1, (1, 2): -3}), 1)
    assert p == want and p.to_text(f_major) == "3*x*F^2 - x^2*F"
    assert compress_exponents(MP(("x", "G0_0"), {(4, 1): -2, (2, 2): 6}), 2) == want
    assert match_equation(lex_form, want) == "equal"
    assert match_equation(want, lex_form) == "equal"


def test_compress_rejects_mixed_exponents():
    q = MP(("x", "G0_0"), {(1, 0): 1, (2, 0): 1})
    with pytest.raises(NonDivisibleError) as err:
        compress_exponents(q, 2)
    assert "x" in str(err.value)


# -------- annihilation --------

def test_catalan_equation_annihilates_catalan():
    series = word_counts(1, 50)
    assert verify_annihilation(reference_equation(1), series)


def test_wrong_series_rejected():
    series = word_counts(2, 50)
    assert not verify_annihilation(reference_equation(1), series)


def test_annihilation_needs_margin():
    series = word_counts(1, 3)
    with pytest.raises(InsufficientSeriesError):
        verify_annihilation(reference_equation(1), series)


def test_two_cutoffs_never_flip_true_to_false():
    p = reference_equation(2)
    s1 = word_counts(2, 30)
    s2 = word_counts(2, 60)
    assert verify_annihilation(p, s1) and verify_annihilation(p, s2)


# -------- matching --------

def test_match_identical():
    p = reference_equation(2)
    assert match_equation(p, p) == "equal"


def test_match_proper_multiple():
    ref = reference_equation(1)
    cofactor = MP(("x", "F"), {(1, 1): 1, (0, 0): 1})  # x*F + 1
    assert match_equation(ref * cofactor, ref) == "proper-multiple"


def test_match_mismatch():
    assert match_equation(reference_equation(1), reference_equation(2)) == "mismatch"


# -------- the resultant chain's steps --------

class _StopChain(Exception):
    pass


def test_r4_chain_reaches_its_23rd_resultant_quickly(monkeypatch):
    # the first 22 resultants are cheap; the 23rd, in G0_2, is where r=4
    # stalls, so its inputs pin the shape of the chain up to there
    calls = []

    def recorded(p, q, name):
        calls.append((time.monotonic(), p, q, name))
        if len(calls) == 23:
            raise _StopChain
        return resultant(p, q, name)

    monkeypatch.setattr(elimination, "resultant", recorded)
    scheme = build_scheme(4)
    start = time.monotonic()
    with pytest.raises(_StopChain):
        eliminate(scheme, "resultants", timeout=None)
    at, p, q, name = calls[-1]
    assert name == "G0_2"
    assert (len(p), len(q)) == (120, 458)
    assert (p.degree(name), q.degree(name)) == (8, 12)
    assert at - start < 1.0


def test_a_chain_whose_pairs_all_share_a_factor_raises():
    # every equation in G1_1 gets the factor G1_1 + 3, so each of their
    # resultants in G1_1 is zero and the chain keeps nothing
    scheme = build_scheme(2)
    factor = MP.variable(scheme.variables, "G1_1") + 3
    equations = {
        pair: e * factor if e.degree("G1_1") > 0 else e for pair, e in scheme.equations.items()
    }
    shared = AlgebraicScheme(r=2, variables=scheme.variables, equations=equations)
    with pytest.raises(EmptyEliminationError):
        eliminate(shared, "resultants")


def _slowed(function):
    def slowed(*args, **kwargs):
        time.sleep(5)
        return function(*args, **kwargs)
    return slowed


@pytest.mark.parametrize(
    "module, name, r, backend",
    [(polynomials, "_prem", 3, "resultants"), (groebner, "normal_form", 2, "buchberger")],
    ids=["resultants", "buchberger"],
)
def test_deadline_interrupts_a_slow_step(monkeypatch, module, name, r, backend):
    monkeypatch.setattr(module, name, _slowed(getattr(module, name)))
    start = time.monotonic()
    with pytest.raises(EliminationTimeout):
        eliminate(build_scheme(r), backend, timeout=0.3)
    assert time.monotonic() - start < 2.5


def test_timer_and_handler_are_restored_after_return_and_timeout(monkeypatch):
    def previous(signum, frame):
        pass

    saved = signal.signal(signal.SIGALRM, previous)
    try:
        eliminate(build_scheme(2), "resultants", timeout=60)
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        monkeypatch.setattr(polynomials, "_prem", _slowed(polynomials._prem))
        with pytest.raises(EliminationTimeout):
            eliminate(build_scheme(2), "resultants", timeout=0.1)
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, saved)


@pytest.mark.parametrize("backend", ["resultants", "buchberger"])
def test_zero_budget_raises_before_any_step(backend):
    with pytest.raises(EliminationTimeout):
        eliminate(build_scheme(1), backend, timeout=0)


def test_a_budget_needs_the_main_thread():
    outcome = {}

    def run(timeout):
        try:
            outcome[timeout] = eliminate(build_scheme(2), timeout=timeout)
        except ValueError as exc:
            outcome[timeout] = exc

    for timeout in (1, None):
        thread = threading.Thread(target=run, args=(timeout,))
        thread.start()
        thread.join()
    assert isinstance(outcome[1], ValueError)
    assert outcome[None] == eliminate(build_scheme(2), timeout=None)
