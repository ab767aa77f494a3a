import contextlib
import json
import math
import os
import re
import subprocess
import sys
import time
from decimal import Decimal, Inexact, localcontext

import pytest

import avoidwords
from avoidwords import cli
from avoidwords.asymptotics import report_text, sequence_for
from avoidwords.cache import Cache
from avoidwords.cli import (
    EXIT_CAP,
    EXIT_ERROR,
    EXIT_INSUFFICIENT,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_VERIFICATION,
    main,
)
from avoidwords.elimination import f_major
from avoidwords.fixtures import reference_recurrence
from avoidwords.guessing import (
    LinearRecurrence,
    NonIntegralExtensionError,
    SingularRecurrenceError,
    terms_needed,
)
from avoidwords.polynomials import MultivariatePolynomial
from avoidwords.scheme import word_counts


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_catalan(capsys, tmp_path):
    code, out, _ = run(capsys, "count", "--r", "1", "--nmax", "5", "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert out.split() == ["1", "1", "2", "5", "14", "42"]


def test_count_methods_agree(capsys, tmp_path):
    results = {}
    for method in ("brute", "scheme", "recurrence", "linear-rec"):
        code, out, _ = run(
            capsys, "count", "--r", "2", "--nmax", "3", "--method", method,
            "--cache-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        results[method] = out.strip()
    assert len(set(results.values())) == 1
    assert results["brute"] == "1 1 6 43"


def test_count_nmax_zero(capsys, tmp_path):
    code, out, _ = run(capsys, "count", "--r", "2", "--nmax", "0", "--cache-dir", str(tmp_path))
    assert code == EXIT_OK and out.strip() == "1"


def test_count_bfile_format(capsys, tmp_path):
    code, out, _ = run(
        capsys, "count", "--r", "2", "--nmax", "3", "--format", "bfile",
        "--cache-dir", str(tmp_path),
    )
    lines = out.strip().splitlines()
    assert lines[0].startswith("#") and "offset 0" in lines[0]
    assert lines[1:] == ["0 1", "1 1", "2 6", "3 43"]


def test_count_cap_exit_code(capsys, tmp_path):
    code, _, err = run(
        capsys, "count", "--r", "4", "--nmax", "4", "--method", "brute",
        "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_CAP and "cap" in err


def test_scheme_text(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("AVOIDWORDS_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "scheme", "--r", "2")
    assert code == EXIT_OK
    assert "g^(0,0)" in out and "g^(1,1)" in out


def test_scheme_json(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("AVOIDWORDS_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "scheme", "--r", "2", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc["result"]["equations"]) == {"0,0", "0,1", "1,1"}


def test_exact_context_refuses_to_round():
    # the precision is finite, so libmpdec computes the quotient's digits and
    # traps, where at MAX_PREC it raised MemoryError allocating them
    with localcontext(cli.EXACT), pytest.raises(Inexact):
        Decimal(1) / 3


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_linear_rec_decimal_terms_equal_int_extension(capsys, tmp_path, r):
    code, out, _ = run(
        capsys, "count", "--r", str(r), "--nmax", "120", "--method", "linear-rec",
        "--format", "json", "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    assert json.loads(out)["result"]["terms"] == [str(t) for t in sequence_for(r, 120)[0]]


def test_catalan_bfile_to_20000_within_budget(tmp_path):
    # 120 MB of digits: printing them costs time linear in their length only
    # because the terms are decimals; as ints, str() is quadratic in each
    path = tmp_path / "catalan.txt"
    start = time.perf_counter()
    with open(path, "w") as out, contextlib.redirect_stdout(out):
        code = main([
            "count", "--r", "1", "--nmax", "20000", "--method", "linear-rec",
            "--format", "bfile", "--no-cache",
        ])
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    assert elapsed < 5.0, f"b-file took {elapsed:.1f} s"
    wanted = {0, 1, 2, 1000, 20000}
    got = {}
    with open(path) as lines:
        assert next(lines).startswith("# w_r(n) for r=1")
        for line in lines:
            n, value = line.split()
            if int(n) in wanted:
                got[int(n)] = value
    assert got == {n: str(math.comb(2 * n, n) // (n + 1)) for n in wanted}


def test_linear_rec_unavailable_exit_code(capsys, tmp_path):
    code, _, err = run(
        capsys, "count", "--r", "6", "--nmax", "3", "--method", "linear-rec",
        "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_INSUFFICIENT
    assert "recurrence" in err


def test_eliminate_r2_reports_match(capsys, tmp_path):
    code, out, _ = run(
        capsys, "eliminate", "--r", "2", "--backend", "buchberger",
        "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    assert "reference match: equal" in out
    assert "annihilates series" in out


def test_eliminate_json_deterministic_modulo_timestamp(capsys, tmp_path):
    docs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "eliminate", "--r", "1", "--format", "json", "--no-cache",
            "--cache-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        doc.pop("timestamp")
        docs.append(doc)
    assert docs[0] == docs[1]


# a cached subcommand and the function whose result it caches
CACHED_RUNS = [
    (("count", "--r", "3", "--nmax", "12", "--method", "scheme"), "word_counts"),
    (("eliminate", "--r", "2"), "eliminate"),
    (("asympt", "--r", "3", "--nmax", "100"), "conjecture_check"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv,compute", CACHED_RUNS, ids=[a[0] for a, _ in CACHED_RUNS])
def test_cache_hit_equals_cold(capsys, tmp_path, monkeypatch, argv, compute, fmt):
    def payload(out):
        if fmt == "text":
            return out
        doc = json.loads(out)
        doc.pop("timestamp")
        return doc

    def recompute(*args, **kwargs):
        raise AssertionError(f"{compute} ran on a warm cache")

    cache_dir = tmp_path / "cache"
    argv = (*argv, "--format", fmt, "--cache-dir", str(cache_dir))
    code, nocache, _ = run(capsys, *argv, "--no-cache")
    assert code == EXIT_OK
    assert list(cache_dir.glob("*")) == []
    code, cold, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert len(list(cache_dir.glob("*.json"))) == 1
    monkeypatch.setattr(cli, compute, recompute)
    code, warm, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert payload(cold) == payload(warm) == payload(nocache)


def _check_count(text, result):
    assert text == [" ".join(result["terms"])]
    assert result["terms"][:3] == ["1", "1", "70"]  # w_4(2) = C(8, 4)


def _check_scheme(text, result):
    # the text names g^(i,j) where the JSON names Gi_j, and prints the right
    # side, where the JSON stores right side - Gi_j
    assert len(text) == len(result["equations"])
    for line, (key, equation) in zip(text, result["equations"].items()):
        i, j = key.split(",")
        poly = MultivariatePolynomial.from_json(equation)
        rhs = poly + MultivariatePolynomial.variable(poly.variables, f"G{i}_{j}")
        assert line == f"g^({i},{j}) = " + re.sub(r"G(\d+)_(\d+)", r"g^(\1,\2)", str(rhs))


def _check_eliminate(text, result):
    equation = MultivariatePolynomial.from_json(result["equation"])
    assert text == [
        f"P_2(x, F) = {equation.to_text(f_major)}",
        f"reference match: {result['reference_match']}",
        f"annihilates series mod x^{result['series_cutoff']}: {result['annihilates_series']}",
    ]
    assert result["reference_match"] == "equal" and result["annihilates_series"] is True


def _check_guess(text, result):
    rec = LinearRecurrence.from_json(result["recurrence"])
    assert text == [str(rec), f"status: {result['status']}"]
    assert rec.coeffs == reference_recurrence(2).coeffs


def _check_guess_algebraic(text, result):
    equation = MultivariatePolynomial.from_json(result["equation"])
    assert text == [equation.to_text(f_major), f"reference match: {result['reference_match']}"]
    assert result["reference_match"] == "equal"


def _check_asympt(text, result):
    assert text == report_text(result).splitlines()
    assert f"estimated {result['growth_estimate']:.10g}" in text[1]
    assert f"conjectured {result['conjectured_growth']} " in text[1]
    assert ("[PASS" if result["passed"] else "[FAIL") in text[1]
    assert result["passed"] is True


TEXT_AND_JSON = [
    (("count", "--r", "4", "--nmax", "8", "--no-cache"), _check_count),
    (("scheme", "--r", "3"), _check_scheme),
    (("eliminate", "--r", "2", "--no-cache"), _check_eliminate),
    (("guess", "--r", "2", "--max-order", "2", "--max-degree", "3"), _check_guess),
    (("guess", "--r", "2", "--algebraic", "--max-deg-x", "2", "--max-deg-f", "4"),
     _check_guess_algebraic),
    (("asympt", "--r", "3", "--nmax", "100", "--no-cache"), _check_asympt),
]


@pytest.mark.parametrize("argv,check", TEXT_AND_JSON, ids=[c.__name__[7:] for _, c in TEXT_AND_JSON])
def test_text_and_json_carry_the_same_result(capsys, tmp_path, monkeypatch, argv, check):
    monkeypatch.setenv("AVOIDWORDS_CACHE_DIR", str(tmp_path))
    code, text, _ = run(capsys, *argv)
    assert code == EXIT_OK
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    check(text.splitlines(), json.loads(out)["result"])


@pytest.mark.parametrize("budget", ["inf", "1e300"])
def test_eliminate_budget_beyond_the_timer_means_no_limit(capsys, tmp_path, budget):
    code, _, err = run(
        capsys, "eliminate", "--r", "2", "--timeout", budget, "--cache-dir", str(tmp_path)
    )
    assert code == EXIT_OK, err


def test_eliminate_zero_budget_exits_3_on_a_cache_hit(capsys, tmp_path):
    code, _, err = run(capsys, "eliminate", "--r", "2", "--timeout", "inf",
                       "--cache-dir", str(tmp_path))
    assert code == EXIT_OK, err
    code, out, err = run(capsys, "eliminate", "--r", "2", "--timeout", "0",
                         "--cache-dir", str(tmp_path))
    assert code == EXIT_TIMEOUT
    assert out == ""
    assert err == "error: resultants elimination exceeded its time budget of 0.0 s\n"


def test_eliminate_without_limit_reports_valid_json(capsys, tmp_path):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    code, out, _ = run(
        capsys, "eliminate", "--r", "1", "--timeout", "inf", "--format", "json",
        "--no-cache", "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    assert json.loads(out, parse_constant=reject)["parameters"]["timeout"] == "none"


def test_guess_recurrence_cli(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("AVOIDWORDS_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "guess", "--r", "1", "--max-order", "1", "--max-degree", "1")
    assert code == EXIT_OK
    assert "w(n+1)" in out and "empirically-verified" in out


def test_guess_ignores_a_planted_recurrence(capsys, tmp_path, monkeypatch):
    # a wrong recurrence stored under the key `guess` once read and wrote
    monkeypatch.setenv("AVOIDWORDS_CACHE_DIR", str(tmp_path))
    wrong = LinearRecurrence(((-3,), (1,)))
    params = {"max_order": 2, "max_degree": 3, "terms": 28}
    Cache().store("recurrence", 2, params, wrong.to_json())
    code, out, _ = run(capsys, "guess", "--r", "2", "--max-order", "2", "--max-degree", "3")
    assert code == EXIT_OK
    assert out.splitlines() == [str(reference_recurrence(2)), "status: empirically-verified"]


def test_guess_algebraic_cli(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("AVOIDWORDS_CACHE_DIR", str(tmp_path))
    code, out, _ = run(
        capsys, "guess", "--r", "1", "--algebraic", "--max-deg-x", "1", "--max-deg-f", "2"
    )
    assert code == EXIT_OK
    assert "reference match: equal" in out


def test_guess_r6_reports_the_least_order(capsys, tmp_path, monkeypatch):
    # within degree 20 the least order is 4, at degree 18; the least
    # order + degree, (6, 10), is no longer the answer
    monkeypatch.setenv("AVOIDWORDS_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "guess", "--r", "6", "--max-order", "6", "--max-degree", "20",
                       "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    rec = LinearRecurrence.from_json(doc["result"]["recurrence"])
    assert (rec.order, max(len(p) for p in rec.coeffs) - 1) == (4, 18)
    terms = doc["parameters"]["terms"]
    assert terms == terms_needed(6, 22) and rec.verify(word_counts(6, terms - 1))


@pytest.mark.parametrize("argv,need", [
    (("--max-order", "2", "--max-degree", "3"), terms_needed(2, 5)),
    (("--algebraic", "--max-deg-x", "2", "--max-deg-f", "4"), terms_needed(2, 5)),
])
def test_guess_default_terms_suffice_and_one_fewer_exits_4(capsys, tmp_path, monkeypatch,
                                                            argv, need):
    monkeypatch.setenv("AVOIDWORDS_CACHE_DIR", str(tmp_path))
    code, _, err = run(capsys, "guess", "--r", "2", *argv)
    assert code == EXIT_OK and err == ""
    code, _, _ = run(capsys, "guess", "--r", "2", *argv, "--terms", str(need))
    assert code == EXIT_OK
    code, out, err = run(capsys, "guess", "--r", "2", *argv, "--terms", str(need - 1))
    assert code == EXIT_INSUFFICIENT and out == ""
    assert err == f"error: {need - 1} terms supplied; bounds require at least {need}\n"


def test_asympt_r1(capsys, tmp_path):
    code, out, _ = run(
        capsys, "asympt", "--r", "1", "--nmax", "500", "--cache-dir", str(tmp_path)
    )
    assert code == EXIT_OK
    assert "PASS" in out


def test_asympt_json(capsys, tmp_path):
    code, out, _ = run(
        capsys, "asympt", "--r", "2", "--nmax", "500", "--format", "json",
        "--no-cache", "--cache-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["result"]["passed"] is True


BAD_INPUTS = [
    (("count", "--r", "0", "--nmax", "3"), EXIT_ERROR, "--r"),
    (("count", "--r", "2", "--nmax", "-1"), EXIT_ERROR, "--nmax"),
    (("count", "--r", "0", "--nmax", "3", "--method", "brute"), EXIT_ERROR, "--r"),
    (("count", "--r", "2", "--nmax", "-1", "--method", "recurrence"), EXIT_ERROR, "--nmax"),
    (("count", "--r", "600", "--nmax", "110", "--method", "recurrence"), EXIT_ERROR, "16-bit key field"),
    (("scheme", "--r", "-2"), EXIT_ERROR, "--r"),
    (("eliminate", "--r", "0"), EXIT_ERROR, "--r"),
    (("guess", "--r", "0"), EXIT_ERROR, "--r"),
    (("guess", "--r", "2", "--terms", "-3"), EXIT_ERROR, "--terms"),
    (("guess", "--r", "2", "--max-order", "2", "--max-degree", "3", "--terms", "0"),
     EXIT_ERROR, "--terms"),
    (("guess", "--r", "2", "--max-order", "-1"), EXIT_ERROR, "--max-order"),
    (("guess", "--r", "2", "--max-degree", "-1"), EXIT_ERROR, "--max-degree"),
    (("guess", "--r", "2", "--algebraic", "--max-deg-x", "-1"), EXIT_ERROR, "--max-deg-x"),
    (("guess", "--r", "2", "--algebraic", "--max-deg-f", "-1"), EXIT_ERROR, "--max-deg-f"),
    (("guess", "--r", "2", "--terms", "3"), EXIT_INSUFFICIENT, "terms"),
    (("asympt", "--r", "0"), EXIT_ERROR, "--r"),
    (("asympt", "--r", "2", "--nmax", "-5"), EXIT_ERROR, "--nmax"),
    (("asympt", "--r", "2", "--nmax", "20"), EXIT_INSUFFICIENT, "terms"),
    (("asympt", "--r", "2", "--tol", "-1"), EXIT_ERROR, "--tol"),
    (("asympt", "--r", "2", "--tol", "0"), EXIT_ERROR, "--tol"),
    (("count", "--r", "2", "--nmax", "3", "--method", "brute", "--cap", "-1"), EXIT_ERROR, "--cap"),
    (("count", "--r", "1", "--nmax", "0", "--method", "brute", "--cap", "-1"), EXIT_ERROR, "--cap"),
    (("count", "--r", "2", "--nmax", "3", "--method", "brute", "--cap", "5"), EXIT_CAP, "cap"),
    (("eliminate", "--r", "2", "--timeout", "0"), EXIT_TIMEOUT, "time"),
    (("eliminate", "--r", "2", "--timeout", "-1"), EXIT_ERROR, "--timeout"),
    # usage errors: argparse alone would exit 2, the brute-force cap's code
    (("count", "--nmax", "3"), EXIT_ERROR, "--r"),
    (("count", "--r", "x", "--nmax", "3"), EXIT_ERROR, "--r"),
    (("guess", "--r", "2", "--bogus"), EXIT_ERROR, "--bogus"),
    # the cache flags belong to count, eliminate and asympt only
    (("guess", "--r", "2", "--no-cache"), EXIT_ERROR, "--no-cache"),
]


@pytest.mark.parametrize(
    "argv,code,fragment", BAD_INPUTS, ids=[" ".join(a) for a, _, _ in BAD_INPUTS]
)
def test_bad_input_exit_code_and_one_line_error(capsys, tmp_path, monkeypatch, argv, code,
                                                fragment):
    monkeypatch.setenv("AVOIDWORDS_CACHE_DIR", str(tmp_path))
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize(
    "exc", [ArithmeticError, NonIntegralExtensionError, SingularRecurrenceError]
)
def test_arithmetic_failures_exit_5(capsys, tmp_path, monkeypatch, exc):
    def fail(*args):
        raise exc("term check failed")

    monkeypatch.setattr(cli, "word_counts", fail)
    code, _, err = run(capsys, "count", "--r", "2", "--nmax", "3", "--cache-dir", str(tmp_path))
    assert code == EXIT_VERIFICATION
    assert err == "error: term check failed\n"


def test_failed_recurrence_reverification_exits_5(capsys, tmp_path, monkeypatch):
    # the r=2 recurrence passed off as the shipped r=3 one
    monkeypatch.setattr(
        "avoidwords.asymptotics.load_cached_recurrence", lambda r: reference_recurrence(2)
    )
    code, out, err = run(
        capsys, "count", "--r", "3", "--nmax", "100", "--method", "linear-rec",
        "--cache-dir", str(tmp_path),
    )
    assert (code, out) == (EXIT_VERIFICATION, "")
    assert err.startswith("error: cached recurrence for r=3 fails")


def test_out_of_memory_exits_1_with_one_line(capsys, tmp_path, monkeypatch):
    # the level pass can be asked for more states than memory holds
    def exhaust(vectors):
        raise MemoryError()

    monkeypatch.setattr(cli, "recurrence_counts", exhaust)
    code, out, err = run(capsys, "count", "--r", "1", "--nmax", "5", "--method", "recurrence",
                         "--cache-dir", str(tmp_path))
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: out of memory\n"


def test_unusable_cache_directory_exits_1(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(
        capsys, "count", "--r", "1", "--nmax", "3", "--cache-dir", str(blocker / "cache")
    )
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_every_exported_name_resolves():
    missing = [name for name in avoidwords.__all__ if not hasattr(avoidwords, name)]
    assert missing == []


def test_importing_the_package_and_cli_does_not_load_mpmath():
    # only the growth-law fits compute with mpmath; they import it themselves
    src = os.path.dirname(os.path.dirname(avoidwords.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, avoidwords, avoidwords.cli; print('mpmath' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True)
    assert done.stdout.split() == ["False"]


def test_recurrence_depth_is_checked_before_any_term(capsys, monkeypatch, tmp_path):
    # r * nmax = 65,536 overflows a key field at n = nmax alone
    from avoidwords import words

    swept = []

    def spy(wanted):
        swept.append(sorted(wanted))
        return reachable(wanted)

    reachable = words._reachable
    monkeypatch.setattr(words, "_reachable", spy)
    code, out, err = run(capsys, "count", "--r", "2", "--nmax", "32768", "--method", "recurrence",
                         "--cache-dir", str(tmp_path))
    assert code == EXIT_ERROR
    assert out == ""
    assert err == ("error: total length 65536 overflows the 16-bit key field of the "
                   "recurrence (max 65535)\n")
    assert swept == []
    code, out, _ = run(capsys, "count", "--r", "2", "--nmax", "5", "--method", "recurrence",
                       "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert out.split() == ["1", "1", "6", "43", "352", "3114"]
    assert swept == [[0, 2, 4, 6, 8, 10]]  # one pass serves every n


def test_recurrence_reaches_r_nmax_far_past_the_recursion_limit(capsys, tmp_path):
    code, out, _ = run(capsys, "count", "--r", "1", "--nmax", "820", "--method", "recurrence",
                       "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert [int(t) for t in out.split()] == [math.comb(2 * n, n) // (n + 1) for n in range(821)]
