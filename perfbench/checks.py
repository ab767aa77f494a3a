"""Output checks that do not trust the code under test.

Every check reads what a job printed, parses the mathematical payload out of
it, and compares it with values this file computes itself or with data that
``make_reference.py`` stored at the seed commit:

* r=1 counts equal the Catalan numbers, computed here;
* count prefixes equal the stored reference terms, which were made by
  recurrence extension and cross-checked against the scheme series;
* a guessed recurrence verifies exactly, here, on the reference terms;
* a guessed or eliminated equation annihilates the reference series, here,
  and the program reports a reference match;
* brute, recurrence and scheme counts agree on their overlap;
* an asymptotic growth estimate lies within tol of (r+1)*2^r;
* the payload digest equals the one recorded at the seed commit.

Payloads leave out timestamps, labels and formatting, so a relabelled or
reformatted output still matches its digest.
"""

import hashlib
import json
import re
from math import comb

RECURRENCE_TERM = re.compile(r"\(([^()]*)\)\*w\(n(?:\+(\d+))?\)")


class CheckError(Exception):
    """A job's output is missing, unparsable or wrong."""


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def job_key(job):
    """Identity of a job's mathematical payload; format and order aside."""
    if "call" in job:
        return f"{job['call']} alphabet={job['alphabet']} max_len={job['max_len']}"
    argv = job["argv"]
    cmd, r = argv[0], int(_opt(argv, "--r"))
    if cmd == "count":
        return f"count r={r} nmax={_opt(argv, '--nmax')}"
    if cmd == "asympt":
        return f"asympt r={r} nmax={_opt(argv, '--nmax', '2000')}"
    if cmd == "eliminate":
        return f"eliminate r={r} backend={_opt(argv, '--backend', 'resultants')}"
    if cmd == "guess" and "--algebraic" in argv:
        return f"guess-algebraic r={r} dx={_opt(argv, '--max-deg-x')} df={_opt(argv, '--max-deg-f')}"
    if cmd == "guess":
        return f"guess r={r} order={_opt(argv, '--max-order')} degree={_opt(argv, '--max-degree')}"
    raise CheckError(f"no payload defined for {cmd}")


def digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ---------------- parsing ----------------

def parse_counts(argv, out):
    fmt = _opt(argv, "--format", "text")
    if fmt == "json":
        return [int(t) for t in json.loads(out)["result"]["terms"]]
    if fmt == "bfile":
        rows = [line.split() for line in out.splitlines() if line and not line.startswith("#")]
        if [int(n) for n, _ in rows] != list(range(len(rows))):
            raise CheckError("b-file indices are not 0, 1, 2, ...")
        return [int(v) for _, v in rows]
    return [int(t) for t in out.split()]


def parse_equation(text):
    """{(a, b): c} from the printed form of a bivariate polynomial in x and F."""
    terms = {}
    sign = 1
    for token in text.split():
        if token in "+-":
            sign = -1 if token == "-" else 1
            continue
        if token.startswith("-"):
            sign, token = -sign, token[1:]
        c, a, b = 1, 0, 0
        for factor in token.split("*"):
            name, _, power = factor.partition("^")
            if name == "x":
                a = int(power or 1)
            elif name == "F":
                b = int(power or 1)
            else:
                c = int(factor)
        terms[(a, b)] = terms.get((a, b), 0) + sign * c
        sign = 1
    return {e: c for e, c in terms.items() if c}


def equation_from_json(data):
    return {tuple(t["exponents"]): int(t["coeff"]) for t in data["terms"] if int(t["coeff"])}


def parse_recurrence_text(line):
    """{(k, j): c} for sum_k p_k(n) w(n+k) = 0 printed with p_k = sum_j c n^j."""
    coeffs = {}
    for body, shift in RECURRENCE_TERM.findall(line):
        k = int(shift or 0)
        for part in body.split(" + "):
            c, _, mono = part.partition("*") if "*" in part else (
                ("1", "", part) if part.startswith("n") else (part, "", ""))
            j = 0 if not mono else int(mono.partition("^")[2] or 1)
            coeffs[(k, j)] = coeffs.get((k, j), 0) + int(c)
    return {e: c for e, c in coeffs.items() if c}


def recurrence_from_json(data):
    return {(k, j): int(c) for k, p in enumerate(data["coefficients"])
            for j, c in enumerate(p) if int(c)}


def _sorted_items(mapping):
    return [[a, b, str(c)] for (a, b), c in sorted(mapping.items())]


# ---------------- independent arithmetic ----------------

def catalan(n):
    return comb(2 * n, n) // (n + 1)


def recurrence_residuals(coeffs, terms):
    """Indices n where sum_k p_k(n) * terms[n+k] != 0."""
    order = max(k for k, _ in coeffs)
    bad = []
    for n in range(len(terms) - order):
        if sum(c * n**j * terms[n + k] for (k, j), c in coeffs.items()):
            bad.append(n)
    return bad


def annihilates(equation, terms):
    """True iff sum c * x^a * f^b vanishes modulo x^len(terms)."""
    n = len(terms)
    acc = [0] * n
    power = [1] + [0] * (n - 1)
    for b in range(max(e[1] for e in equation) + 1):
        for (a, bb), c in equation.items():
            if bb == b:
                for i in range(n - a):
                    acc[i + a] += c * power[i]
        power = [sum(power[i] * terms[k - i] for i in range(k + 1)) for k in range(n)]
    return not any(acc)


# ---------------- the checks ----------------

def _check_counts(argv, out, reference, routes):
    r, nmax, method = int(_opt(argv, "--r")), int(_opt(argv, "--nmax")), _opt(argv, "--method")
    terms = parse_counts(argv, out)
    if len(terms) != nmax + 1:
        raise CheckError(f"{len(terms)} terms printed, expected {nmax + 1}")
    if r == 1 and any(t != catalan(n) for n, t in enumerate(terms)):
        raise CheckError("r=1 counts differ from the Catalan numbers")
    ref = reference["terms"].get(str(r), [])
    if any(int(a) != b for a, b in zip(ref, terms)):
        raise CheckError("counts differ from the reference terms")
    for other, seen in routes.get(r, []):
        if any(a != b for a, b in zip(seen, terms)):
            raise CheckError(f"{method} counts disagree with {other} counts")
    routes.setdefault(r, []).append((method, terms))
    return {"terms": [str(t) for t in terms]}


def _check_asympt(argv, out):
    r, tol = int(_opt(argv, "--r")), float(_opt(argv, "--tol", "0.01"))
    if _opt(argv, "--format", "text") == "json":
        result = json.loads(out)["result"]
        growth, passed = float(result["growth_estimate"]), result["passed"] is True
    else:
        growth = float(re.search(r"growth:\s+estimated\s+(\S+)", out).group(1))
        passed = "[PASS" in out
    target = (r + 1) * 2**r
    if not passed or abs(growth - target) / target > tol:
        raise CheckError(f"growth {growth} not within {tol} of {target}")
    return {"passed": passed, "growth": f"{growth:.6f}"}


def _reference_series(reference, r):
    terms = [int(t) for t in reference["terms"][str(r)]]
    if len(terms) < 40:
        raise CheckError(f"too few reference terms for r={r}")
    return terms


def _check_equation(argv, out, reference):
    r = int(_opt(argv, "--r"))
    if _opt(argv, "--format", "text") == "json":
        result = json.loads(out)["result"]
        equation = equation_from_json(result["equation"])
        verdict = result["reference_match"]
        annihilated = result.get("annihilates_series", True)
    else:
        lines = out.splitlines()
        equation = parse_equation(lines[0].split("=", 1)[1] if "=" in lines[0] else lines[0])
        verdict = next((ln.split(":", 1)[1].strip() for ln in lines
                        if ln.startswith("reference match:")), None)
        annihilated = next((ln.rsplit(":", 1)[1].strip() == "True" for ln in lines
                            if ln.startswith("annihilates")), argv[0] != "eliminate")
    if verdict not in ("equal", "proper-multiple"):
        raise CheckError(f"reference match is {verdict!r}")
    if not annihilated:
        raise CheckError("the program reports that its equation does not annihilate")
    if not equation or not annihilates(equation, _reference_series(reference, r)):
        raise CheckError("the equation does not annihilate the reference series")
    return {"equation": _sorted_items(equation)}


def _check_recurrence(argv, out, reference):
    r = int(_opt(argv, "--r"))
    if _opt(argv, "--format", "text") == "json":
        coeffs = recurrence_from_json(json.loads(out)["result"]["recurrence"])
    else:
        coeffs = parse_recurrence_text(out.splitlines()[0])
    if not coeffs:
        raise CheckError("no recurrence printed")
    order = max(k for k, _ in coeffs)
    terms = _reference_series(reference, r)
    if len(terms) - order <= len(coeffs) or recurrence_residuals(coeffs, terms):
        raise CheckError("the recurrence fails on the reference terms")
    return {"recurrence": _sorted_items(coeffs)}


def cli_payload(job, code, out, reference, routes):
    """The checked payload of a finished CLI job; raises CheckError when wrong.

    `routes` collects the counts of earlier jobs of the pass, by r, so that
    counts from different methods are compared on their overlap.
    """
    argv = job["argv"]
    if code != 0:
        raise CheckError(f"exit code {code}")
    if argv[0] == "count":
        return _check_counts(argv, out, reference, routes)
    if argv[0] == "asympt":
        return _check_asympt(argv, out)
    if argv[0] == "eliminate" or "--algebraic" in argv:
        return _check_equation(argv, out, reference)
    return _check_recurrence(argv, out, reference)


def check_digest(job, payload, reference):
    key = job_key(job)
    expected = reference["digests"].get(key)
    if expected is None:
        raise CheckError(f"no seed digest recorded for {key}")
    if digest(payload) != expected:
        raise CheckError(f"payload digest differs from the seed commit's for {key}")
