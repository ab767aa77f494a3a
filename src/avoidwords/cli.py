"""Command-line front end.

Subcommands: count (four term-generation methods, three output formats),
scheme (print the equation system), eliminate (derive the algebraic equation
and match it against the shipped reference), guess (recurrence or algebraic
equation from data), asympt (growth-law report).

Exit codes: 0 success and all requested verifications passed; 1 generic
error, such as an out-of-range argument; 2 brute-force cap exceeded; 3
timeout; 4 insufficient terms or no verified recurrence available; 5 a
verification, reference match or exact arithmetic check failed. A usage
error exits 1, and so does running out of memory; each, like an exception
from a run, ends in one `error:` line on stderr, not a usage block or a
traceback.

Each subcommand builds its result as JSON-ready data for one emitter,
`_emit`; every cached artifact goes through `_cached`.
"""

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from decimal import (
    MAX_EMAX,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)

from . import __version__
from .asymptotics import TooFewTermsError, conjecture_check, report_text, verified_recurrence
from .cache import Cache
from .elimination import (
    DEFAULT_TIMEOUT,
    EliminationTimeout,
    EmptyEliminationError,
    InsufficientSeriesError,
    compress_exponents,
    eliminate,
    f_major,
    match_equation,
    verify_annihilation,
)
from .fixtures import reference_equation
from .guessing import InsufficientTermsError, guess_algebraic, guess_recurrence, terms_needed
from .polynomials import MultivariatePolynomial
from .scheme import build_scheme, word_counts
from .words import (
    DEFAULT_BRUTE_CAP,
    P123,
    BruteForceCapError,
    check_recurrence_length,
    count_avoiders_bruteforce,
    recurrence_counts,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CAP = 2
EXIT_TIMEOUT = 3
EXIT_INSUFFICIENT = 4
EXIT_VERIFICATION = 5

# exception kind -> exit code; the first match wins, so subclasses come
# before their bases (BruteForceCapError is a ValueError,
# EmptyEliminationError an ArithmeticError)
EXIT_CODES = (
    (BruteForceCapError, EXIT_CAP),
    (EliminationTimeout, EXIT_TIMEOUT),
    ((InsufficientTermsError, TooFewTermsError, InsufficientSeriesError), EXIT_INSUFFICIENT),
    (EmptyEliminationError, EXIT_ERROR),
    (ArithmeticError, EXIT_VERIFICATION),
    ((ValueError, OSError, MemoryError), EXIT_ERROR),
)

# `count --method linear-rec` extends its recurrence in decimal: libmpdec
# keeps base 10**19 digits, so printing a term is linear in its length, where
# int -> str is quadratic. Every term is an integer with exponent 0 and prints
# as plain digits; any step that would round traps instead. The precision,
# 10**7 digits, is far above the terms the CLI prints (w_5(2000) has 4,561)
# and finite: at MAX_PREC an inexact quotient made libmpdec try to allocate
# MAX_PREC digits and raise MemoryError before it could trap
EXACT = Context(
    prec=10**7, Emax=MAX_EMAX, Emin=MIN_EMIN,
    traps=[Inexact, Rounded, InvalidOperation, DivisionByZero, Overflow],
)


def _emit(args, command, parameters, result, text):
    """Print the JSON document of `result` under `--format json`, else `text`."""
    if args.format != "json":
        print(text)
        return
    doc = {
        "command": command,
        "parameters": parameters,
        "result": result,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    print(json.dumps(doc, indent=1, sort_keys=True))


def _cached(args, kind, parameters, compute):
    """The JSON payload `compute()` returns for `kind` at `--r`: read from the
    cache, or computed and stored there; under `--no-cache` only computed."""
    if args.no_cache:
        return compute()
    cache = Cache(args.cache_dir)
    payload = cache.load(kind, args.r, parameters)
    if payload is None:
        payload = compute()
        cache.store(kind, args.r, parameters, payload)
    return payload


def _counts_via(args):
    """w_r(0..nmax) by `--method`: ints or decimals, or decimal strings from
    the scheme's cached sequence."""
    method, r, nmax, cap = args.method, args.r, args.nmax, args.cap
    if method == "scheme":
        return _cached(args, "sequence", {"nmax": nmax, "method": "scheme"}, lambda: {
            "r": r, "terms": [str(t) for t in word_counts(r, nmax)]})["terms"]
    if method == "brute":
        if r * nmax > cap:
            raise BruteForceCapError(f"r*nmax = {r * nmax} exceeds cap {cap}")
        return [count_avoiders_bruteforce((r,) * n, P123, cap=cap) for n in range(nmax + 1)]
    if method == "recurrence":
        check_recurrence_length(r * nmax)  # before any vector is built
        return recurrence_counts((r,) * n for n in range(nmax + 1))
    if method == "linear-rec":
        verified = verified_recurrence(r)
        if verified is None:
            raise InsufficientTermsError(f"no verified recurrence available for r={r}")
        rec, initial = verified
        if nmax < len(initial):
            return initial[: nmax + 1]
        with localcontext(EXACT):
            return rec.extend([Decimal(t) for t in initial], nmax)
    raise ValueError(f"unknown method {method}")


def cmd_count(args):
    terms = _counts_via(args)
    if args.format == "bfile":
        # line by line: a b-file of long terms runs to megabytes
        print(f"# w_r(n) for r={args.r}; offset 0: w_r(0)=1")
        for n, t in enumerate(terms):
            print(f"{n} {t}")
        return EXIT_OK
    terms = [str(t) for t in terms]
    _emit(args, "count", {"r": args.r, "nmax": args.nmax, "method": args.method},
          {"r": args.r, "terms": terms}, " ".join(terms))
    return EXIT_OK


def cmd_scheme(args):
    scheme = build_scheme(args.r)
    _emit(args, "scheme", {"r": args.r}, scheme.to_json(), scheme.pretty())
    return EXIT_OK


def cmd_eliminate(args):
    timeout = None if math.isinf(args.timeout) else args.timeout
    if timeout == 0:  # before the cache, so that a hit exits 3 as well
        raise EliminationTimeout(f"{args.backend} elimination exceeded its time budget of {timeout} s")
    payload = _cached(args, "equation", {"backend": args.backend}, lambda: compress_exponents(
        eliminate(build_scheme(args.r), backend=args.backend, timeout=timeout), args.r).to_json())
    equation = MultivariatePolynomial.from_json(payload)
    verdict = match_equation(equation, reference_equation(args.r)) if args.r <= 4 else None
    cutoff = max(50, 2 * (equation.degree("x") + equation.degree("F")) + 1)
    annihilates = verify_annihilation(equation, word_counts(args.r, cutoff))
    lines = [f"P_{args.r}(x, F) = {equation.to_text(f_major)}"]
    if verdict is not None:
        lines.append(f"reference match: {verdict}")
    lines.append(f"annihilates series mod x^{cutoff}: {annihilates}")
    _emit(
        args, "eliminate",
        {"r": args.r, "backend": args.backend, "timeout": "none" if timeout is None else timeout},
        {"equation": payload, "reference_match": verdict, "annihilates_series": annihilates,
         "series_cutoff": cutoff},
        "\n".join(lines),
    )
    return EXIT_OK if annihilates and verdict != "mismatch" else EXIT_VERIFICATION


def cmd_guess(args):
    if args.algebraic:
        nterms = args.terms or terms_needed(args.max_deg_x, args.max_deg_f + 1)
        poly = guess_algebraic(word_counts(args.r, nterms - 1), args.max_deg_x, args.max_deg_f)
        if poly is None:
            print("no algebraic equation found within the bounds", file=sys.stderr)
            return EXIT_INSUFFICIENT
        verdict = match_equation(poly, reference_equation(args.r)) if args.r <= 4 else None
        text = poly.to_text(f_major)
        _emit(args, "guess-algebraic",
              {"r": args.r, "max_deg_x": args.max_deg_x, "max_deg_f": args.max_deg_f},
              {"equation": poly.to_json(), "reference_match": verdict},
              text if verdict is None else f"{text}\nreference match: {verdict}")
        return EXIT_VERIFICATION if verdict == "mismatch" else EXIT_OK

    nterms = args.terms or terms_needed(args.max_order, args.max_degree + 2)
    # not cached: the guess costs little more than the terms that would
    # re-verify a cached recurrence
    rec = guess_recurrence(word_counts(args.r, nterms - 1), args.max_order, args.max_degree)
    if rec is None:
        print("no recurrence found within the bounds", file=sys.stderr)
        return EXIT_INSUFFICIENT
    _emit(args, "guess",
          {"r": args.r, "max_order": args.max_order, "max_degree": args.max_degree, "terms": nterms},
          {"recurrence": rec.to_json(), "status": "empirically-verified"},
          f"{rec}\nstatus: empirically-verified")
    return EXIT_OK


def cmd_asympt(args):
    params = {"nmax": args.nmax, "tol": args.tol}
    report = _cached(args, "report", params,
                     lambda: conjecture_check(args.r, nmax=args.nmax, tol=args.tol))
    _emit(args, "asympt", {"r": args.r, **params}, report, report_text(report))
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


class _Parser(argparse.ArgumentParser):
    # argparse would exit 2, which is the brute-force cap's code
    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="avoidwords",
        description="count 123-avoiding words with fixed letter multiplicities, "
        "derive the algebraic equations their generating functions satisfy, "
        "guess recurrences, and check the growth law",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json"), cached=True):
        p.add_argument("--r", type=int, required=True, help="occurrences of each letter")
        p.add_argument("--format", choices=list(formats), default="text")
        if cached:
            p.add_argument("--cache-dir", default=None, help="cache directory (env AVOIDWORDS_CACHE_DIR)")
            p.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("count", help="print w_r(0..nmax)")
    add_common(p, formats=("text", "json", "bfile"))
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument(
        "--method",
        choices=["brute", "recurrence", "scheme", "linear-rec"],
        default="scheme",
    )
    p.add_argument("--cap", type=int, default=DEFAULT_BRUTE_CAP, help="brute-force total length cap")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("scheme", help="print the equation system")
    add_common(p, cached=False)
    p.set_defaults(func=cmd_scheme)

    p = sub.add_parser("eliminate", help="derive the algebraic equation for f_r")
    add_common(p)
    p.add_argument("--backend", choices=["buchberger", "resultants"], default="resultants")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT, help="seconds; inf for no limit")
    p.set_defaults(func=cmd_eliminate)

    p = sub.add_parser("guess", help="guess a recurrence (or algebraic equation)")
    add_common(p, cached=False)
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--terms", type=int, default=None)
    p.add_argument("--algebraic", action="store_true")
    p.add_argument("--max-deg-x", type=int, default=4)
    p.add_argument("--max-deg-f", type=int, default=8)
    p.set_defaults(func=cmd_guess)

    p = sub.add_parser("asympt", help="growth-rate and constant report")
    add_common(p)
    p.add_argument("--nmax", type=int, default=2000)
    p.add_argument("--tol", type=float, default=0.01)
    p.set_defaults(func=cmd_asympt)

    return parser


# least values of the sizes, search bounds and budgets that argparse leaves
# unchecked
MINIMUM = {
    "r": 1, "nmax": 0, "max_order": 0, "max_degree": 0, "max_deg_x": 0,
    "max_deg_f": 0, "terms": 1, "timeout": 0, "cap": 0,
}


def _check_ranges(args):
    for name, low in MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and not value >= low:
            raise ValueError(f"--{name.replace('_', '-')} must be >= {low}, got {value}")
    tol = getattr(args, "tol", None)
    if tol is not None and not tol > 0:
        raise ValueError(f"--tol must be > 0, got {tol}")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        _check_ranges(args)
        return args.func(args)
    except (ValueError, ArithmeticError, EliminationTimeout, OSError, MemoryError) as exc:
        # a bare MemoryError has an empty message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
