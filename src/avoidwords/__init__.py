"""Exact enumeration of 123-avoiding words with r occurrences of each letter.

The package counts such words four independent ways (exhaustive search, a
symmetric multiset recurrence, the power-series solution of an algebraic
equation scheme, and linear extension by a guessed recurrence), derives the
algebraic equation of the counting generating function by exact elimination,
and checks the (r+1)*2^r growth law numerically.
"""

__version__ = "0.1.0"

import sys as _sys

# terms of thousands of decimal digits pass through int <-> str: in the
# scheme, brute-force and recurrence counts the CLI prints, and in cached
# sequences read back; the CPython conversion guard would reject them.
# `count --method linear-rec` prints decimals, which the guard does not limit
if hasattr(_sys, "set_int_max_str_digits"):
    _sys.set_int_max_str_digits(max(_sys.get_int_max_str_digits(), 2_000_000))

from .words import (
    P123,
    P132,
    P231,
    contains_pattern,
    count_avoiders_bruteforce,
    count_avoiders_recurrence,
    recurrence_counts,
    avoidance_involution,
)
from .scheme import (
    AlgebraicScheme,
    build_scheme,
    solve_series,
    word_counts,
)
from .polynomials import MultivariatePolynomial, resultant
from .elimination import (
    compress_exponents,
    eliminate,
    match_equation,
    verify_annihilation,
)
from .guessing import (
    LinearRecurrence,
    guess_algebraic,
    guess_recurrence,
)
from .asymptotics import conjecture_check, growth_ratio, fit_constant
from .fixtures import reference_equation, reference_recurrence, load_cached_recurrence

__all__ = [
    "P123",
    "P132",
    "P231",
    "contains_pattern",
    "count_avoiders_bruteforce",
    "count_avoiders_recurrence",
    "recurrence_counts",
    "avoidance_involution",
    "AlgebraicScheme",
    "build_scheme",
    "solve_series",
    "word_counts",
    "MultivariatePolynomial",
    "resultant",
    "eliminate",
    "compress_exponents",
    "verify_annihilation",
    "match_equation",
    "LinearRecurrence",
    "guess_recurrence",
    "guess_algebraic",
    "conjecture_check",
    "growth_ratio",
    "fit_constant",
    "reference_equation",
    "reference_recurrence",
    "load_cached_recurrence",
    "__version__",
]
