"""Reference equations and recurrences shipped with the package.

Each artifact is one canonical JSON file, ``data/{kind}_r{r}.json``, and
that file is its only source. Files with status ``reference`` hold the
known algebraic equations (r = 1..4) and recurrences (r = 1..3). The
recurrences for r = 4 and 5 have status ``empirically-verified``: this
package's own guesser produced them and they were verified exactly against
the scheme series, but they are not proved.
"""

import json
from importlib import resources

from .guessing import LinearRecurrence
from .polynomials import MultivariatePolynomial


def _data(kind, r):
    """The parsed ``data/{kind}_r{r}.json``, or None when there is no such file."""
    path = resources.files("avoidwords") / "data" / f"{kind}_r{r}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def _reference(kind, r):
    data = _data(kind, r)
    if data is None or data["status"] != "reference":
        raise KeyError(f"no reference {kind} for r={r}")
    return data


def reference_equation(r):
    """The known algebraic equation P_r(x, F) in canonical form (r <= 4)."""
    return MultivariatePolynomial.from_json(_reference("equation", r)["polynomial"])


def reference_recurrence(r):
    """The known denominator-cleared recurrence for w_r (r <= 3)."""
    return LinearRecurrence.from_json(_reference("recurrence", r)["recurrence"])


def load_cached_recurrence(r):
    """A recurrence for w_r: the reference one, or a guessed-and-verified one.

    Guessed recurrences are only empirically verified; callers re-verify
    them against freshly computed terms before relying on them for long
    extensions.
    """
    data = _data("recurrence", r)
    if data is None:
        raise FileNotFoundError(
            f"no cached recurrence for r={r}; run the guesser and save one"
        )
    return LinearRecurrence.from_json(data["recurrence"])
