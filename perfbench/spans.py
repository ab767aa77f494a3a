"""Spans around the package's public functions, recorded from outside.

``instrument(recorder)`` wraps every public function of each layer module,
plus the few methods the per-layer metrics need, and rebinds each name in
every ``avoidwords.*`` namespace that holds the same object (``cli``,
``guessing`` and ``asymptotics`` import by name). Nothing under ``src/``
changes. A wrapped function that is already open on the span stack runs
unrecorded, so recursion through module globals (``polynomial_gcd``) counts
only the outermost call.

Spans are kept in memory. When a span closes its self time (duration minus
its direct children) and its layer time (duration minus the descendants that
belong to other layers) are known, so ``layer_metrics`` needs no second pass.
Time spent in the hooks that compute counters is charged to no layer.
"""

import importlib
import inspect
import os
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

LAYERS = ("cli", "cache", "scheme", "series", "linalg", "guessing", "polynomials",
          "elimination", "groebner", "asymptotics", "fixtures", "words")

# Called once per term or per word inside loops; a span there would mostly
# measure the tracer. The involution and containment tests are timed by the
# involution job's own loop instead.
UNTRACED = {"canon_pair", "variable_name", "contains_pattern", "avoidance_involution"}


class Recorder:
    def __init__(self):
        self.spans = []  # (name, layer, duration, self time, layer time, calls)
        self.values = defaultdict(int)
        self._stack = []  # [name, layer, start, children, foreign]
        self._open = defaultdict(int)

    def is_open(self, name):
        return self._open[name] > 0

    def enter(self, name, layer):
        self._open[name] += 1
        self._stack.append([name, layer, perf_counter(), 0.0, 0.0])

    def exit(self):
        name, layer, start, children, foreign = self._stack.pop()
        duration = perf_counter() - start
        self._open[name] -= 1
        self._close(name, layer, duration, children, foreign)

    def add(self, name, layer, duration, calls):
        """A span measured by the caller, e.g. a loop of `calls` calls."""
        self._close(name, layer, duration, 0.0, 0.0, calls)

    def exclude(self, duration):
        """Charge `duration` (hook work) to no layer."""
        if self._stack:
            self._stack[-1][3] += duration
            self._stack[-1][4] += duration

    def _close(self, name, layer, duration, children, foreign, calls=1):
        self.spans.append((name, layer, duration, duration - children, duration - foreign, calls))
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent[4] += foreign if parent[1] == layer else duration

    def count(self, key, n):
        self.values[key] += n

    def set_max(self, key, value):
        self.values[key] = max(self.values[key], value)

    def table(self):
        """{span name: [calls, inclusive s, layer-exclusive s, self s]}."""
        out = {}
        for name, _, duration, self_s, layer_s, calls in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0, 0.0])
            row[0] += calls
            row[1] += duration
            row[2] += layer_s
            row[3] += self_s
        return out


def _wrap(recorder, fn, name, layer, hook):
    @wraps(fn)
    def traced(*args, **kwargs):
        if recorder.is_open(name):
            return fn(*args, **kwargs)
        recorder.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit()
        if hook is not None:
            start = perf_counter()
            try:
                hook(recorder, args, result)
            except (AttributeError, TypeError, ValueError):
                recorder.values["trace.hook_errors"] += 1  # the package changed shape
            recorder.exclude(perf_counter() - start)
        return result

    return traced


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def _solve_series_hook(rec, args, sol):
    rec.count("scheme.coeffs", sol.cutoff * len(sol.series))
    rec.set_max("scheme.max_coeff_bits",
                max(abs(c).bit_length() for s in sol.series.values() for c in s.coeffs))


def _solve_linear_hook(rec, args, result):
    matrix = args[0]
    rec.count("linalg.cells", len(matrix) * (len(matrix[0]) if matrix else 0))
    rec.count("linalg.kernel_dim", len(result.kernel))


def _accepted_hook(rec, args, result):
    rec.count("guessing.accepted", result is not None)


HOOKS = {
    "cache.Cache.load": lambda rec, args, payload: rec.count("cache.hits", payload is not None),
    # the cache directory is new and empty at the start of every pass
    "cache.Cache.store": lambda rec, args, entry: rec.set_max(
        "cache.store_bytes", _dir_bytes(args[0].directory)),
    "scheme.solve_series": _solve_series_hook,
    "linalg.solve_linear_system": _solve_linear_hook,
    "guessing.guess_recurrence": _accepted_hook,
    "guessing.guess_algebraic": _accepted_hook,
    "guessing.LinearRecurrence.extend": lambda rec, args, terms: rec.count(
        "guessing.extend_terms", max(0, len(terms) - len(args[1]))),
    "polynomials.resultant": lambda rec, args, res: rec.set_max("polynomials.max_terms", len(res)),
    "groebner.groebner_basis": lambda rec, args, basis: rec.set_max("groebner.basis_size", len(basis)),
    "words.count_avoiders_bruteforce": lambda rec, args, n: rec.count("words.bruteforce_count", n),
}

# methods and private helpers that per-layer metrics need; a name a later
# version no longer has is skipped
EXTRA = {
    "cache": ("Cache.load", "Cache.store"),
    "series": ("TruncatedSeries.__mul__",),
    "guessing": ("LinearRecurrence.verify", "LinearRecurrence.extend", "_modular_kernel"),
}


def _targets(layer, module):
    for attr, obj in vars(module).items():
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not attr.startswith("_") and attr not in UNTRACED
                and not inspect.isgeneratorfunction(obj)):
            yield attr, obj
    for path in EXTRA.get(layer, ()):
        owner, _, attr = path.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        if hasattr(holder, attr):
            yield path, getattr(holder, attr)


def instrument(recorder):
    """Wrap the layer modules' functions; returns the number of names rebound."""
    modules = {layer: importlib.import_module(f"avoidwords.{layer}") for layer in LAYERS}
    namespaces = [m for n, m in sys.modules.items() if n == "avoidwords" or n.startswith("avoidwords.")]
    owners = namespaces + list({
        id(v): v for m in namespaces for v in vars(m).values()
        if inspect.isclass(v) and v.__module__.startswith("avoidwords.")}.values())
    rebound = 0
    for layer, module in modules.items():
        for path, fn in list(_targets(layer, module)):
            name = f"{layer}.{path}"
            traced = _wrap(recorder, fn, name, layer, HOOKS.get(name))
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, attr, traced)
                        rebound += 1
    return rebound


def layer_metrics(recorder):
    """The per-layer metrics of one traced pass, by name."""
    table = recorder.table()
    values = recorder.values

    def calls(name):
        return table.get(name, [0])[0]

    def inclusive(name):
        return table.get(name, [0, 0.0])[1]

    def own(name):
        return table.get(name, [0, 0.0, 0.0])[2]

    self_s = dict.fromkeys(LAYERS, 0.0)
    for _, layer, _, span_self, _, _ in recorder.spans:
        self_s[layer] += span_self
    total = sum(self_s.values()) or 1.0
    loads = calls("cache.Cache.load")
    solves = calls("linalg.solve_linear_system") + calls("guessing._modular_kernel")
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.self_share"] = self_s[layer] / total
    m.update({
        "cli.output_bytes": values["cli.output_bytes"],
        "cache.load_calls": loads,
        "cache.hit_ratio": values["cache.hits"] / loads if loads else 0.0,
        "cache.load_s": inclusive("cache.Cache.load"),
        "cache.store_calls": calls("cache.Cache.store"),
        "cache.store_s": inclusive("cache.Cache.store"),
        "cache.store_bytes": values["cache.store_bytes"],
        "scheme.build_s": inclusive("scheme.build_scheme"),
        "scheme.solve_calls": calls("scheme.solve_series"),
        "scheme.solve_s": inclusive("scheme.solve_series"),
        "scheme.coeffs": values["scheme.coeffs"],
        "scheme.max_coeff_bits": values["scheme.max_coeff_bits"],
        "series.mul_calls": calls("series.TruncatedSeries.__mul__"),
        "series.mul_s": inclusive("series.TruncatedSeries.__mul__"),
        "series.evaluate_bivariate_s": inclusive("series.evaluate_bivariate"),
        "linalg.solve_calls": calls("linalg.solve_linear_system"),
        "linalg.solve_s": inclusive("linalg.solve_linear_system"),
        "linalg.cells": values["linalg.cells"],
        "linalg.kernel_dim": values["linalg.kernel_dim"],
        "guessing.recurrence_s": own("guessing.guess_recurrence"),
        "guessing.algebraic_s": own("guessing.guess_algebraic"),
        "guessing.useful_ratio": values["guessing.accepted"] / solves if solves else 0.0,
        "guessing.extend_s": inclusive("guessing.LinearRecurrence.extend"),
        "guessing.extend_terms": values["guessing.extend_terms"],
        "guessing.verify_s": inclusive("guessing.LinearRecurrence.verify"),
        "polynomials.resultant_calls": calls("polynomials.resultant"),
        "polynomials.resultant_s": inclusive("polynomials.resultant"),
        "polynomials.gcd_s": inclusive("polynomials.polynomial_gcd"),
        "polynomials.squarefree_s": inclusive("polynomials.squarefree_part"),
        "polynomials.max_terms": values["polynomials.max_terms"],
        "elimination.eliminate_s": own("elimination.eliminate"),
        "elimination.annihilation_s": inclusive("elimination.verify_annihilation"),
        "elimination.match_s": inclusive("elimination.match_equation"),
        "groebner.basis_s": inclusive("groebner.groebner_basis"),
        "groebner.basis_size": values["groebner.basis_size"],
        "asymptotics.fit_s": own("asymptotics.conjecture_check"),
        "asymptotics.sequence_for_s": own("asymptotics.sequence_for"),
        "fixtures.reference_equation_s": inclusive("fixtures.reference_equation"),
        "fixtures.load_recurrence_s": inclusive("fixtures.load_cached_recurrence"),
        "words.involution_calls": calls("words.avoidance_involution"),
        "words.involution_s": inclusive("words.avoidance_involution"),
        "words.contains_s": inclusive("words.contains_pattern"),
        "words.bruteforce_s": inclusive("words.count_avoiders_bruteforce"),
        "words.bruteforce_count": values["words.bruteforce_count"],
        "words.recurrence_s": inclusive("words.count_avoiders_recurrence"),
    })
    return m
