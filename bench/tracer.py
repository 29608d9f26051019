"""Traced child process: wrap the anomaly layers, run one invocation, and
print its spans and counters as one JSON object on stdout.

    PYTHONPATH=src python bench/tracer.py -m anomaly.cli verify --format json --order 3
    PYTHONPATH=src python bench/tracer.py bench/spin_wide.py

The arguments after ``tracer.py`` are the ones the untraced process takes.
No source file changes: the wrappers are installed at run time by rebinding
names in every ``anomaly`` module namespace that holds them (``theta_series``
is bound in ``bundles``, ``verifier`` and ``cli``, for instance), and by
replacing a few methods on their classes.  The program's own stdout is
captured and returned in the JSON, so the parent checks it like the stdout
of an untraced invocation.

Every public function of a layer module gets a span, except the hot ones in
``COUNT_ONLY``, which only count calls.  The methods in ``install_methods``
only count as well: a span on them would swamp the trace.  A layer, function
or method that does not exist is skipped; the JSON lists what was wrapped.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import importlib.util
import io
import itertools
import json
import os
import sys
import time
from pathlib import Path

LAYERS = ("cli", "verifier", "bundles", "genera", "theta", "qseries", "algebra")
COUNT_ONLY = frozenset({"algebra.as_rational", "algebra.power_sum_in_pontryagin"})


class Recorder:
    """Spans and counters of one invocation, kept in memory until the end.

    A span is ``(span id, parent span id, name, start, end)``; the parent id
    of a top-level span is 0, and all spans share ``trace_id``.
    """

    def __init__(self):
        self.trace_id = f"{os.getpid()}-{time.time_ns()}"
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: collections.Counter = collections.Counter()
        self.distinct: dict[str, set] = {}
        self.caches: dict[str, object] = {}
        self._stack = [0]
        self._next_id = itertools.count(1).__next__

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; ``after(args, kwargs, result)`` runs outside it."""
        stack, spans, next_id, clock = self._stack, self.spans, self._next_id, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count(self, name: str, fn):
        counters = self.counters
        counters[name] += 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def note_max(self, name: str, value: int):
        if value > self.counters[name]:
            self.counters[name] = value

    def dump(self, exit_code: int, stdout: str, wrapped: list[str]) -> dict:
        counters = dict(self.counters)
        for name, seen in self.distinct.items():
            counters[f"{name}.distinct"] = len(seen)
        for name, cached in self.caches.items():
            info = cached.cache_info()
            counters[f"{name}.hits"] = info.hits
            counters[f"{name}.misses"] = info.misses
        return {
            "trace_id": self.trace_id,
            "exit": exit_code,
            "stdout": stdout,
            "wrapped": wrapped,
            "spans": self.spans,
            "counters": counters,
        }


def _distinct_args(rec: Recorder, name: str):
    seen = rec.distinct.setdefault(name, set())

    def after(args, kwargs, result):
        seen.add((args, tuple(sorted(kwargs.items()))))

    return after


def _assemble_size(rec: Recorder, name: str):
    """Largest term count and denominator bit-length of the assemble_Q output."""
    rec.counters["verifier.max_terms"] += 0
    rec.counters["verifier.max_den_bits"] += 0

    def after(args, kwargs, result):
        for poly in result.coeffs.values():
            rec.note_max("verifier.max_terms", len(poly.terms))
            for coeff in poly.terms.values():
                rec.note_max("verifier.max_den_bits", coeff.denominator.bit_length())

    return after


AFTER_HOOKS = {"genera.ahat_form": _distinct_args, "verifier.assemble_Q": _assemble_size}


def install_functions(rec: Recorder, modules: dict) -> list[str]:
    """Wrap the public functions of each layer in every namespace binding them."""
    wrapped = []
    replacements: dict[int, tuple[object, object]] = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # bound here, defined elsewhere
            name = f"{layer}.{attr}"
            if name in COUNT_ONLY:
                wrapper = rec.count(f"{name}.calls", obj)
            else:
                hook = AFTER_HOOKS.get(name)
                wrapper = rec.span(name, obj, hook(rec, name) if hook else None)
            if hasattr(obj, "cache_info"):
                rec.caches[name] = obj
            replacements[id(obj)] = (obj, wrapper)
            wrapped.append(name)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "anomaly" and not mod_name.startswith("anomaly."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    return sorted(wrapped)


def _poly_mul(rec: Recorder, prefix: str, orig):
    counters = rec.counters
    calls, pairs, max_terms = f"{prefix}.calls", f"{prefix}.pairs", f"{prefix}.max_terms"
    counters[calls] += 0
    counters[pairs] += 0
    counters[max_terms] += 0

    @functools.wraps(orig)
    def mul(self, other):
        result = orig(self, other)
        counters[calls] += 1
        other_terms = getattr(other, "terms", None)
        counters[pairs] += len(self.terms) * (1 if other_terms is None else len(other_terms))
        if result is not NotImplemented and len(result.terms) > counters[max_terms]:
            counters[max_terms] = len(result.terms)
        return result

    return mul


def _series_mul(rec: Recorder, prefix: str, orig):
    counters = rec.counters
    calls, pairs = f"{prefix}.calls", f"{prefix}.pairs"
    counters[calls] += 0
    counters[pairs] += 0

    @functools.wraps(orig)
    def mul(self, other):
        counters[calls] += 1
        counters[pairs] += len(self.coeffs) * len(getattr(other, "coeffs", ()))
        return orig(self, other)

    return mul


# (layer, class, methods, counter prefix, wrapper factory); one wrapper per
# row replaces every listed method, so __rmul__ = __mul__ stays one function.
METHODS = (
    ("algebra", "GradedPoly", ("__mul__", "__rmul__"), "algebra.GradedPoly.mul", _poly_mul),
    ("algebra", "GradedPoly", ("__init__",), "algebra.GradedPoly.init", None),
    ("qseries", "QHalfSeries", ("__mul__",), "qseries.QHalfSeries.mul", _series_mul),
    ("bundles", "VirtualBundle", ("lambda_power",), "bundles.lambda_power", None),
    ("bundles", "VirtualBundle", ("sym_power",), "bundles.sym_power", None),
)


def install_methods(rec: Recorder, modules: dict) -> list[str]:
    wrapped = []
    for layer, cls_name, methods, prefix, factory in METHODS:
        cls = getattr(modules.get(layer), cls_name, None)
        orig = getattr(cls, methods[0], None) if cls is not None else None
        if orig is None:
            continue
        wrapper = factory(rec, prefix, orig) if factory else rec.count(f"{prefix}.calls", orig)
        for method in methods:
            if getattr(cls, method, None) is orig:
                setattr(cls, method, wrapper)
        wrapped.append(prefix)
    return wrapped


def install(rec: Recorder) -> list[str]:
    """Import every layer that exists and wrap it; returns the names wrapped."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"anomaly.{layer}")
        except ModuleNotFoundError:
            pass
    return sorted(install_functions(rec, modules) + install_methods(rec, modules))


def _entry(rec: Recorder, argv: list[str]):
    """The callable the untraced process would run, and its arguments."""
    if argv[0] == "-m":
        module = importlib.import_module(argv[1])
        entry, rest = module.main, argv[2:]
        name = f"{argv[1].rpartition('.')[2]}.main"
    else:
        path = Path(argv[0])
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
        entry, rest, name = module.main, argv[1:], f"{path.stem}.main"
    if getattr(entry, "__wrapped__", None) is None:  # not a layer function already spanned
        entry = rec.span(name, entry)
    return entry, rest


def main(argv: list[str]) -> int:
    rec = Recorder()
    wrapped = install(rec)
    entry, rest = _entry(rec, argv)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        try:
            code = entry(rest)
        except SystemExit as exc:
            code = exc.code
    code = code if isinstance(code, int) else (0 if code is None else 1)
    json.dump(rec.dump(code, captured.getvalue(), wrapped), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
