"""Per-layer metrics from the spans and counters of traced invocations.

A span's self time is its duration minus the durations of its child spans.
Spans nest (the engine is single-threaded), so the self times of all spans
of one invocation add up to the duration of its top-level spans.  A
function's inclusive time counts only its outermost spans, so a recursive
call (``impose_condition`` maps itself over series coefficients) is not
counted twice; its call count counts every span.
"""

from __future__ import annotations

from collections import defaultdict


def span_stats(spans) -> tuple[dict[str, dict[str, float]], float, float]:
    """Per-name ``{"s", "self_s", "calls"}`` for the spans of one invocation.

    Returns the table, the summed duration of the top-level spans and the
    summed self time of all spans.
    """
    by_id = {sid: (parent, name) for sid, parent, name, _, _ in spans}
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    top = self_sum = 0.0
    for sid, parent, name, start, end in spans:
        duration = end - start
        own = duration - child_time[sid]
        row = stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += own
        self_sum += own
        ancestor = parent
        while ancestor and by_id[ancestor][1] != name:
            ancestor = by_id[ancestor][0]
        if not ancestor:
            row["s"] += duration
        if not parent:
            top += duration
    return stats, top, self_sum


class RoundTrace:
    """Spans and counters merged over the traced invocations of one round."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.counters: dict[str, float] = {}
        self.wrapped: set[str] = set()
        self.total_s = 0.0
        self.self_sum = 0.0
        self.span_count = 0

    def add(self, dump: dict):
        stats, top, self_sum = span_stats(dump["spans"])
        self.total_s += top
        self.self_sum += self_sum
        self.span_count += len(dump["spans"])
        for name, row in stats.items():
            merged = self.stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for key, value in row.items():
                merged[key] += value
        for name, value in dump["counters"].items():
            if name.endswith(("max_terms", "max_den_bits")):
                self.counters[name] = max(self.counters.get(name, 0), value)
            else:
                self.counters[name] = self.counters.get(name, 0) + value
        self.wrapped.update(dump["wrapped"])

    def value(self, metric: str) -> float | None:
        """The metric's value, 0 for a wrapped layer never reached, None if absent."""
        if metric in self.counters:
            return self.counters[metric]
        base, _, field = metric.rpartition(".")
        if field == "useful_ratio":
            distinct, calls = self.value(f"{base}.distinct"), self.value(f"{base}.calls")
            if distinct is None or calls is None:
                return None
            return distinct / calls if calls else 0.0
        if field in ("s", "self_s", "calls") and base in self.wrapped:
            return self.stats.get(base, {}).get(field, 0)
        return None
