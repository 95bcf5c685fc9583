"""Spans around the benchmark's calls into exactdyn, kept in memory.

A span is (name, start, end, parent index, query index).  A layer's self
time is its spans' time minus the time of their child spans; the only
children are the program's calls back into the benchmark, to the oracle
handed to ``check_modulus``.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Any, Callable


def untraced(name: str, fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self._open: list[int] = []
        self.query = -1

    def __call__(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.query)

    def self_times(self, kind_of_query: Callable[[int], str]) -> dict[tuple[str, str], float]:
        """Self seconds summed by (query kind, span name)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[tuple[str, str], float] = defaultdict(float)
        for (name, start, end, _, query), children in zip(self.spans, child_time):
            totals[(kind_of_query(query), name)] += end - start - children
        return dict(totals)
