"""In-memory spans and the summary statistics the benchmark reports."""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

# the tail reported has this many samples beyond it
TAIL_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None at the root
    op: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def begin_op(self) -> int:
        self.op += 1
        return self.op

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), math.nan, parent, self.op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
            for s in self.spans
        ]


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    samples beyond it, by the nearest-rank rule: the (TAIL_BEYOND + 1)-th
    largest sample.  With TAIL_BEYOND samples or fewer it is the smallest."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)  # 1-based
    return 100.0 * rank / n, ordered[rank - 1]


# The calibration loop: Python iteration over numpy scalars, the mix of
# interpreter and allocator work that dominates the library's hot loops,
# so it slows with host contention about as much as they do.
CALIB_VALUES = np.linspace(-1.0, 1.0, 8000)


def calib_seconds() -> float:
    """Seconds one calibration loop takes right now."""
    t0 = time.perf_counter()
    total = 0.0
    for x in CALIB_VALUES:
        if abs(x) < 0.5:
            total += x * 0.5
    return time.perf_counter() - t0
