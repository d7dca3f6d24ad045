"""In-memory spans recorded around the benchmark's own calls into the library.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 for a root) and ``op`` the index of the benchmark
operation it belongs to.  Spans stay in memory while the workload runs and
are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

NAME, START, END, PARENT, OP = range(5)


class _Open:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list) -> None:
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> list:
        self.record[START] = time.perf_counter()
        return self.record

    def __exit__(self, *exc_info) -> None:
        self.record[END] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Collects spans; ``op`` tags every span opened until it is changed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    def span(self, name: str) -> _Open:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return _Open(self, record)

    def add(self, name: str, start: float, end: float) -> list:
        """Record an already-timed interval as a child of the open span."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, start, end, parent, self.op]
        self.spans.append(record)
        return record

    def self_times(self) -> List[float]:
        """Each span's duration minus the part of it its children cover."""
        children: Dict[int, List[list]] = defaultdict(list)
        for record in self.spans:
            if record[PARENT] >= 0:
                children[record[PARENT]].append(record)
        out = []
        for index, record in enumerate(self.spans):
            covered = 0.0
            cursor = record[START]
            for child in sorted(children.get(index, ()), key=lambda c: c[START]):
                lo = max(child[START], cursor)
                hi = min(child[END], record[END])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(record[END] - record[START] - covered)
        return out

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
