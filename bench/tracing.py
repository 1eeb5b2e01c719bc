"""In-memory spans recorded around calls into the package's layers.

A span has a name ``<layer>.<what>``, a start and an end (perf_counter
seconds), the span open around it when it started, and an op id shared by
the spans of one operation (a study repetition, a network, a CLI query).
Spans stay in memory until :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[str] = []
        self._open: list[int] = []

    def begin(self, name: str, op: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ops.append(op)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> float:
        self.ends[index] = now = perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")
        return now - self.starts[index]

    @contextmanager
    def span(self, name: str, op: str):
        index = self.begin(name, op)
        try:
            yield index
        finally:
            self.end(index)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def busy(self) -> dict[str, float]:
        """Per span name: total time spent inside spans of that name."""
        totals: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            totals[name] += self.duration(i)
        return dict(totals)

    def self_times(self) -> dict[str, float]:
        """Per layer: span time not covered by the span's direct children."""
        children = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += self.duration(i)
        layers: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            layers[name.split(".", 1)[0]] += self.duration(i) - children[i]
        return dict(layers)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, name in enumerate(self.names):
                record = [i, name, self.starts[i], self.ends[i], self.parents[i], self.ops[i]]
                out.write(json.dumps(record) + "\n")


class NoTrace:
    """Stand-in for :class:`Tracer` on untraced runs: records nothing."""

    def span(self, name: str, op: str):
        return nullcontext()
