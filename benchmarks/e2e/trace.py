"""The harness's own span recorder.

The traced run wraps every call into a layer's public function in a span:
name, start, end, the span that caused it, and the id of the op it belongs
to.  Counts taken at the same boundaries (response bytes, 503s, server
``elapsed_ms``) are recorded beside them.  Everything stays in memory until
:meth:`Recorder.dump` writes it out at exit.  No span lives inside ``src/``.

The untraced run drives the same op scripts through :class:`NullRecorder`,
so the two runs differ only by the recording itself; their ratio is
``bench.trace_overhead_x``.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Any, Dict, List, Tuple

#: One recorded span: ``[name, start_s, end_s, parent_index, op_id]``.
Span = List[Any]


class NullRecorder:
    """Records nothing; ``span`` costs one attribute lookup and a call."""

    enabled = False
    op = -1
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass


class _Open:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name

    def __enter__(self) -> "_Open":
        rec = self.rec
        parent = rec._stack[-1] if rec._stack else -1
        self.index = len(rec.spans)
        rec._stack.append(self.index)
        rec.spans.append([self.name, time.perf_counter(), None, parent, rec.op])
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        rec = self.rec
        rec.spans[self.index][2] = end
        rec._stack.pop()


class Recorder:
    """In-memory spans and counts; ``op`` is set by the loop that drives ops."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, List[Tuple[int, float]]] = {}
        self._stack: List[int] = []
        self.op = -1

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append((self.op, value))

    def durations(self, name: str) -> List[Tuple[int, float]]:
        """``(op_id, seconds)`` of every finished span called ``name``."""
        return [(s[4], s[2] - s[1]) for s in self.spans
                if s[0] == name and s[2] is not None]

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        selfs = self_times(self.spans)
        spans = [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "op": s[4], "self": selfs[i]}
            for i, s in enumerate(self.spans) if s[2] is not None
        ]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": spans, "counts": self.counts}, fh)


def self_times(spans: List[Span]) -> List[float]:
    """Self time of each span: duration minus the union of its children.

    Children are clipped to the parent and overlapping children (spans
    recorded from two threads, say) are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s[2] is not None and s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out: List[float] = []
    for i, s in enumerate(spans):
        if s[2] is None:
            out.append(0.0)
            continue
        start, end = s[1], s[2]
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out
