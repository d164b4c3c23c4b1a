"""In-memory spans recorded by the harness around its calls into each
layer (spans inside ``src/`` are a later issue).

A span is ``(id, name, start, end, parent, op)``: *parent* is the span
that was open in the same context when this one started (tracked with a
``ContextVar``, so concurrent request coroutines keep separate stacks)
and *op* is the operation/request id every span of one op shares.  Spans
stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextvars
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: ``span()`` hands back one shared no-op object."""

    enabled = False

    def span(self, name: str, op: Optional[int] = None):
        return _NULL_SPAN

    def add(self, name, start, end, parent=None, op=None):
        return None


class _OpenSpan:
    __slots__ = ("tracer", "record", "token")

    def __init__(self, tracer: "Tracer", name: str, op: Optional[int]):
        self.tracer = tracer
        # [id, name, start, end, parent, op]
        self.record = [None, name, 0.0, 0.0, None, op]

    def __enter__(self):
        tracer = self.tracer
        record = self.record
        record[0] = len(tracer.spans)
        parent = tracer.current.get()
        if parent is not None:
            record[4] = parent[0]
            if record[5] is None:
                record[5] = parent[5]
        tracer.spans.append(record)
        self.token = tracer.current.set(record)
        record[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[3] = time.perf_counter()
        self.tracer.current.reset(self.token)
        return False


class Tracer:
    """Tracing on: records every span in ``self.spans``."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "ledger_span", default=None)

    def span(self, name: str, op: Optional[int] = None) -> _OpenSpan:
        return _OpenSpan(self, name, op)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, op: Optional[int] = None) -> int:
        """Record a span measured elsewhere (a child process reports its
        stages; the parent re-bases them onto its own clock)."""
        sid = len(self.spans)
        self.spans.append([sid, name, start, end, parent, op])
        return sid

    # -- arithmetic

    def self_times(self) -> Dict[str, dict]:
        """Per span name: count, total time and self time in ms, where a
        span's self time is its duration minus the part of that interval
        its child spans cover (overlapping children are not counted
        twice)."""
        children: Dict[int, list] = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        table: Dict[str, dict] = {}
        for sid, name, start, end, _, _ in self.spans:
            covered = _covered(children.get(sid, ()), start, end)
            row = table.setdefault(
                name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - covered) * 1e3
        return table

    # -- output

    def write(self, stem: str) -> None:
        """Write ``<stem>.jsonl`` (one span per line) and
        ``<stem>.chrome.json`` (Chrome trace-event format; ops map to
        thread ids so concurrent requests get their own rows)."""
        with open(stem + ".jsonl", "w") as f:
            for sid, name, start, end, parent, op in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "op": op}) + "\n")
        events = [{"name": name, "ph": "X", "pid": 0,
                   "tid": 0 if op is None else op,
                   "ts": start * 1e6, "dur": (end - start) * 1e6}
                  for _, name, start, end, _, op in self.spans]
        with open(stem + ".chrome.json", "w") as f:
            json.dump({"traceEvents": events}, f)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total
