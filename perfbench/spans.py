"""In-memory span tracer used by the traced (``--trace 1``) run.

Spans are recorded around calls into the program's public functions from
the benchmark's own code: name, start, end, parent span and the id of the
request (dialogue, query, store) that caused them.  They stay in memory
until the run ends.  A span's self time is its duration minus the time
its child spans cover; children of one span never overlap because every
replay is single-threaded.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append(
            [self.name, perf_counter_ns(), 0, parent, tracer.request]
        )
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        tracer.spans[self.index][2] = perf_counter_ns()
        tracer._stack.pop()


class Tracer:
    """Records spans; with ``enabled=False`` every span is a shared
    no-op, so an untraced replay runs the same code."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: ``[name, start_ns, end_ns, parent_index, request]`` per span.
        self.spans: list[list] = []
        #: Id of the request the next spans belong to.
        self.request = 0
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name)

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_ns`` and ``self_ns``."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: dict[str, dict] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(
                name, {"calls": 0, "total_ns": 0, "self_ns": 0}
            )
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[index]
        return table

    def write(self, path: str) -> None:
        """Write every span as one JSON line (called once, at exit)."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
