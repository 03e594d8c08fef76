"""Spans recorded by the benchmark around its calls into loadsmith layers.

loadsmith's files are untouched: every span opens and closes in the
benchmark's own code, around a call it makes or in a wrapper that
``layers.py`` puts in place of a layer function for a traced pass. A span
has a name, a start and an end (``time.perf_counter`` seconds), the span it
was opened under, and the id of the pass it belongs to, shared by every span
of that pass. Counts measured at the same boundary ride on the span. Spans
stay in memory and are written once, as NDJSON, when the run ends.

A layer's self time is its span's duration minus the time its direct child
spans cover. The root ``pass`` span's self time is the part of a pass that no
layer span covers: the untimed residual.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

PASS = "pass"


class Span:
    __slots__ = ("tracer", "id", "name", "parent", "pass_id", "start", "end", "counts")

    def __init__(self, tracer: "Tracer", name: str, counts: dict):
        self.tracer = tracer
        self.name = name
        self.counts = counts

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.id = tracer.opened
        tracer.opened += 1
        self.parent = tracer.stack[-1].id if tracer.stack else None
        self.pass_id = tracer.pass_id
        tracer.stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = perf_counter()
        self.tracer.stack.pop()
        self.tracer.spans.append(self)
        return False

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def record(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "pass": self.pass_id,
            "start_s": self.start,
            "end_s": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Records spans in memory; ``pass_id`` tags every span opened meanwhile."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.opened = 0
        self.pass_id: int | None = None

    def span(self, name: str, **counts) -> Span:
        return Span(self, name, counts)

    def adopt(self, path: Path) -> None:
        """Take in spans another process wrote with ``write_ndjson``.

        Its root spans become children of the span open here, and all of
        them join the current pass.
        """
        parent = self.stack[-1].id if self.stack else None
        ids: dict[int, int] = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            span = Span(self, record["name"], record["counts"])
            span.id = ids[record["id"]] = self.opened
            self.opened += 1
            span.parent = parent if record["parent"] is None else ids[record["parent"]]
            span.pass_id = self.pass_id
            span.start, span.end = record["start_s"], record["end_s"]
            self.spans.append(span)

    def write_ndjson(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = sorted(self.spans, key=lambda s: s.id)
        path.write_text(
            "".join(json.dumps(s.record()) + "\n" for s in ordered), encoding="utf-8"
        )

    def per_pass(self) -> dict[int, dict]:
        """Per pass id: ``self_ms`` and ``counts`` by span name, and ``pass_ms``.

        Spans of one name opened several times in a pass are summed.
        """
        child_s: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        passes: dict[int, dict] = defaultdict(
            lambda: {"self_ms": defaultdict(float), "counts": defaultdict(float), "pass_ms": None}
        )
        for s in self.spans:
            entry = passes[s.pass_id]
            entry["self_ms"][s.name] += (s.end - s.start - child_s[s.id]) * 1e3
            for name, value in s.counts.items():
                entry["counts"][name] += value
            if s.name == PASS:
                entry["pass_ms"] = (s.end - s.start) * 1e3
        return dict(passes)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def count(self, name: str, value: float) -> None:
        pass


class NullTracer:
    """Tracing off: every span is one shared object that records nothing."""

    enabled = False
    _span = _NullSpan()

    def span(self, name: str, **counts) -> _NullSpan:
        return self._span
