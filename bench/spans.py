"""In-memory spans around the benchmark's calls into ncgeom modules.

A span records its name, start and end (perf_counter seconds), the span
that encloses it and the request it belongs to.  Spans stay in memory and
are written out once, after the run.  `NULL_TRACER` has the same interface
and records nothing, so untraced runs pay only for an empty `with` block.
"""

from __future__ import annotations

import json
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.record["start"] = perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._request = 0

    def request(self, **attrs):
        """Root span of a new request; its id tags every span inside it."""
        self._request += 1
        return self.span("request", **attrs)

    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": self._request,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        return _Span(self, record)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class _NullTracer:
    _span = _NullSpan()

    def request(self, **attrs):
        return self._span

    def span(self, name: str, **attrs):
        return self._span


NULL_TRACER = _NullTracer()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap and
    their durations simply add up.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
