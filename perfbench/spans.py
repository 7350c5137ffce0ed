"""A minimal span recorder: one context manager, spans kept in memory.

Each span records its name, start, end (perf_counter seconds), the index
of the span that was open when it started, and a dict of counts the
caller fills in at the same boundary.  A layer is the part of a span name
before the first dot.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body; yields the span's counts dict for the caller to fill."""
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "counts": {},
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec["counts"]
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= duration(s)
    return out
