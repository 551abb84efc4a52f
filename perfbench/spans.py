"""In-memory spans around the benchmark's calls into qvalued.

A span records its name, start, end, parent span and run id.  Spans are
kept in a list and written out once, at the end of a run.  With tracing
off, `Tracer.call` still times the call (the benchmark needs the duration)
but records nothing.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn under a span named ``name``; return (result, seconds)."""
        with self.span(name):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
        return out, dt

    def self_times(self, name: str) -> list[float]:
        """Duration minus the time covered by direct children, per span."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        return [
            s["end"] - s["start"] - child.get(s["id"], 0.0) for s in self.spans if s["name"] == name
        ]

    def median_self(self, name: str) -> float:
        """Median self time of the spans named ``name``; 0 when there are none."""
        times = self.self_times(name)
        return statistics.median(times) if times else 0.0

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
