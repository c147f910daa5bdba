"""In-memory spans around the benchmark's calls into pqosc.

A span records its name, start, end, parent and the id of the operation it
belongs to, plus computed counts passed as keyword attributes (for example
`evals=17`).  Spans stay in a list until the run ends; `self_time` and
`totals` turn them into per-layer figures.  `NO_TRACE` has the same
interface and records nothing, so the untimed and the traced code paths
are the same code.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_op = 0
        self.section = "pass"

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            op_id = self._next_op
            self._next_op += 1
        else:
            op_id = parent["op"]
        rec = {
            "name": name,
            "op": op_id,
            "parent": parent["id"] if parent else None,
            "id": len(self.spans),
            "section": self.section,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def totals(self, section: str) -> tuple[dict, dict]:
        """Self time per span name and summed attributes, over one section."""
        times: dict[str, float] = {}
        counts: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            if s["section"] != section:
                continue
            times[s["name"]] = times.get(s["name"], 0.0) + own
            for key, value in s["attrs"].items():
                if isinstance(value, (int, float)):
                    counts[key] = counts.get(key, 0) + value
        return times, counts


class _NoTracer:
    @contextmanager
    def span(self, name: str, **attrs):
        yield attrs


NO_TRACE = _NoTracer()
