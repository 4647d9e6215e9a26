"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(name, start, end, parent, attrs)``; ``parent`` is the index
of the enclosing span or -1. The layer of a span is its name without
the last dotted part (``core.engine.apply`` -> ``core.engine``). Spans
stay in memory until :meth:`Tracer.write` saves them as gzipped JSONL.
"""
from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records spans; one built with ``enabled=False`` records nothing."""

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _parent(self) -> int:
        return self._stack[-1] if self._stack else -1

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body; yields the attrs dict so the body can add counts."""
        if not self.enabled:
            yield attrs
            return
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._parent(), attrs])
        self._stack.append(sid)
        try:
            yield attrs
        finally:
            self._stack.pop()
            self.spans[sid][2] = time.perf_counter()

    def add(self, name: str, start: float, end: float, attrs: dict | None = None) -> None:
        """Record an already-timed leaf span under the current span.

        A tuple, not a list: the garbage collector stops tracking tuples
        of plain values, so a span per update does not slow later
        collections inside the timed calls."""
        if self.enabled:
            self.spans.append((name, start, end, self._parent(), attrs))

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time_by_layer(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name.rsplit(".", 1)[0]] += (end - start) - child[i]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "run_id": self.run_id}
                if attrs:
                    rec["attrs"] = attrs
                f.write(json.dumps(rec) + "\n")


OFF = Tracer("", enabled=False)
