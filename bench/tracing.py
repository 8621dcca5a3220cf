"""In-memory spans for the traced run.

A span is (id, name, start, end, parent, item). Spans are recorded by the
benchmark around its calls into each ddecm module; ``interpose`` also
records calls that one module makes into another (for example the
``second_order`` calls inside a sweep) by swapping the module attribute for
the duration of a block.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans are kept as tuples (id, name, start, end, parent id, item),
    appended when they close, so a parent follows its children."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0
        self.item: str | None = None

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.item))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def interpose(self, module, names: dict[str, str]):
        """Trace calls to ``module.<attr>`` under the span name ``names[attr]``."""
        saved = {attr: getattr(module, attr) for attr in names}
        try:
            for attr, span_name in names.items():
                setattr(module, attr, self.wrap(span_name, saved[attr]))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def self_times(self, start: int = 0) -> dict[tuple[str, str], float]:
        """Seconds of self time per (item, span name) over spans[start:]: each
        span's duration minus the part its child spans cover."""
        spans = self.spans[start:]
        child_total: dict[int, float] = defaultdict(float)
        for sid, name, t0, t1, parent, item in spans:
            child_total[parent] += t1 - t0
        out: dict[tuple[str, str], float] = defaultdict(float)
        for sid, name, t0, t1, parent, item in spans:
            out[(item, name)] += (t1 - t0) - child_total.get(sid, 0.0)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "item"], "spans": self.spans}, fh)
