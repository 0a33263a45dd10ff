"""Span recording from outside the program.

A :class:`SpanRecorder` replaces a public method on an object the
benchmark built with a wrapper that records one span per call: name,
start, end, parent span and request id.  Spans stay in memory and are
written out when the workload ends.  Nothing inside ``src/`` is touched.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional


class SpanRecorder:
    """Collects spans; nesting is tracked per thread."""

    def __init__(self):
        # (span_id, parent_id, name, start, end, request_id, attrs)
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, attrs=None,
             request_id: Optional[int] = None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            record = (span_id, parent, name, start, end, request_id, attrs)
            with self._lock:
                self.spans.append(record)

    def wrap(self, obj, method: str, name: str, attrs_fn=None) -> None:
        """Record a span around every call of ``obj.method``."""
        original = getattr(obj, method)

        def wrapper(*args, **kwargs):
            attrs = attrs_fn(args, kwargs) if attrs_fn is not None else None
            return self.call(name, original, *args, attrs=attrs, **kwargs)

        setattr(obj, method, wrapper)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> List[tuple]:
        """``(name, duration, self_time, attrs, span_id, parent)`` per span.

        Self time is the span's duration minus the union of its direct
        children's intervals.
        """
        children: Dict[int, List[tuple]] = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append((span[3], span[4]))
        rows = []
        for span_id, parent, name, start, end, _rid, attrs in self.spans:
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                lo, hi = max(child_start, cursor), min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            rows.append((name, end - start, end - start - covered, attrs,
                         span_id, parent))
        return rows

    def summary(self) -> Dict[str, dict]:
        """Per span name: number of calls and their total seconds."""
        table: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0})
        for _sid, _parent, name, start, end, _rid, _attrs in self.spans:
            table[name]["calls"] += 1
            table[name]["total_s"] += end - start
        return dict(table)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, rid, attrs in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "request_id": rid,
                    "attrs": attrs,
                }) + "\n")
