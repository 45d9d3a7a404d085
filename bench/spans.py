"""Span recording and the arithmetic on recorded spans.

A span is (name, request id, start, end, parent, attr): the parent is the
index of the enclosing span on the same thread (or -1) and `attr` is a
small value the wrapper attaches, such as whether an append was accepted.
Spans stay in memory and are written once, when the traced process exits.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

NAME, RID, START, END, PARENT, ATTR = range(6)


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._threads: list[list[list]] = []
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack, local.rid = [], [], None
            with self._lock:
                self._threads.append(local.spans)
        return local

    def span(self, name: str, fn, *args, attr=None, rid=None, **kwargs):
        """Call `fn(*args, **kwargs)` inside a span.  `attr(result)` gives
        the span's attribute; `rid` tags this span and its children."""
        local = self._state()
        outer_rid = local.rid
        if rid is not None:
            local.rid = rid
        record = [name, local.rid, 0.0, 0.0, local.stack[-1] if local.stack else -1, None]
        local.stack.append(len(local.spans))
        local.spans.append(record)
        record[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            local.stack.pop()
            local.rid = outer_rid
        if attr is not None:
            record[ATTR] = attr(args, result)
        return result

    def wrap(self, name: str, fn, attr=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, attr=attr, **kwargs)

        return traced

    def dump(self, path: str) -> None:
        """Write all spans as one JSON list, parents rebased to global
        indices."""
        with self._lock:
            threads = list(self._threads)
        with open(path, "w") as fh:
            json.dump(merge(*threads), fh)


def merge(*span_lists: list[list]) -> list[list]:
    """Concatenate the spans of several processes, rebasing parents."""
    out: list[list] = []
    for spans in span_lists:
        base = len(out)
        out.extend(s[:PARENT] + [s[PARENT] + base if s[PARENT] >= 0 else -1, s[ATTR]] for s in spans)
    return out


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    result = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        result.append(s[END] - s[START] - covered)
    return result


def under(spans: list[list], i: int, ancestor: str) -> bool:
    """True when span `i` runs inside a span named `ancestor`."""
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == ancestor:
            return True
        parent = spans[parent][PARENT]
    return False
