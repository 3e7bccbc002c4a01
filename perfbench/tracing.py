"""In-memory span tracing of calls into ksettrace, installed from outside the
library.

The tracer replaces module attributes and methods with wrappers for the
duration of a `with tracer.installed(...)` block and restores them on exit,
so the library itself is unaware of it. Every call through a wrapper records
one span: name, start, end and parent span. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter


class Tracer:
    """Spans kept in parallel arrays, cleared after each summary."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()  # event counters filled by hooks
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span_wrapper(self, name: str, fn, on_return=None):
        """`fn` wrapped so that each call records a span named `name`;
        `on_return(tracer, result)` runs after the span closes."""
        nid = self._name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, result)
            return result

        return traced

    def count_wrapper(self, counter: str, fn, under: str):
        """`fn` wrapped so that each call made directly inside a span named
        `under` increments `counts[counter]`; no span is recorded."""
        uid = self._name_id(under)
        name_of, stack, counts = self.name_of, self._stack, self.counts

        def counted(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_of[top] == uid:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self, spans, counters=()):
        """Patch the targets for the duration of the block.

        spans: (name, owner, attribute, on_return or None) tuples;
        counters: (counter name, owner, attribute, enclosing span name).
        """
        patched = []
        try:
            for name, owner, attr, on_return in spans:
                original = getattr(owner, attr)
                setattr(owner, attr, self.span_wrapper(name, original, on_return))
                patched.append((owner, attr, original))
            for counter, owner, attr, under in counters:
                original = getattr(owner, attr)
                setattr(owner, attr, self.count_wrapper(counter, original, under))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def take_summary(self) -> tuple[dict, dict]:
        """({name: (calls, self seconds)}, event counts) for the spans and
        counts recorded since the last call, which are then cleared."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, nid in enumerate(self.name_of):
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
        spans = {self.names[nid]: (calls[nid], self_s[nid]) for nid in calls}
        counts = dict(self.counts)
        for arr in (self.name_of, self.parent, self.start, self.end):
            del arr[:]
        self.counts.clear()
        return spans, counts
