"""In-memory tracer that wraps module attributes from outside the program.

A wrapped function records, per call, its inclusive time and its self
time (inclusive time minus the time of wrapped calls made beneath it).
Calls of coarse layers are also kept as spans (id, parent id, job id,
name, start, end); calls of fine layers (one per quadratic form or metric
evaluation, ~10^5 per design job) are only counted and timed, so memory
stays small. Hooks see each call's arguments and result and add to named
counters; their own time counts towards no layer's self time.
``restore`` puts every original attribute back.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.spans = []
        self.job = None  # identifier shared by the spans of one job
        self._stack = []  # open frames: [span id, child seconds]
        self._next_id = 0
        self._saved = []

    def wrap(self, module, attr, name, *, span=True, call=None, hook=None):
        """Replace ``module.attr`` by a recording wrapper.

        ``call(fn, args, kwargs)`` replaces the plain call when given;
        ``hook(tracer, args, kwargs, result)`` runs after each call.
        """
        fn = getattr(module, attr)
        self._saved.append((module, attr, fn))
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = call(fn, args, kwargs) if call else fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                self.calls[name] += 1
                self.incl_s[name] += dur
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if span:
                    self.spans.append((sid, parent, self.job, name, t0, t1))
            if hook:
                hook(self, args, kwargs, out)
                if stack:  # charge the hook to no layer
                    stack[-1][1] += time.perf_counter() - t1
            return out

        wrapper.mdbench_wraps = name
        setattr(module, attr, wrapper)

    def restore(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def reset_counts(self):
        """Zero the per-name counts and times; spans and wraps stay."""
        for d in (self.calls, self.incl_s, self.self_s, self.counters):
            d.clear()

    def span_records(self):
        return [
            {"id": s, "parent": p, "job": j, "name": n, "start": a, "end": b}
            for s, p, j, n, a, b in self.spans
        ]
