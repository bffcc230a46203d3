"""In-memory spans around ftspanner's module functions, for the traced run.

The tracer replaces functions by wrappers at every site that holds a
reference to them (a module that did `from x import f` keeps its own
binding), and puts the originals back when recording ends. Nothing under
`src/` changes. Each wrapper records one span: name, start, end, the span
that called it and the outermost span of the call (the "request"). Self
time is a span's duration minus the time its traced children cover.

Hot leaf functions (called once per fan candidate or per random stream)
are aggregated only: their calls and times count, but no span is kept, so
a traced K400 build does not store hundreds of thousands of spans.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.region = None
        # (region, name) -> [calls, total seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        # (region, name) -> summed count
        self.counters = defaultdict(float)
        # (span id, parent id, root id, region, name, start, end)
        self.spans = []
        self._stack = []  # frames: [span id, root id, child seconds]
        self._next_id = 0
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _push(self):
        sid = self._next_id
        self._next_id += 1
        root = self._stack[0][0] if self._stack else sid
        frame = [sid, root, 0.0]
        self._stack.append(frame)
        return frame

    def _pop(self, frame, name, t0, t1, keep):
        self._stack.pop()
        dur = t1 - t0
        parent = None
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        st = self.stats[(self.region, name)]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[2]
        if keep:
            self.spans.append((frame[0], parent, frame[1], self.region, name,
                               t0 - self.origin, t1 - self.origin))

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around one API call."""
        frame = self._push()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._pop(frame, name, t0, perf_counter(), True)

    def count(self, name, value):
        self.counters[(self.region, name)] += value

    def wrap(self, name, fn, after=None, keep=True):
        """fn with a span around every call; after(tracer, args, out)
        turns the call's arguments and result into counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._push()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._pop(frame, name, t0, perf_counter(), keep)
            if after is not None:
                after(tracer, args, out)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    @contextmanager
    def recording(self, region, plan):
        """Install the wrappers of `plan` for the duration of the block and
        file everything recorded under `region`. plan holds tuples
        (owner, attribute, span name, after hook, keep spans)."""
        self.region = region
        try:
            for owner, attr, name, after, keep in plan:
                orig = getattr(owner, attr)
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, after, keep))
            yield self
        finally:
            while self._patches:
                owner, attr, orig = self._patches.pop()
                setattr(owner, attr, orig)
            self.region = None

    # -- read-out ----------------------------------------------------------

    def calls(self, region, *names):
        return sum(self.stats[(region, n)][0] for n in names if (region, n) in self.stats)

    def total(self, region, *names):
        return sum(self.stats[(region, n)][1] for n in names if (region, n) in self.stats)

    def self_time(self, region, *names):
        return sum(self.stats[(region, n)][2] for n in names if (region, n) in self.stats)

    def counter(self, region, name):
        return self.counters.get((region, name), 0.0)

    def write(self, path):
        """Write the kept spans as JSON lines, times relative to the tracer's
        creation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, root, region, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "root": root,
                                     "region": region, "name": name,
                                     "start": start, "end": end}) + "\n")
