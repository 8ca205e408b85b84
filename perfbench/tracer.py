"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces a layer's function at every name a caller looks it up
by: each module of the s2xs2 package that holds the function as a global,
or the class that holds the method.  A span is opened around every call
(around every step of a generator), so a layer's busy time, its self time
(busy time minus the spans opened inside it) and its call count come from
the same boundary.  Spans stay in memory until the worker writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []                      # [name, start, end, parent index]
        self.busy = defaultdict(float)       # outermost spans only
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []                     # [span index, child time]
        self._depth = defaultdict(int)
        self._saved = []

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append([len(self.spans) - 1, 0.0])
        self._depth[name] += 1

    def _exit(self):
        end = time.perf_counter()
        index, child = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        name, took = span[0], end - span[1]
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.busy[name] += took
        self.self_time[name] += took - child
        if self._stack:
            self._stack[-1][1] += took

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def _wrap_generator(self, name, fn, count):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            steps = fn(*args, **kwargs)
            while True:
                self._enter(name)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    self._exit()
                if count is not None:
                    count(self.counts, args, item)
                yield item
        return traced

    def install(self, layers):
        """Wrap each (name, owner, attribute, generator, count) layer at all its lookup names."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "s2xs2" or key.startswith("s2xs2."))]
        for name, owner, attr, generator, count in layers:
            original = getattr(owner, attr)
            wrapped = (self._wrap_generator if generator else self._wrap)(name, original, count)
            holders = [owner] if isinstance(owner, type) else \
                [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self):
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)
