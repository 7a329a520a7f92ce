"""Span tracer that times capnet's modules from outside the program.

`Tracer.wrap` replaces a public function at every capnet module attribute
that holds it, so each caller's lookup (say
``capnet.kclp.solve_box_covering_lp``, which kclp imported from simplex)
goes through one wrapper.  While the tracer is enabled a wrapped call
records a span: its name, start and end (``perf_counter_ns``) and the span
that was open when it was called.  Spans stay in flat arrays until the run
ends; `summary` then gives each name its calls, inclusive time and self
time, where self time is a span's duration minus the spans it caused.
Garbage collections are counted through ``gc.callbacks``.

No wrapped function calls itself, so inclusive times never double count.
"""

from __future__ import annotations

import gc
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.enabled = False
        self.counters = Counter()
        self.gc_collections = 0
        self.gc_ns = 0
        self._names = []
        self._name_ids = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._stack = []
        self._gc_started = None

    # -- spans -------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def begin(self, name_id):
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0)
        self._stack.append(index)
        self._start.append(_now())
        return index

    def finish(self, index):
        self._end[index] = _now()
        self._stack.pop()

    @contextmanager
    def root(self, name):
        """Trace the calls made inside a span the benchmark itself opens."""
        self.enabled = True
        index = self.begin(self._name_id(name))
        try:
            yield
        finally:
            self.finish(index)
            self.enabled = False

    # -- wrapping ----------------------------------------------------------

    def wrap(self, home, attr, counts=None):
        """Trace `home.attr` under the name "<module>.<attr>" at every
        capnet module that holds it.  `counts(args, result)` gives the
        counter increments of one traced call.  A function the program no
        longer has is skipped, and its metrics read zero."""
        original = getattr(home, attr, None)
        if original is None:
            return
        name_id = self._name_id(f"{home.__name__.rsplit('.', 1)[-1]}.{attr}")
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            index = tracer.begin(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.finish(index)
            if counts is not None:
                tracer.counters.update(counts(args, result))
            return result

        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("capnet"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    def install_gc_hook(self):
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if not self.enabled:
            return
        if phase == "start":
            self._gc_started = _now()
        elif self._gc_started is not None:
            self.gc_collections += 1
            self.gc_ns += _now() - self._gc_started
            self._gc_started = None

    # -- results -----------------------------------------------------------

    def summary(self):
        """{name: {"calls", "s", "self_s"}} over every recorded span."""
        count = len(self._start)
        child_ns = [0] * count
        for i in range(count):
            parent = self._parent[i]
            if parent >= 0:
                child_ns[parent] += self._end[i] - self._start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self._names}
        for i in range(count):
            row = out[self._names[self._name[i]]]
            duration = self._end[i] - self._start[i]
            row["calls"] += 1
            row["s"] += duration / 1e9
            row["self_s"] += (duration - child_ns[i]) / 1e9
        return out
