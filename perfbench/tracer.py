"""In-memory span recorder that traces a program without editing it.

`Tracer.install(module, names)` rebinds module-level functions to timed
wrappers.  Code that looks a function up in that module's namespace at call
time (as `regvi.experiment.run_experiment` does for every pipeline layer)
then records one span per call: name, start, end and the span that was open
when it was called.  A name the module no longer defines is listed in
`missing` as module.name, so a metric derived from it reads as missing
instead of zero.
"""

import contextlib
import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None    # index into Tracer.spans
    result: object = None        # return value, for counts taken after the run

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._open = []
        self._saved = []

    def _enter(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name=name, start=time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def _exit(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                span.result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            return span.result
        return traced

    def install(self, module, names):
        """Rebind each named function of module; record the ones that are gone."""
        for name in names:
            fn = module.__dict__.get(name)
            if not callable(fn):
                self.missing.append("%s.%s" % (module.__name__, name))
                continue
            self._saved.append((module, name, fn))
            setattr(module, name, self.wrap(fn, name))

    def restore(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def children(self, span):
        idx = self.spans.index(span)
        return [s for s in self.spans if s.parent == idx]

    def total(self, name):
        """Summed duration of every call of name; None when name is missing."""
        if any(m.endswith("." + name) for m in self.missing):
            return None
        return sum(s.duration for s in self.named(name))

    def self_time(self, span):
        """Duration of span not covered by its (sequential) child spans."""
        return span.duration - sum(c.duration for c in self.children(span))

    def records(self):
        """Spans as plain dicts with the parent's name, times from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name,
                 "parent": None if s.parent is None else self.spans[s.parent].name,
                 "start_s": s.start - t0, "end_s": s.end - t0}
                for s in self.spans]
