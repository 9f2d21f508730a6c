"""In-memory spans and counters around foldtrack's public functions.

Only the traced run installs these wrappers.  foldtrack modules import each
other's functions by name (`driver.improve_solution`, `acquisition.correct`,
...), so a wrapper replaces the name in every module that calls it; methods
are replaced on their class.  Spans keep name, start, end and parent and are
reduced to per-layer figures when the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[Span]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self) -> Span | None:
        st = self._stack()
        return st[-1] if st else None

    def count(self, key: str, n: float = 1.0):
        with self._lock:
            self.counts[key] += n

    def wrap(self, name, fn, after=None):
        """Span around fn; `after(args, kwargs, result, exc)` takes counts at the boundary."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._stack()
            span = Span(name, tracer.clock(), st[-1] if st else None)
            st.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span.end = tracer.clock()
                st.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                tracer.spans.append(span)
                if after is not None:
                    after(args, kwargs, result, exc)

        return wrapper

    def patch(self, owners, attr: str, name: str, after=None):
        """Replace `attr` on each owner (module or class) by one shared wrapper."""
        original = getattr(owners[0], attr)
        wrapped = self.wrap(name, original, after)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def unpatch(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reduction ------------------------------------------------------------

    def totals(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            row = out[s.name]
            d = s.end - s.start
            row[0] += 1
            row[1] += d
            row[2] += d - s.child_s
        return {k: tuple(v) for k, v in out.items()}

    def durations_ms(self, name: str) -> list[float]:
        return [1e3 * (s.end - s.start) for s in self.spans if s.name == name]
