"""Outside-in spans around kurasteer's public functions.

A Tracer replaces every binding of a chosen function in the package's
modules (and chosen class attributes) with a wrapper that records one span
per call: name, start, end and the enclosing span. Only small facts of a
result are kept (time steps, descent iterations), never its arrays. Nothing
under `src/` is edited; leaving the `with` block puts the original objects
back. With `count_ffts` set it also counts numpy rfft/irfft calls, charged to
the innermost open span.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: Span | None
    end: float = 0.0
    ffts: int = 0
    steps: int = 0  # time steps of a returned Trajectory
    iterations: int = 0  # descent iterations of a returned OptResult
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    """Spans for `functions` ({span name: function}) and `methods`
    ({span name: (class, attribute)}) while the `with` block runs."""

    functions: dict
    methods: dict = field(default_factory=dict)
    count_ffts: bool = False
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), parent)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span.steps = getattr(getattr(result, "tgrid", None), "n_t", 0)
                final = getattr(result, "final", None)
                span.iterations = getattr(final, "iteration", 0)
                return result
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.children_s += span.duration
                tracer.spans.append(span)

        return wrapper

    def _counted_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                self._stack[-1].ffts += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n == "kurasteer" or n.startswith("kurasteer.")]
        for name, fn in self.functions.items():
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, attr, wrapper)
        for name, (cls, attr) in self.methods.items():
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._replace(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._replace(cls, attr, self._wrap(name, raw))
        if self.count_ffts:
            for attr in ("rfft", "irfft"):
                self._replace(np.fft, attr, self._counted_fft(getattr(np.fft, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def named(self, name: str, parent: str | None = None) -> list:
        """Spans called `name`, optionally only those opened directly inside a
        span called `parent`."""
        return [
            s
            for s in self.spans
            if s.name == name and (parent is None or (s.parent is not None and s.parent.name == parent))
        ]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))
