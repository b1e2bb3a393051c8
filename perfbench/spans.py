"""In-memory span tracer that instruments qefsyn from outside the library.

The tracer replaces a library function with a wrapper in every ``qefsyn``
module namespace that holds it (``from x import f`` copies the reference,
so patching only the defining module would miss those callers).  Each
wrapped call records one span: name, start, end, parent span and the id
of the benchmark item it belongs to.  Spans stay in memory and are written
out once, when the run ends.
"""

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int             # index of the enclosing span, -1 for a root
    item: str
    note: Optional[float]   # per-call quantity (nodes, theta, operator size)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans while ``active``; otherwise wrappers just call through."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.item = ""
        self._stack = []
        self._patched = []
        self.missing = []

    def _call(self, name, note, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            value = note(args, kwargs, result) if note is not None else None
            self.spans[idx] = Span(name, start, end, parent, self.item, value)

    @contextmanager
    def span(self, name, item):
        """A root span opened by the benchmark itself; records while inside."""
        self.item = item
        self.active = True
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.active = False
            self.spans[idx] = Span(name, start, end, -1, item, None)

    def wrap(self, target, name=None, note=None):
        """Wrap ``module.function`` wherever a qefsyn module references it.

        ``name`` may be a string or a callable of (args, kwargs) giving the
        span name per call; ``note`` is a callable of (args, kwargs, result)
        giving a number stored with the span (``result`` is None when the
        call raised).  A target the library no longer has is skipped and
        listed in ``missing``: its spans, and the metrics built on them,
        are then absent rather than the run failing.
        """
        modname, attr = target.rsplit(".", 1)
        try:
            orig = getattr(importlib.import_module(modname), attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        label = name or target.split(".", 1)[1]
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            span_name = label(args, kwargs) if callable(label) else label
            return tracer._call(span_name, note, orig, args, kwargs)

        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("qefsyn"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, orig))

    def unwrap_all(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def children(self):
        """Direct children of every span, as lists of span indices."""
        kids = defaultdict(list)
        for idx, sp in enumerate(self.spans):
            if sp.parent >= 0:
                kids[sp.parent].append(idx)
        return kids

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                covered[sp.parent] += sp.duration
        return [sp.duration - c for sp, c in zip(self.spans, covered)]

    def table(self):
        """Per span name: calls, busy seconds and self seconds."""
        selfs = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sp, st in zip(self.spans, selfs):
            row = out[sp.name]
            row["calls"] += 1
            row["s"] += sp.duration
            row["self_s"] += st
        return dict(out)

    def dump(self):
        return [{"name": sp.name, "start": sp.start, "end": sp.end,
                 "parent": sp.parent, "item": sp.item, "note": sp.note}
                for sp in self.spans]
