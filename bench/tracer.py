"""Span recorder that wraps paleyscope's functions from outside the package.

A span is one call of a wrapped function: its name, the thread that ran it,
the span that caused it, and its start and end on ``time.perf_counter``.
Spans nest per thread.  A task handed to a thread pool records the span that
submitted it as its cause, but it runs on another thread, so it is not
subtracted from that span's self time: the submitter's thread is then blocked
waiting, and that wait is the submitter's own time.

Wrapping replaces every module attribute that is bound to the original
function, so callers that imported the name (``from .squarefn import
square_function``) and callers that look it up on its home module both reach
the wrapper.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import tracemalloc
from collections import namedtuple

Span = namedtuple("Span", "sid parent tid name start end")


class Target:
    """A function to wrap, found as ``owner.attr`` after importing ``module``.

    ``name`` is the span name.  ``owner`` is a dotted path below ``module``
    (a class) or empty for a module-level function.  ``kind`` is ``span`` for
    an ordinary function, ``fft`` for a numpy transform that is timed only
    when a paleyscope module calls it, ``pool`` for an executor class whose
    tasks become spans, and ``alloc`` for a function whose peak traced
    allocation is recorded instead of its time.  ``observe(tracer, args,
    kwargs)``, when given, runs before each traced call to record counts.
    """

    def __init__(self, name, module, attr, owner="", kind="span", observe=None):
        self.name, self.module, self.attr = name, module, attr
        self.owner, self.kind, self.observe = owner, kind, observe

    def resolve(self):
        """(holder object, original function), or None if it no longer exists."""
        try:
            obj = importlib.import_module(self.module)
        except ImportError:
            return None
        for part in filter(None, self.owner.split(".")):
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        fn = getattr(obj, self.attr, None)
        return None if fn is None else (obj, fn)


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self, package="paleyscope"):
        self.package = package
        self.spans = []
        self.counts = {}
        self.sets = {}
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span on the calling thread, or 0."""
        stack = self._stack()
        return stack[-1] if stack else 0

    def add(self, key, amount):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key, value):
        with self._lock:
            self.counts[key] = max(self.counts.get(key, value), value)

    def distinct(self, key, value):
        with self._lock:
            self.sets.setdefault(key, set()).add(value)

    def call(self, name, fn, args, kwargs, parent=None):
        """Run ``fn`` inside a span; ``parent`` overrides the thread's stack."""
        stack = self._stack()
        sid = next(self._ids)
        cause = parent if parent is not None else (stack[-1] if stack else 0)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, cause, threading.get_ident(), name,
                                   start, end))

    def _span_wrapper(self, target, fn):
        name, observe = target.name, target.observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(self, args, kwargs)
            return self.call(name, fn, args, kwargs)
        return traced

    def _fft_wrapper(self, target, fn):
        package = self.package + "."
        name = target.name

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith(package):
                return fn(a, *args, **kwargs)
            self.add(name + ".points", getattr(a, "size", 0))
            return self.call(name, fn, (a,) + args, kwargs)
        return traced

    def _alloc_wrapper(self, target, fn):
        """Peak bytes allocated during each call; needs tracemalloc running."""
        key = target.name + ".peak_alloc"

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak(key, tracemalloc.get_traced_memory()[1] - base)
        return measured

    def _pool_class(self, target, base):
        tracer, name = self, target.name

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                return super().submit(tracer.call, name, fn, args, kwargs,
                                      parent)
        return TracedPool

    # -- installation ------------------------------------------------------

    def install(self, targets):
        """Wrap each target at every binding in the package's modules."""
        self.missing = []
        for t in targets:
            found = t.resolve()
            if found is None:
                self.missing.append(t.name)
                continue
            holder, original = found
            make = {"span": self._span_wrapper, "fft": self._fft_wrapper,
                    "alloc": self._alloc_wrapper, "pool": self._pool_class}[t.kind]
            replacement = make(t, original)
            bindings = [(holder, t.attr)] + self._bindings(original)
            for obj, attr in dict.fromkeys(bindings):
                self._undo.append((obj, attr, getattr(obj, attr)))
                setattr(obj, attr, replacement)

    def _bindings(self, original):
        """Every (module, attribute) in the package bound to ``original``."""
        out = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    out.append((mod, attr))
        return out

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def reset(self):
        self.spans = []
        self.counts = {}
        self.sets = {}


def exported_targets(layers, package="paleyscope"):
    """A span target for every function each layer module lists in ``__all__``."""
    out = []
    for layer in layers:
        mod = importlib.import_module(f"{package}.{layer}")
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if callable(fn) and not isinstance(fn, type) and \
                    getattr(fn, "__module__", None) == mod.__name__:
                out.append(Target(f"{layer}.{attr}", mod.__name__, attr))
    return out


def covered_length(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans):
    """{sid: duration minus the time its same-thread children cover}."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.sid, ()) if c.tid == s.tid]
        kids = [(lo, hi) for lo, hi in kids if hi > lo]
        out[s.sid] = (s.end - s.start) - covered_length(kids)
    return out


def summarize(spans):
    """{span name: (calls, summed self time, summed duration)}."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        calls, self_s, total = out.get(s.name, (0, 0.0, 0.0))
        out[s.name] = (calls + 1, self_s + selfs[s.sid], total + s.end - s.start)
    return out


__all__ = ["Span", "Target", "Tracer", "exported_targets", "covered_length",
           "self_times", "summarize"]
