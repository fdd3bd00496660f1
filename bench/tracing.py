"""Per-layer spans for the traced benchmark run.

The traced run replaces every public function of the package's layer
modules, in every ``sympspec.*`` namespace that binds it, with a wrapper
that times the call; the public methods of ``SymplecticBasis`` and the
``numpy.linalg`` kernels the package calls are wrapped the same way.  No
package source is touched.

A span's self time is its duration minus the time covered by the wrapped
calls it made.  Spans are folded into per-name totals as they close rather
than kept: one verify seed makes about 2e5 wrapped calls.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

LAYER_MODULES = ("linalg", "core", "basis", "extremal", "inequalities", "harness", "matio", "cli")
WRAPPED_CLASSES = (("basis", "SymplecticBasis"),)
NUMPY_KERNELS = ("svd", "eigh", "eigvalsh", "eigvals", "norm", "qr", "slogdet", "det")


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: int = 0

    def add(self, other):
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.raised += other.raised


class Tracer:
    """Times wrapped calls; keeps calls, inclusive, self time and raises per name.

    ``tags`` maps a span name to ``fn(args, kwargs) -> str``; a tagged call
    is also counted under ``"<name>[<tag>]"``.  ``observers`` maps a span
    name to ``fn(result)``, called after each call that returns.
    """

    def __init__(self, clock=time.perf_counter, tags=None, observers=None):
        self.clock = clock
        self.tags = dict(tags or {})
        self.observers = dict(observers or {})
        self.stats = {}
        self.active = True
        self._stack = []
        self._patches = []

    def stat(self, name):
        return self.stats.get(name) or self.stats.setdefault(name, Stat())

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run unrecorded (the benchmark's own checks)."""
        prev, self.active = self.active, False
        try:
            yield
        finally:
            self.active = prev

    def wrap(self, name, fn):
        tag = self.tags.get(name)
        observe = self.observers.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            key = None if tag is None else f"{name}[{tag(args, kwargs)}]"
            frame = [0.0]
            self._stack.append(frame)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, key, t0, frame, raised=True)
                raise
            self._close(name, key, t0, frame, raised=False)
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, name, key, t0, frame, raised):
        dt = self.clock() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        for k in (name,) if key is None else (name, key):
            st = self.stat(k)
            st.calls += 1
            st.total_s += dt
            st.self_s += dt - frame[0]
            st.raised += raised

    def patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self):
        """Wrap the package's layer functions and the numpy.linalg kernels."""
        import numpy.linalg

        wrappers = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"sympspec.{short}")
            for attr, obj in vars(mod).items():
                if _public_function(attr, obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "sympspec" or n.startswith("sympspec.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        for short, cls_name in WRAPPED_CLASSES:
            cls = getattr(importlib.import_module(f"sympspec.{short}"), cls_name)
            for attr, obj in list(vars(cls).items()):
                if _public_function(attr, obj):
                    self.patch(cls, attr, f"{short}.{cls_name}.{attr}")
        for kernel in NUMPY_KERNELS:
            self.patch(numpy.linalg, kernel, f"numpy.linalg.{kernel}")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_json(self):
        return {k: [s.calls, s.total_s, s.self_s, s.raised] for k, s in self.stats.items()}

    def merge_json(self, payload):
        for k, (calls, total_s, self_s, raised) in payload.items():
            self.stat(k).add(Stat(calls, total_s, self_s, raised))


def _public_function(attr, obj):
    return not attr.startswith("_") and inspect.isfunction(obj)
