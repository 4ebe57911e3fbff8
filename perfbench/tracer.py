"""Span tracer that wraps the package's public callables from outside.

Nothing in the package is edited: `Tracer.install` replaces every public
function of each layer module, at every module attribute that binds it
(so `pipeline.make_signal_events` and `cli.write_events` are traced as
well as `toygen.make_signal_events`), plus the constructor and public
methods of each plain class. Dataclasses, enums and exceptions are left
alone. `Tracer.uninstall` restores the originals, so untraced passes run
the unmodified package.

A span records its name, start, end and parent. Spans are kept in memory
as parallel lists; `pass_summaries` turns them into per-pass calls,
inclusive time and self time (inclusive time minus the time of the direct
child spans).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import math
import os
import time
import weakref
from collections import Counter, defaultdict

LAYERS = ("models", "toygen", "analysis", "unfold", "fitkit", "pipeline",
          "config", "cli")
ROOT_SPAN = "bench.pass"


class Tracer:
    def __init__(self, package):
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{layer}")
            for layer in LAYERS]
        self.name, self.start, self.end, self.parent = [], [], [], []
        self.counters = []          # one Counter per pass
        self._stack = []
        self._patches = []
        self._fresh = weakref.WeakValueDictionary()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def run_pass(self, fn, *args):
        """Run fn(*args) inside a root span with fresh per-pass counters."""
        self.counters.append(Counter())
        i = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(i)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, out)
                return out
            finally:
                self._close(i)
        return traced

    def _count_events(self, args, kwargs, out):
        """toygen.event_bytes: itemsize x rows of each event array a traced
        toygen call hands back that is neither one of its arguments nor an
        array already counted."""
        if getattr(getattr(out, "dtype", None), "names", None) is None:
            return
        if any(out is a for a in (*args, *kwargs.values())):
            return
        if self._fresh.get(id(out)) is out:
            return
        self._fresh[id(out)] = out
        self.counters[-1]["toygen.event_bytes"] += out.nbytes

    def _count_written(self, args, kwargs, out):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        self.counters[-1]["toygen.write_events.bytes"] += os.path.getsize(path)

    def _hook(self, name: str):
        if name == "toygen.write_events":
            return self._count_written
        if name.startswith("toygen."):
            return self._count_events
        return None

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for mod in self.modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_")
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._wrap(obj, name, self._hook(name))
                elif (inspect.isclass(obj) and not dataclasses.is_dataclass(obj)
                      and not issubclass(obj, (enum.Enum, BaseException))):
                    self._wrap_class(obj, f"{layer}.{attr}")
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def _wrap_class(self, cls, name: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr == "__init__":
                span = name
            elif not attr.startswith("_"):
                span = f"{name}.{attr}"
            else:
                continue
            self._patches.append((cls, attr, obj))
            setattr(cls, attr, self._wrap(obj, span))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def check_spans(self) -> None:
        """Every span closed, nested inside an existing parent; roots are passes."""
        for i, p in enumerate(self.parent):
            if math.isnan(self.end[i]):
                raise AssertionError(f"span {self.name[i]} never closed")
            if p < 0:
                if self.name[i] != ROOT_SPAN:
                    raise AssertionError(f"span {self.name[i]} has no parent")
                continue
            if not (p < i and self.start[p] <= self.start[i]
                    and self.end[i] <= self.end[p]):
                raise AssertionError(
                    f"span {self.name[i]} is not inside its parent {self.name[p]}")

    def pass_summaries(self):
        """Per traced pass: (wall_s, {name: [calls, inclusive_s, self_s]}, counters)."""
        n = len(self.name)
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = []
        for i in range(n):
            dur = self.end[i] - self.start[i]
            if self.parent[i] < 0:
                spans = defaultdict(lambda: [0, 0.0, 0.0])
                out.append((dur, spans, self.counters[len(out)]))
            s = spans[self.name[i]]
            s[0] += 1
            s[1] += dur
            s[2] += dur - child[i]
        return out
