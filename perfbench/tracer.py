"""Spans around the public functions of gridsentry, installed from outside.

:meth:`Tracer.install` replaces every public function binding of the traced
modules, and every public method of the classes they define, with a wrapper
that records one span per call. A function imported into another module has
a binding there too (``gsl.svd`` next to ``numerics.svd``); each binding is
wrapped on its own, so a span names the binding the caller went through as
well as the function behind it. Spans nest: a span's self time is its
duration minus the durations of the spans opened directly inside it.

Spans are kept in memory; :mod:`layers` turns them into per-layer metrics.
No file of the package changes, and :meth:`Tracer.uninstall` puts every
original binding back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "gridsentry"
MODULES = ("flows", "graphs", "attacks", "models", "numerics", "gsl",
           "pipeline", "experiments")


@dataclass
class Span:
    binding: str
    func: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    child: float = 0.0
    # The same function is already open further up the stack (recursion or a
    # re-exported binding calling through to the original).
    nested: bool = False
    attrs: Optional[dict] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


# A hook sees the bound call arguments and the result of one call, and
# returns attributes to keep on its span.
Hook = Callable[[inspect.BoundArguments, object], dict]


class Tracer:
    def __init__(self, hooks: Optional[dict[str, Hook]] = None):
        self.hooks = hooks or {}
        self.spans: list[Span] = []
        self.functions: set[str] = set()
        self.hook_errors: dict[str, str] = {}
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for short in MODULES:
            try:
                module = importlib.import_module(f"{PACKAGE}.{short}")
            except ModuleNotFoundError:
                continue  # its functions are missing, so their metrics are absent
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and \
                        value.__module__.startswith(PACKAGE + "."):
                    self._patch(module, name, value, f"{short}.{name}",
                                self._key(value))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._patch_class(value, short)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _key(self, fn) -> str:
        return f"{fn.__module__[len(PACKAGE) + 1:]}.{fn.__qualname__}"

    def _patch_class(self, cls, short: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            wrap_as = None
            if isinstance(raw, (classmethod, staticmethod)):
                fn, wrap_as = raw.__func__, type(raw)
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue
            key = f"{short}.{cls.__qualname__}.{name}"
            traced = self._wrap(fn, key, key)
            self._patches.append((cls, name, raw))
            setattr(cls, name, wrap_as(traced) if wrap_as else traced)
            self.functions.add(key)

    def _patch(self, owner, name: str, fn, binding: str, key: str) -> None:
        self._patches.append((owner, name, fn))
        setattr(owner, name, self._wrap(fn, binding, key))
        self.functions.add(key)

    def _wrap(self, fn, binding: str, key: str):
        spans, open_ = self.spans, self._open
        hook = self.hooks.get(key)
        signature = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            span = Span(binding, key, parent,
                        nested=any(spans[i].func == key for i in open_))
            open_.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
                if parent >= 0:
                    spans[parent].child += span.end - span.start
            if hook is not None:
                span.attrs = self._run_hook(key, hook, signature, args, kwargs,
                                            result)
            return result

        return functools.update_wrapper(traced, fn)

    def _run_hook(self, key, hook, signature, args, kwargs, result):
        # A hook reads arguments by name; when a later version of the package
        # renames or drops one, the metric built on it becomes absent instead
        # of the run failing.
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return hook(bound, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            self.hook_errors.setdefault(key, f"{type(exc).__name__}: {exc}")
            return None
