"""Outside-in tracing of markovlab's public functions, and span arithmetic.

`Tracer.install()` wraps every public function of the eight markovlab
modules (their `__all__`; `main` for the CLI) and the `BivariatePoly`
methods `eval` and `multiply`. Modules import functions by name (spectral
holds its own `quad_rule`, norms its own `sup_grid`), so each wrapper is
bound wherever any `markovlab.*` module holds the original, and every call
site records a span. Spans (name, start, end, parent, thread, work, error)
stay in memory until `dump()`; `uninstall()` restores every binding.

The functions below `Tracer` turn a span list into the per-layer metrics.
They import nothing from markovlab, so the benchmark's parent process and
the tests can use them directly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import threading
from time import perf_counter

LAYERS = ("cli", "config", "analysis", "spectral", "domains", "norms", "classical", "poly2d")
POLY_METHODS = ("eval", "multiply")


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _dim(args, kwargs, out) -> int:
    n = int(_arg(args, kwargs, 0, "n"))
    return (n + 1) * (n + 2) // 2


def _points(i: int, name: str):
    def count(args, kwargs, out) -> int:
        return math.prod(getattr(_arg(args, kwargs, i, name), "shape", ()))

    return count


# Work counted per call, by span name: basis dimension, nodes, grid points.
WORK = {
    "spectral.l2_markov_factor": _dim,
    "spectral.l2_schur_factor": _dim,
    "domains.quad_rule": lambda args, kwargs, out: len(out),
    "domains.sup_grid": lambda args, kwargs, out: int(out.shape[0]),
    "classical.pk_value": _points(1, "x"),
    "classical.qk_value": _points(1, "x"),
    "classical.jacobi_P": _points(3, "t"),
    "analysis.verify_all": lambda args, kwargs, out: {
        str(cid): secs for cid, secs in out.durations.items()
    },
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "work", "error")

    def __init__(self, name: str, parent: "Span | None", thread: int):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.thread = thread
        self.work = 0
        self.error = None


class Tracer:
    """Collects one span per call of a wrapped markovlab function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, local = self.spans, self._local
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(name, stack[-1] if stack else None, threading.get_ident())
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                span.error = type(e).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if work is not None:
                span.work = work(args, kwargs, out)
            return out

        return traced

    def install(self) -> "Tracer":
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"markovlab.{layer}")
            for attr in getattr(mod, "__all__", ("main",)):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "markovlab" and not modname.startswith("markovlab."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        poly = importlib.import_module("markovlab.poly2d").BivariatePoly
        for meth in POLY_METHODS:
            fn = poly.__dict__[meth]
            self._restore.append((poly, meth, fn))
            setattr(poly, meth, self._wrap(f"poly2d.BivariatePoly.{meth}", fn))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def records(self) -> list[list]:
        """Spans as [name, start, end, parent_index, thread, work, error];
        parent_index is -1 for a root (including the first span of a thread)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            [s.name, s.start, s.end, -1 if s.parent is None else index[id(s.parent)],
             s.thread, s.work, s.error]
            for s in self.spans
        ]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.records()}, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Span arithmetic. A span is [name, start, end, parent, thread, work, error].
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s[3] >= 0:
            parent = spans[s[3]]
            children[s[3]].append((max(s[1], parent[1]), min(s[2], parent[2])))
    return [s[2] - s[1] - _covered(kids) for s, kids in zip(spans, children)]


def outermost(spans: list[list], names) -> list[int]:
    """Indices of spans named in `names` with no ancestor also named there."""
    names = frozenset(names)
    out = []
    for i, s in enumerate(spans):
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def group_stats(spans: list[list], names, selfs: list[float] | None = None) -> dict:
    """calls, inclusive busy time `s` and summed `work` over the outermost
    spans of a group of functions; `self_s` over all of its spans."""
    top = outermost(spans, names)
    names = frozenset(names)
    if selfs is None:
        selfs = self_times(spans)
    return {
        "calls": len(top),
        "s": sum(spans[i][2] - spans[i][1] for i in top),
        "work": sum(spans[i][5] for i in top if isinstance(spans[i][5], (int, float))),
        "self_s": sum(t for s, t in zip(spans, selfs) if s[0] in names),
    }


def layer_names(spans: list[list], layer: str) -> set[str]:
    return {s[0] for s in spans if s[0].split(".", 1)[0] == layer}
