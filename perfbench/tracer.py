"""Span recorder for the traced run, installed from outside the program.

Every public function of each rectchar layer module is replaced, in every
rectchar namespace that names it (its own module, the modules that imported
it, and the package), by a wrapper that records one span: name, start, end
and parent span.  The methods of the layer classes (MultivarPoly, the two
series classes, MultiRectShape) are wrapped on the class.  Two private
functions get spans too, because counters are read from them: the k! pair
enumerator and the interpolation node evaluator.  Private caches such as
_chi are left alone; their cache_info() is read instead.

Functions that return iterators (cells, partitions_of, ...) only record the
time to build the iterator: the iteration itself is charged to the caller.

Spans live in flat arrays until the pass ends; self time is a span's length
minus the length of its direct children.
"""

from __future__ import annotations

import functools
import math
import time
import types
from array import array
from collections import Counter, defaultdict

LAYERS = (
    "characters",
    "partitions",
    "permutations",
    "schur",
    "factorization",
    "frobenius",
    "series",
    "polynomials",
    "interpolation",
    "leading",
)
CLASSES = {
    "polynomials": ("MultivarPoly",),
    "series": ("LaurentSeriesAtInfinity", "PowerSeries"),
    "frobenius": ("MultiRectShape",),
}
PRIVATE = {
    "factorization": ("_pair_cycle_counts",),
    "interpolation": ("_shape_value",),
}

_CALLABLE = (types.FunctionType, functools._lru_cache_wrapper)


class Tracer:
    """Records spans for one process; install() once, report() at the end."""

    def __init__(self):
        self._ids: dict[str, int] = {}  # span name -> id, in id order
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [
            getattr(package, attr)
            for attr in dir(package)
            if isinstance(getattr(package, attr), types.ModuleType)
        ]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, value in vars(module).items():
                if not isinstance(value, _CALLABLE) or value.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(value)] = self._wrap(value, name, _PROBES.get(name))
            for cls_name in CLASSES.get(layer, ()):
                if hasattr(module, cls_name):
                    self._wrap_class(getattr(module, cls_name), f"{layer}.{cls_name}")
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebind(module, attr, wrapper)

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, value in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            probe = _PROBES.get(name)
            if isinstance(value, classmethod):
                self._rebind(cls, attr, classmethod(self._wrap(value.__func__, name, probe)))
            elif isinstance(value, types.FunctionType) and (
                not attr.startswith("_") or attr.endswith("__")
            ):
                self._rebind(cls, attr, self._wrap(value, name, probe))

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original object back (used by the benchmark's tests)."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name: str, probe=None):
        nid = self._ids.setdefault(name, len(self._ids))
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )
        counters = self.counters
        clock = time.perf_counter

        def span(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    probe(counters, args, kwargs, result)
                return result
            finally:
                ends[i] = clock()
                stack.pop()

        functools.update_wrapper(span, fn)
        return span

    # -- results ------------------------------------------------------------

    def report(self) -> dict:
        """Per-name calls, total and self time, and the argument counters."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: Counter[str] = Counter()
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        label = list(self._ids)
        root_s = 0.0
        node_id = self._ids.get("interpolation._shape_value")
        interp_id = self._ids.get("interpolation.f_mu_interpolate")
        nodes = 0
        node_eval_s = 0.0
        for i in range(n):
            name = label[names[i]]
            length = ends[i] - starts[i]
            calls[name] += 1
            total[name] += length
            own[name] += length - child[i]
            p = parents[i]
            if p < 0:
                root_s += length
            elif names[i] == node_id and names[p] == interp_id:
                nodes += 1
                node_eval_s += length
        return {
            "spans": n,
            "root_s": root_s,
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(own),
            "counters": {**self.counters, "interpolation.nodes": nodes},
            "node_eval_s": node_eval_s,
        }


def _pairs(counters, args, kwargs, result) -> None:
    counters["factorization.pairs_enumerated"] += math.factorial(len(args[0]))


def _window(counters, args, kwargs, result) -> None:
    counters["frobenius.window_sum"] += args[1] if len(args) > 1 else kwargs["window"]


def _terms(counters, args, kwargs, result) -> None:
    counters["polynomials.terms_out"] += len(args[0].terms)


_PROBES = {
    "factorization._pair_cycle_counts": _pairs,
    "series.linear_product": _window,
    "polynomials.MultivarPoly.__init__": _terms,
}
