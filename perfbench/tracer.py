"""Tracing from outside the package: wrap its functions, keep spans in memory.

``Tracer.install`` replaces every binding of each traced function with a
wrapper that records a span: the function's id, the span that was open when
it was called (its parent), and start and end times.  "Every binding" means
the defining module's name, the names other modules imported it under
(``from .exactalg import series_quotient``) and class attributes, including
aliases such as ``CycElement.__rmul__ = __mul__``.

Traced are the public functions and methods of every package module, the
arithmetic operators of its classes, and the private functions named in
``PRIVATE``.  Spans are stored in four flat arrays, so a traced run of a
million calls costs tens of megabytes, and are turned into per-function call
counts and self times by ``self_times``.

The package's caches are found by walking its modules (``find_caches``), so
a cache added later is covered by the cold-start guard without editing this
file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

# Private functions that are layer boundaries, with the metric name used for them.
PRIVATE = {
    "bernoulli._gbn_series": "bernoulli.series_pipeline",
    "bernoulli._gbn_polysum": "bernoulli.polysum_pipeline",
    "bernoulli._gbn_primitive": "bernoulli.gbn_primitive",
    "homotopy._pi_jnchi_direct": "homotopy.direct_tables",
    "padic._padic_invariant_exponents": "padic.snf",
    "padic._stable_quotient": "padic.stable_quotient",
    "cyclotomic.IdealLattice.__init__": "cyclotomic.IdealLattice.init",
}
OPERATORS = ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__", "__neg__", "__mod__")


class ColdStartError(RuntimeError):
    """A package cache held entries where a cold start was required."""


def package_modules(package) -> list:
    names = sorted(m.name for m in pkgutil.iter_modules(package.__path__))
    return [importlib.import_module(f"{package.__name__}.{name}") for name in names]


def _is_lru(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")


def find_caches(package) -> dict[str, object]:
    """Every ``lru_cache`` and module-level ``*CACHE*`` container of the package.

    Keys are ``<module>.<name>``; each cache is listed once, under the module
    that defines it.
    """
    found: dict[str, object] = {}
    for mod in package_modules(package):
        short = mod.__name__.rsplit(".", 1)[1]
        scopes = [(short, vars(mod))]
        scopes += [(f"{short}.{name}", vars(obj)) for name, obj in vars(mod).items()
                   if inspect.isclass(obj) and obj.__module__ == mod.__name__]
        for prefix, scope in scopes:
            for name, obj in scope.items():
                if _is_lru(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    found[f"{prefix}.{name}"] = obj
                elif "CACHE" in name.upper() and isinstance(obj, (dict, set, list)):
                    found[f"{prefix}.{name}"] = obj
    return found


def cache_sizes(caches: dict[str, object]) -> dict[str, int]:
    return {name: c.cache_info().currsize if _is_lru(c) else len(c) for name, c in caches.items()}


def assert_cold(caches: dict[str, object]) -> None:
    warm = {name: n for name, n in cache_sizes(caches).items() if n}
    if warm:
        raise ColdStartError(f"caches not empty at a cold start: {warm}")


def _metric_name(module_short: str, qualname: str) -> str:
    parts = [p.strip("_") if p.startswith("__") and p.endswith("__") else p for p in qualname.split(".")]
    return ".".join([module_short, *parts])


class Tracer:
    """Span recorder.  Install it once, in the process that runs the work."""

    def __init__(self):
        self.names: list[str] = []
        self.fids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends, stack = self.fids, self.parents, self.starts, self.ends, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self, package) -> None:
        modules = package_modules(package)
        originals: dict[int, tuple[str, object]] = {}  # id(function) -> (metric name, function)

        def consider(mod, short, qualname, fn):
            if getattr(fn, "__module__", None) != mod.__name__:
                return
            key = f"{short}.{qualname}"
            public = not any(p.startswith("_") for p in qualname.split("."))
            if public or key in PRIVATE or qualname.rsplit(".", 1)[-1] in OPERATORS:
                originals.setdefault(id(fn), (PRIVATE.get(key) or _metric_name(short, qualname), fn))

        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) or _is_lru(obj):
                    consider(mod, short, name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, member in vars(obj).items():
                        fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                        if inspect.isfunction(fn):
                            consider(mod, short, f"{obj.__name__}.{attr}", fn)
        wrappers = {fid: self._wrap(name, fn) for fid, (name, fn) in originals.items()}

        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
                elif inspect.isclass(obj) and obj.__module__.startswith(package.__name__ + "."):
                    for attr, member in list(vars(obj).items()):
                        kind = type(member) if isinstance(member, (classmethod, staticmethod)) else None
                        fn = member.__func__ if kind else member
                        if id(fn) in wrappers:
                            setattr(obj, attr, kind(wrappers[id(fn)]) if kind else wrappers[id(fn)])

    def spans(self) -> dict:
        """The recorded spans in a picklable form."""
        return {
            "names": list(self.names),
            "fids": self.fids.tobytes(),
            "parents": self.parents.tobytes(),
            "starts": self.starts.tobytes(),
            "ends": self.ends.tobytes(),
        }


def self_times(fids, parents, starts, ends, n_functions: int) -> tuple[list[int], list[float]]:
    """Per-function call counts and self times of a span forest.

    A span's self time is its duration minus the durations of its direct
    children, i.e. the part of its interval no child span covers (spans of
    one thread nest).  Parent -1 marks a root.
    """
    calls = [0] * n_functions
    self_s = [0.0] * n_functions
    for fid, parent, start, end in zip(fids, parents, starts, ends):
        duration = end - start
        calls[fid] += 1
        self_s[fid] += duration
        if parent >= 0:
            self_s[fids[parent]] -= duration
    return calls, self_s


class SpanTotals:
    """Call counts and self times summed over the span sets of many processes."""

    def __init__(self):
        self.spans = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}

    def merge(self, other: "SpanTotals") -> None:
        self.spans += other.spans
        for name, n in other.calls.items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, s in other.self_s.items():
            self.self_s[name] = self.self_s.get(name, 0.0) + s

    def add(self, spans: dict) -> None:
        arrays = [array(code) for code in "iidd"]
        for arr, field in zip(arrays, ("fids", "parents", "starts", "ends")):
            arr.frombytes(spans[field])
        names = spans["names"]
        calls, self_s = self_times(*arrays, len(names))
        self.spans += len(arrays[0])
        for name, n, s in zip(names, calls, self_s):
            self.calls[name] = self.calls.get(name, 0) + n
            self.self_s[name] = self.self_s.get(name, 0.0) + s

    def module_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, s in self.self_s.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + s
        return out
