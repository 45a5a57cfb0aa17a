"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from outside the package: :meth:`Recorder.install`
replaces every public function of the spintomo layer modules by a timing
wrapper, on the module that defines it and on every module that imported
it by name, and :meth:`Recorder.uninstall` puts the originals back. Each
span keeps its name, start and end (``time.perf_counter``), the index of
its parent span (taken from a ``contextvars.ContextVar``) and the op it
belongs to. Spans stay in memory; the caller writes them out when the run
ends.

Only the standard library is imported here, so the traced CLI launcher
pays nothing for this module beyond its own import.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "su2", "matcore", "frames", "kernel", "steering", "selftest")
LIBRARY_LAYERS = LAYERS[1:]

# Scalar helpers called once per matrix element (tens of thousands of times
# in a cold 32x32 build): a span on each would cost more than the work it
# times, so they stay unwrapped and count toward their caller's self time.
UNWRAPPED = {"su2.twice", "su2.jacobi_poly"}


def _tomogram_table_attrs(table) -> dict:
    return {"rows": len(table.rows)}


# span attributes taken from a wrapped function's return value
RESULT_ATTRS = {"frames.tomogram_table": _tomogram_table_attrs}


class _CountingStream:
    """Forwards writes and counts the characters written (CSV is ASCII)."""

    def __init__(self, stream):
        self.stream = stream
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return self.stream.write(text)


class Recorder:
    """Collects spans as lists ``[name, start, end, parent, op, attrs]``."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._installed = []

    def _open(self, name):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._current.get(), self.op, None]
        self.spans.append(span)
        token = self._current.set(index)
        span[1] = perf_counter()
        return span, token

    def _close(self, span, token):
        span[2] = perf_counter()
        self._current.reset(token)

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        attrs_of = RESULT_ATTRS.get(name)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info is not None else 0
            span, token = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, token)
            if attrs_of is not None:
                span[5] = attrs_of(result)
            elif cache_info is not None and cache_info().misses > misses:
                span[5] = {"cold": 1}
            return result

        if cache_info is not None:
            traced.cache_info = cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def _wrap_to_csv(self, fn):
        @functools.wraps(fn)
        def traced(table, stream):
            counter = _CountingStream(stream)
            span, token = self._open("frames.to_csv")
            try:
                result = fn(table, counter)
            finally:
                self._close(span, token)
            span[5] = {"bytes": counter.chars}
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module in ``sys.modules``."""
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        package = [m for k, m in sys.modules.items()
                   if m is not None and (k == "spintomo" or k.startswith("spintomo."))]
        for layer in LAYERS:
            module = sys.modules.get(f"spintomo.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not callable(fn) or inspect.isclass(fn):
                    continue
                name = f"{layer}.{attr}"
                if getattr(fn, "__module__", None) != module.__name__ or name in UNWRAPPED:
                    continue
                wrapper = self.wrap(name, fn)
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._installed.append((holder, key, fn))
                            setattr(holder, key, wrapper)
        frames = sys.modules.get("spintomo.frames")
        if frames is not None:
            cls = frames.TomogramTable
            self._installed.append((cls, "to_csv", cls.to_csv))
            cls.to_csv = self._wrap_to_csv(cls.to_csv)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._installed):
            setattr(holder, name, original)
        self._installed = []


def cache_counts() -> tuple[int, int]:
    """(hits, misses) summed over the frames module's table caches."""
    frames = sys.modules["spintomo.frames"]
    hits = misses = 0
    for fn in (frames._qudit_tables, frames._two_qubit_tables,
               frames.qudit_quantizer_authority):
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


# --------------------------------------------------------------------------
# aggregation


def span_stats(spans) -> dict:
    """Per span name: calls, self seconds, inclusive seconds, summed attrs.

    A span's self time is its duration minus the durations of its direct
    child spans (calls run on one thread, so children never overlap).
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _op, _attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                 "cold_s": 0.0})
    for index, (name, start, end, _parent, _op, attrs) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["incl_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        if attrs:
            for key, value in attrs.items():
                entry[key] = entry.get(key, 0) + value
            if attrs.get("cold"):
                entry["cold_s"] += end - start
    return dict(stats)


def library_covered_seconds(spans) -> float:
    """Time inside the outermost spans of the library layers (not ``cli``)."""
    covered = 0.0
    library = {index for index, span in enumerate(spans)
               if span[0].split(".", 1)[0] in LIBRARY_LAYERS}
    for index in library:
        name, start, end, parent, _op, _attrs = spans[index]
        while parent is not None and parent not in library:
            parent = spans[parent][3]
        if parent is None:
            covered += end - start
    return covered
