"""Span recorder that wraps the public entry points of each layer.

Nothing inside ``src/`` is edited: :func:`instrument` swaps wrappers in
for the entry points below for the duration of a ``with`` block and puts
the originals back afterwards.

=====================================  =======================================
span name                              wrapped entry point
=====================================  =======================================
``shuffle``                            ``shuffle_point_stream``
``round``                              ``MapReduceRuntime.execute_round``
``build_coreset``                      ``build_coreset``
``solver_init`` / ``probe`` /          ``OutliersClusterSolver`` construction,
``candidates``                         ``run`` and ``candidate_radii``
``search_radius``                      ``search_radius``
``nearest`` / ``pairwise``             ``Metric.nearest`` / ``Metric.pairwise``
``process_batch`` / ``finalize``       ``CoresetStreamOutliers`` methods
``merge``                              ``StreamingCoreset._apply_merge_rule``
=====================================  =======================================

The merge rule has no public entry point; its private method is the one
hook that is not part of the public surface.

Functions that the drivers import by name (``shuffle_point_stream``,
``build_coreset``, ``search_radius``) are replaced in every module that
binds them. Reducers that run in pool workers or worker daemons execute
outside this process, so their spans are not seen here; the runner takes
those layers from ``JobStats`` instead.
"""

from __future__ import annotations

import contextlib
import threading
import time
import tracemalloc

from .metrics import Span


class Tracer:
    """Keeps spans in memory; :attr:`enabled` switches recording on and off."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.solve = 0
        self._next_id = 0
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs=None, after=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``attrs`` seeds the span's attributes; ``after(result, attrs)``
        may add more once the call returned.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span_attrs = dict(attrs or {})
        if after is not None:
            after(result, span_attrs)
        self.spans.append(Span(span_id, name, start, end, parent, self.solve, span_attrs))
        return result

    def spans_of(self, solve: int) -> list[Span]:
        return [span for span in self.spans if span.solve == solve]


def _patch_function(stack, tracer, name, modules, attr):
    original = getattr(modules[0], attr)

    def wrapper(*args, **kwargs):
        return tracer.call(name, original, args, kwargs)

    for module in modules:
        stack.enter_context(_swapped(module, attr, wrapper))


def _patch_method(stack, tracer, name, cls, attr, attrs=None):
    original = getattr(cls, attr)

    def wrapper(*args, **kwargs):
        return tracer.call(name, original, args, kwargs,
                           attrs=None if attrs is None else attrs(*args, **kwargs))

    stack.enter_context(_swapped(cls, attr, wrapper))


@contextlib.contextmanager
def _swapped(owner, attr, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _round_attrs(runtime, attrs) -> None:
    """Copy the finished round's reducer accounting onto its span."""
    stats = runtime.stats.rounds[-1]
    attrs["round"] = runtime.stats.n_rounds
    attrs["busy_s"] = sum(stats.reducer_times.values())
    attrs["max_s"] = max(stats.reducer_times.values(), default=0.0)
    attrs["workers"] = int(getattr(runtime.backend, "max_workers", 1))
    attrs["backend"] = runtime.backend.name


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers listed in the module docstring."""
    from repro.core import coreset, doubling_coreset, mr_kcenter, mr_outliers
    from repro.core import radius_search, stream_outliers
    from repro.core.outliers_cluster import OutliersClusterSolver
    from repro.mapreduce import runtime
    from repro.metricspace.distance import Metric

    with contextlib.ExitStack() as stack:
        _patch_function(stack, tracer, "shuffle",
                        [runtime, mr_kcenter, mr_outliers], "shuffle_point_stream")
        _patch_function(stack, tracer, "build_coreset",
                        [coreset, mr_kcenter, mr_outliers], "build_coreset")

        execute_round = runtime.MapReduceRuntime.execute_round

        def traced_round(self, *args, **kwargs):
            return tracer.call("round", execute_round, (self, *args), kwargs,
                               after=lambda _result, attrs: _round_attrs(self, attrs))

        stack.enter_context(
            _swapped(runtime.MapReduceRuntime, "execute_round", traced_round)
        )

        solver_init = OutliersClusterSolver.__init__

        def traced_solver_init(self, coreset_points, *args, **kwargs):
            # The solve's allocation peak is taken from here to the end of
            # the radius search that follows (see traced_search below).
            if tracer.enabled and not tracemalloc.is_tracing():
                tracemalloc.start()
            return tracer.call("solver_init", solver_init,
                               (self, coreset_points, *args), kwargs,
                               attrs={"union_m": len(coreset_points)})

        stack.enter_context(_swapped(OutliersClusterSolver, "__init__", traced_solver_init))
        _patch_method(stack, tracer, "probe", OutliersClusterSolver, "run")
        _patch_method(stack, tracer, "candidates", OutliersClusterSolver, "candidate_radii")

        search = radius_search.search_radius

        def record_peak(_result, attrs):
            if tracemalloc.is_tracing():
                attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        def traced_search(*args, **kwargs):
            return tracer.call("search_radius", search, args, kwargs, after=record_peak)

        for module in (radius_search, mr_outliers, stream_outliers):
            stack.enter_context(_swapped(module, "search_radius", traced_search))

        _patch_method(stack, tracer, "nearest", Metric, "nearest",
                      attrs=lambda _self, a, b, **_kw: {"evals": len(a) * len(b)})
        _patch_method(stack, tracer, "pairwise", Metric, "pairwise")
        _patch_method(stack, tracer, "process_batch",
                      stream_outliers.CoresetStreamOutliers, "process_batch")
        _patch_method(stack, tracer, "finalize",
                      stream_outliers.CoresetStreamOutliers, "finalize")
        _patch_method(stack, tracer, "merge",
                      doubling_coreset.StreamingCoreset, "_apply_merge_rule")
        try:
            yield tracer
        finally:
            if tracemalloc.is_tracing():
                tracemalloc.stop()
