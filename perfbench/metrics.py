"""Metric arithmetic shared by the runner and the trace summary.

Everything here is pure: lists of floats or span records in, numbers out,
so the self-tests can pin it without running a solver.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field


def median(values) -> float:
    """Median of a non-empty sequence of numbers."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` ``(n=4)`` gives them.

    A single sample has no spread: all three equal it.
    """
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for one sample)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def efficiency(wall_s: float, busy_s: float, workers: int) -> float:
    """Share of a round's worker capacity spent inside reducers.

    ``busy / (wall * workers)``: 1.0 means every worker reduced for the
    whole round; the rest went to dispatch, pickling and waiting.
    """
    if wall_s <= 0 or workers < 1:
        return 0.0
    return busy_s / (wall_s * workers)


def dispatch_s(wall_s: float, busy_s: float, workers: int) -> float:
    """Round wall time not explained by reducer work spread over the workers.

    ``wall - busy / workers``. Negative when reducers overlapped better
    than an even split (or their clocks ran on oversubscribed cores).
    """
    return wall_s - busy_s / max(1, workers)


@dataclass
class Span:
    """One timed call into a layer, as the tracer records it."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    solve: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Children are the spans whose ``parent`` names the span; they run
    nested and one after another on the caller's thread, so their
    durations add up without overlap.
    """
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.span_id: span.duration - covered.get(span.span_id, 0.0) for span in spans}


def summarize_spans(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total time and self time."""
    own = self_times(spans)
    summary: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = summary.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += own[span.span_id]
    return summary
