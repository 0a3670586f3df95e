"""Scenario: clustering a live event stream with a bounded-memory summary.

The paper motivates the Streaming setting with real-time analysis of data
generated on the fly (e.g. a social-media firehose). Here we simulate an
embedding stream of "events": most events come from a moderate number of
topics (clusters in embedding space), while a small number are spam /
corrupted embeddings lying far away from everything.

The script runs the paper's 1-pass CORESETOUTLIERS algorithm at several
working-memory budgets and the BASEOUTLIERS baseline of McCutchen and
Khuller, and reports solution quality (clustering radius after discarding
the spam), peak working memory, and throughput — the axes of Figure 5.
The algorithms see the stream only chunk by chunk and keep nothing but
their bounded working set.

Events are ingested in 1024-point chunks, the realistic shape for a
high-rate pipeline; the last row repeats the mu=8 configuration with one
event per chunk (``batch_size=1``) to show that the answer is identical
and only the throughput changes.

Run with:  python examples/streaming_event_monitoring.py
"""

from __future__ import annotations

from repro.baselines import BaseStreamOutliers
from repro.core import CoresetStreamOutliers, radius_with_outliers
from repro.datasets import GaussianMixtureSpec, gaussian_mixture, inject_outliers
from repro.evaluation import format_records
from repro.streaming import ArrayStream, StreamingRunner


def main() -> None:
    n_events = 20_000
    k = 25    # topics to track
    z = 100   # spam budget

    topics = GaussianMixtureSpec(n_clusters=k, dimension=16, cluster_std=0.8, box_size=40.0)
    events = gaussian_mixture(n_events, topics, random_state=0)
    injected = inject_outliers(events, z, random_state=1)
    stream_data = injected.points

    runner = StreamingRunner(batch_size=1024)
    records = []

    for mu in (1, 2, 4, 8):
        algorithm = CoresetStreamOutliers(k, z, coreset_multiplier=mu)
        report = runner.run(algorithm, ArrayStream(stream_data, shuffle=True, random_state=2))
        records.append(
            {
                "algorithm": f"CoresetOutliers mu={mu}",
                "peak memory (points)": report.peak_memory,
                "radius (excl. spam)": radius_with_outliers(stream_data, report.result.centers, z),
                "throughput (events/s)": report.throughput,
            }
        )

    baseline = BaseStreamOutliers(k, z, n_instances=1, buffer_capacity=k * z // 4)
    report = runner.run(baseline, ArrayStream(stream_data, shuffle=True, random_state=2))
    records.append(
        {
            "algorithm": "BaseOutliers m=1",
            "peak memory (points)": report.peak_memory,
            "radius (excl. spam)": radius_with_outliers(stream_data, report.result.centers, z),
            "throughput (events/s)": report.throughput,
        }
    )

    # Same configuration, one event per chunk: identical answer, lower throughput.
    one_event = CoresetStreamOutliers(k, z, coreset_multiplier=8)
    report = StreamingRunner(batch_size=1).run(
        one_event, ArrayStream(stream_data, shuffle=True, random_state=2)
    )
    records.append(
        {
            "algorithm": "CoresetOutliers mu=8 (batch size 1)",
            "peak memory (points)": report.peak_memory,
            "radius (excl. spam)": radius_with_outliers(stream_data, report.result.centers, z),
            "throughput (events/s)": report.throughput,
        }
    )

    print(f"Event stream: {n_events} events + {z} spam, k={k} topics\n")
    print(format_records(records))
    print("\nThe coreset algorithm keeps a working set of mu*(k+z) points and "
          "trades memory for quality. The buffered baseline, with a working "
          "set between those of mu=4 and mu=8 and a throughput in the range "
          "of the coreset rows, returns a radius about ten times larger. The "
          "first five rows ingest 1024-event chunks; the last row feeds one "
          "event per chunk and returns the same answer as the mu=8 row at "
          "several times fewer events per second.")


if __name__ == "__main__":
    main()
