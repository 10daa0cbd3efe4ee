"""Micro-benchmarks: kernel event throughput and metrics ingest.

These are the only benches where wall-clock time is itself the result --
they bound the cost of scaling the Figure 2 runs to the paper's 500k
tasks, and catch kernel performance regressions.
"""

from conftest import pingpong_events, save_report

from repro.metrics import LogHistogram
from repro.sim import Stream


def histogram_ingest(n=200_000):
    h = LogHistogram(min_value=1e-6, max_value=10.0, precision=0.01)
    stream = Stream(2, "lat")
    for _ in range(n):
        h.record(stream.expovariate(1000.0) + 1e-6)
    return h


def test_event_throughput(benchmark):
    events = benchmark(pingpong_events)
    assert events > 10_000
    stats = benchmark.stats.stats
    rate = events / stats.mean
    report = f"kernel event throughput: {rate:,.0f} events/s ({events} events)"
    print("\n" + report)
    # JSON artifact alongside the .txt so the bench-trajectory tooling can
    # read this series like every other benchmark's.
    save_report(
        "micro_event_throughput",
        report,
        data={
            "events": events,
            "events_per_sec": rate,
            "mean_s": stats.mean,
            "min_s": stats.min,
            "rounds": stats.rounds,
        },
    )


def test_histogram_ingest(benchmark):
    h = benchmark.pedantic(histogram_ingest, rounds=1, iterations=1)
    assert h.count == 200_000
    assert h.quantile(0.99) > h.quantile(0.5)
