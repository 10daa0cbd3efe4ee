"""Unit tests for arrival processes."""

import pytest

from repro.sim import Stream
from itertools import accumulate

from repro.workload import PoissonArrivals


class TestPoisson:
    def test_mean_rate(self):
        proc = PoissonArrivals(rate=100.0)
        stream = Stream(1)
        n = 50_000
        total = sum(proc.interarrival_block(stream, n))
        assert n / total == pytest.approx(100.0, rel=0.03)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)

    def test_interarrivals_memoryless_cv(self):
        """Exponential gaps have coefficient of variation ~ 1."""
        proc = PoissonArrivals(rate=10.0)
        stream = Stream(2)
        gaps = proc.interarrival_block(stream, 20_000)
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / (len(gaps) - 1)
        cv = var**0.5 / mean
        assert cv == pytest.approx(1.0, rel=0.05)


class TestArrivalTimes:
    """Arrival instants: the running sum of one ``interarrival_block``."""

    def test_monotone_increasing(self):
        gaps = PoissonArrivals(50.0).interarrival_block(Stream(6), 1000)
        times = list(accumulate(gaps))
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_count_and_start(self):
        gaps = PoissonArrivals(1.0).interarrival_block(Stream(7), 3)
        times = list(accumulate(gaps, initial=10.0))
        assert len(times) == 4 and times[0] == 10.0
        assert times[1:] == [10.0 + sum(gaps[: i + 1]) for i in range(3)]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(1.0).interarrival_block(Stream(8), -1)
