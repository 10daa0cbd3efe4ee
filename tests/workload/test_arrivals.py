"""Unit tests for arrival processes."""

import pytest

from repro.sim import Stream
from itertools import accumulate

from repro.workload import DeterministicArrivals, PoissonArrivals


class TestPoisson:
    def test_mean_rate(self):
        proc = PoissonArrivals(rate=100.0)
        stream = Stream(1)
        n = 50_000
        total = sum(proc.next_interarrival(stream) for _ in range(n))
        assert n / total == pytest.approx(100.0, rel=0.03)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)

    def test_interarrivals_memoryless_cv(self):
        """Exponential gaps have coefficient of variation ~ 1."""
        proc = PoissonArrivals(rate=10.0)
        stream = Stream(2)
        gaps = [proc.next_interarrival(stream) for _ in range(20_000)]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / (len(gaps) - 1)
        cv = var**0.5 / mean
        assert cv == pytest.approx(1.0, rel=0.05)


class TestDeterministic:
    def test_fixed_period(self):
        proc = DeterministicArrivals(rate=4.0)
        stream = Stream(3)
        assert proc.next_interarrival(stream) == 0.25
        assert proc.next_interarrival(stream) == 0.25


class TestArrivalTimes:
    """Arrival instants: the running sum of one ``interarrival_block``."""

    def test_monotone_increasing(self):
        gaps = PoissonArrivals(50.0).interarrival_block(Stream(6), 1000)
        times = list(accumulate(gaps))
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_count_and_start(self):
        gaps = DeterministicArrivals(1.0).interarrival_block(Stream(7), 3)
        assert list(accumulate(gaps, initial=10.0))[1:] == [11.0, 12.0, 13.0]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(1.0).interarrival_block(Stream(8), -1)
