"""Unit tests for fan-out distributions."""

import pytest

from repro.sim import Stream
from repro.workload import (
    FanoutDistribution,
    GeometricFanout,
    LogNormalFanout,
    MixtureFanout,
)
from repro.workload.soundcloud import soundcloud_fanout


class FixedFanout(FanoutDistribution):
    """Mixture component stub: every task has exactly ``n`` requests."""

    def __init__(self, n):
        self.n = n

    def sample(self, stream):
        return self.n

    def mean(self):
        return float(self.n)


def empirical_mean(dist, stream, n):
    """Monte-Carlo mean of ``n`` draws."""
    return sum(dist.sample(stream) for _ in range(n)) / n


class TestGeometric:
    def test_mean_calibration(self):
        dist = GeometricFanout(8.6)
        m = empirical_mean(dist, Stream(3), n=100_000)
        assert m == pytest.approx(8.6, rel=0.03)

    def test_minimum_is_one(self):
        dist = GeometricFanout(1.5)
        stream = Stream(4)
        assert all(dist.sample(stream) >= 1 for _ in range(5000))

    def test_rejects_mean_below_one(self):
        with pytest.raises(ValueError):
            GeometricFanout(1.0)


class TestLogNormal:
    def test_cap_respected(self):
        dist = LogNormalFanout(8.6, sigma=1.5, cap=64)
        stream = Stream(5)
        assert all(1 <= dist.sample(stream) <= 64 for _ in range(5000))

    def test_heavy_tail(self):
        """With sigma=1 a non-negligible share of tasks exceed 3x the mean."""
        dist = LogNormalFanout(8.6, sigma=1.0, cap=1024)
        stream = Stream(6)
        draws = [dist.sample(stream) for _ in range(20_000)]
        big = sum(1 for d in draws if d > 26)
        assert 0.005 < big / len(draws) < 0.2

    def test_validates(self):
        with pytest.raises(ValueError):
            LogNormalFanout(0.5)
        with pytest.raises(ValueError):
            LogNormalFanout(5.0, sigma=0.0)
        with pytest.raises(ValueError):
            LogNormalFanout(5.0, cap=1)


class TestMixture:
    def test_weights_normalized(self):
        dist = MixtureFanout([(2.0, FixedFanout(1)), (2.0, FixedFanout(3))])
        assert dist.mean() == pytest.approx(2.0)

    def test_sampling_mixes(self):
        dist = MixtureFanout([(0.5, FixedFanout(1)), (0.5, FixedFanout(100))])
        stream = Stream(8)
        draws = {dist.sample(stream) for _ in range(200)}
        assert draws == {1, 100}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MixtureFanout([])

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            MixtureFanout([(0.0, FixedFanout(1))])


class TestSoundCloudFanout:
    def test_mean_is_paper_value(self):
        dist = soundcloud_fanout()
        m = empirical_mean(dist, Stream(9), n=100_000)
        assert m == pytest.approx(8.6, rel=0.05)

    def test_pure_geometric_when_no_playlists(self):
        dist = soundcloud_fanout(playlist_fraction=0.0)
        assert isinstance(dist, GeometricFanout)

    def test_heavy_tail_from_playlists(self):
        dist = soundcloud_fanout(playlist_fraction=0.25)
        stream = Stream(10)
        draws = [dist.sample(stream) for _ in range(50_000)]
        assert max(draws) > 50  # playlist expansions reach large fan-outs

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            soundcloud_fanout(mean=1.0)
