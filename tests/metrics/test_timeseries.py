"""Unit tests for windowed rates and EWMA estimators."""

import math

import pytest

from repro.metrics import EwmaEstimator, WindowedRate


class TestWindowedRate:
    def test_rate_during_warmup_uses_elapsed_time(self):
        # 4 events over 0.4s of elapsed time: the true rate is 10/s, not
        # the 4/s the old full-window denominator reported.
        wr = WindowedRate(window=1.0)
        for t in (0.1, 0.2, 0.3, 0.4):
            wr.record(t)
        assert wr.rate(0.5) == pytest.approx(4.0 / 0.4)

    def test_rate_after_full_window_divides_by_window(self):
        wr = WindowedRate(window=1.0)
        for t in (0.1, 0.2, 0.3, 0.4):
            wr.record(t)
        # A full window has elapsed since the first event: back to /window
        # (the event at 0.1 has left the [0.2, 1.2] window).
        assert wr.rate(1.2) == pytest.approx(3.0 / 1.0)

    def test_rate_at_first_event_is_clamped_not_infinite(self):
        wr = WindowedRate(window=1.0)
        wr.record(5.0)
        rate = wr.rate(5.0)
        assert math.isfinite(rate)
        assert rate == pytest.approx(1.0 / 1e-6)

    def test_warmup_denominator_tracks_first_event_not_eviction(self):
        wr = WindowedRate(window=1.0)
        wr.record(0.0)
        wr.record(0.5)
        # 1.2s after the first event: the warm-up clamp no longer applies
        # even though the first event itself was evicted.
        assert wr.rate(1.2) == pytest.approx(1.0 / 1.0)

    def test_empty_rate_is_zero(self):
        wr = WindowedRate(window=1.0)
        assert wr.rate(10.0) == 0.0
        assert wr.count(10.0) == 0.0

    def test_eviction(self):
        wr = WindowedRate(window=1.0)
        wr.record(0.0)
        wr.record(2.0)
        assert wr.count(2.5) == 1.0  # first event evicted

    def test_same_instant_events_each_count(self):
        # One socket chunk's ops share an arrival stamp: three events at
        # one instant are three events, and the count is exact.
        wr = WindowedRate(window=2.0)
        for t in (0.0, 0.0, 0.0, 1.0):
            wr.record(t)
        assert wr.count(1.5) == 4
        assert wr.rate(1.5) == 4 / 1.5
        assert wr.count(2.5) == 1  # the three leave the window together

    def test_stale_query_raises(self):
        # Events recorded after `now` must not be silently counted: a
        # stale-clock query would overstate the rate.
        wr = WindowedRate(window=1.0)
        wr.record(1.0)
        wr.record(2.0)
        with pytest.raises(ValueError, match="stale"):
            wr.rate(1.5)
        with pytest.raises(ValueError, match="stale"):
            wr.count(1.5)

    def test_query_at_latest_event_time_is_allowed(self):
        wr = WindowedRate(window=1.0)
        wr.record(1.0)
        wr.record(2.0)
        assert wr.count(2.0) == 2.0

    def test_rejects_time_regression(self):
        wr = WindowedRate(window=1.0)
        wr.record(1.0)
        with pytest.raises(ValueError):
            wr.record(0.5)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            WindowedRate(window=0.0)


class TestEwmaEstimator:
    def test_first_sample_initializes(self):
        e = EwmaEstimator(time_constant=1.0)
        e.update(0.0, 10.0)
        assert e.value == 10.0

    def test_converges_to_constant_signal(self):
        e = EwmaEstimator(time_constant=0.5)
        for i in range(100):
            e.update(i * 0.1, 42.0)
        assert e.value == pytest.approx(42.0)

    def test_decay_follows_time_constant(self):
        e = EwmaEstimator(time_constant=1.0)
        e.update(0.0, 0.0)
        # One time constant later, a unit step should close 1 - 1/e of the gap.
        e.update(1.0, 1.0)
        assert e.value == pytest.approx(1.0 - math.exp(-1.0), rel=1e-9)

    def test_step_size_invariance(self):
        """Sampling cadence must not change the effective time constant:
        ten 0.1s updates toward a constant target equal one 1.0s update."""
        fast = EwmaEstimator(time_constant=1.0)
        slow = EwmaEstimator(time_constant=1.0)
        fast.update(0.0, 0.0)
        slow.update(0.0, 0.0)
        for i in range(1, 11):
            fast.update(i * 0.1, 1.0)
        slow.update(1.0, 1.0)
        assert fast.value == pytest.approx(slow.value, rel=1e-9)

    def test_rejects_time_regression(self):
        e = EwmaEstimator(time_constant=1.0)
        e.update(1.0, 1.0)
        with pytest.raises(ValueError):
            e.update(0.5, 1.0)

    def test_invalid_time_constant(self):
        with pytest.raises(ValueError):
            EwmaEstimator(time_constant=0.0)
