"""Hypothesis property suite for the time-series recorders.

Three invariants the streamed metrics bus (and the C3/credits estimators
it feeds) lean on:

* window boundary inclusivity -- ``count(now)`` is exactly the number of
  events with ``now - window <= t <= now``, with the left edge inclusive;
* lazy/amortized eviction is invisible -- any interleaving of records and
  queries answers identically to an eager recount over the full event
  history (the 4096-event amortized eviction in ``record`` must never
  change an answer);
* EWMA decay has a well-defined time constant -- folding a constant
  signal in over many small steps equals folding it in over one big step
  of the same total duration, regardless of the sampling cadence.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import EwmaEstimator, WindowedRate
from repro.metrics.timeseries import EPSILON_ELAPSED

# Gaps between events; cumulative gaps give non-decreasing event times
# (a zero gap is two events at one instant, as one socket chunk's ops are).
_gaps = st.lists(
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    min_size=1,
    max_size=60,
)


def _times_from_gaps(gaps):
    times, t = [], 0.0
    for gap in gaps:
        t += gap
        times.append(t)
    return times


def _eager_count(times, window, now):
    return len([t for t in times if now - window <= t <= now])


def _eager_rate(times, window, now):
    elapsed = min(window, max(now - times[0], EPSILON_ELAPSED))
    return _eager_count(times, window, now) / elapsed


class TestWindowedRateProperties:
    @given(
        gaps=_gaps,
        window=st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
        after=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_count_matches_eager_window_filter(self, gaps, window, after):
        times = _times_from_gaps(gaps)
        wr = WindowedRate(window=window)
        for t in times:
            wr.record(t)
        now = times[-1] + after
        assert wr.count(now) == _eager_count(times, window, now)

    @given(
        # Quarter-step times and windows are exact binary fractions, so
        # ``now - window`` lands exactly on the first event's timestamp
        # and the test probes the true boundary, not float rounding.
        quarter_gaps=st.lists(
            st.integers(min_value=0, max_value=8), min_size=1, max_size=30
        ),
        quarter_window=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=200)
    def test_left_boundary_is_inclusive(self, quarter_gaps, quarter_window):
        times = _times_from_gaps([gap * 0.25 for gap in quarter_gaps])
        window = quarter_window * 0.25
        wr = WindowedRate(window=window)
        for t in times:
            wr.record(t)
        # Query exactly one window after the first event: that event sits
        # on the left edge and must still be counted.
        now = times[0] + window
        if now >= times[-1]:  # otherwise the query would be stale
            counted = wr.count(now)
            assert counted == _eager_count(times, window, now)
            assert counted >= 1

    @given(
        gaps=_gaps,
        window=st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
        query_every=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=200)
    def test_interleaved_queries_equal_eager_recompute(
        self, gaps, window, query_every
    ):
        """Lazy + amortized eviction must be invisible to every query."""
        times = _times_from_gaps(gaps)
        wr = WindowedRate(window=window)
        for i, t in enumerate(times):
            wr.record(t)
            if i % query_every == 0:
                seen = times[: i + 1]
                assert wr.count(t) == _eager_count(seen, window, t)
                assert wr.rate(t) == _eager_rate(seen, window, t)

    @given(
        window=st.floats(min_value=0.01, max_value=0.5, allow_nan=False),
        per_window=st.integers(min_value=1, max_value=4000),
        extra=st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=25, deadline=None)
    def test_bulk_eviction_at_4096_records_answers_like_an_eager_recount(
        self, window, per_window, extra
    ):
        """A recorder nobody queries evicts in bulk once it holds 4,096
        times (a saturated worker between congestion checks); the next
        query must not be able to tell."""
        step = window / per_window
        times = [i * step for i in range(4096 + extra)]
        wr = WindowedRate(window=window)
        for t in times:
            wr.record(t)
        assert len(wr._times) < 4096  # the bulk path ran, unqueried
        now = times[-1] + step
        assert wr.count(now) == _eager_count(times, window, now)
        assert wr.rate(now) == _eager_rate(times, window, now)

    @given(
        gaps=_gaps,
        window=st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
        after=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_rate_is_count_over_clamped_elapsed(self, gaps, window, after):
        times = _times_from_gaps(gaps)
        wr = WindowedRate(window=window)
        for t in times:
            wr.record(t)
        now = times[-1] + after
        assert wr.rate(now) == _eager_rate(times, window, now)


class TestEwmaProperties:
    @given(
        steps=st.integers(min_value=1, max_value=50),
        total=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        tau=st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
        start=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        target=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_time_constant_invariant_under_sample_rate(
        self, steps, total, tau, start, target
    ):
        """N small steps toward a constant target == one big step of the
        same total duration: the decay is per unit time, not per sample."""
        fine = EwmaEstimator(time_constant=tau, initial=0.0)
        coarse = EwmaEstimator(time_constant=tau, initial=0.0)
        fine.update(0.0, start)
        coarse.update(0.0, start)
        for i in range(1, steps + 1):
            fine.update(i * total / steps, target)
        coarse.update(total, target)
        assert fine.value == pytest.approx(coarse.value, rel=1e-9, abs=1e-12)

    @given(
        tau=st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
        total=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_one_time_constant_closes_the_canonical_fraction(self, tau, total):
        e = EwmaEstimator(time_constant=tau, initial=0.0)
        e.update(0.0, 0.0)
        e.update(total, 1.0)
        assert e.value == pytest.approx(
            1.0 - math.exp(-total / tau), rel=1e-9
        )
