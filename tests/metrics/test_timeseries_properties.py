"""Hypothesis property suite for the time-series recorders.

Three invariants the streamed metrics bus (and the C3/credits estimators
it feeds) lean on:

* window boundary inclusivity -- ``count(now)`` is exactly the weight of
  events with ``now - window <= t <= now``, with the left edge inclusive;
* lazy/amortized eviction is invisible -- any interleaving of records and
  queries answers identically to an eager recompute over the full event
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

# Tolerance for incremental-vs-eager weight sums: the recorder maintains
# a running sum (+= on record, -= on evict), which rounds differently
# from a fresh summation.
_SUM_TOL = dict(rel=1e-9, abs=1e-9)

# (gap, weight) lists; cumulative gaps give non-decreasing event times.
_gaps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


def _events_from_gaps(gaps):
    events, t = [], 0.0
    for gap, weight in gaps:
        t += gap
        events.append((t, weight))
    return events


def _eager_count(events, window, now):
    return sum(w for t, w in events if now - window <= t <= now)


def _eager_rate(events, window, now):
    first = events[0][0] if events else None
    if first is None:
        elapsed = window
    else:
        elapsed = min(window, max(now - first, EPSILON_ELAPSED))
    return _eager_count(events, window, now) / elapsed


class TestWindowedRateProperties:
    @given(
        gaps=_gaps,
        window=st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
        after=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_count_matches_eager_window_filter(self, gaps, window, after):
        events = _events_from_gaps(gaps)
        wr = WindowedRate(window=window)
        for t, w in events:
            wr.record(t, w)
        now = events[-1][0] + after
        assert wr.count(now) == pytest.approx(
            _eager_count(events, window, now), **_SUM_TOL
        )

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
        events, t = [], 0.0
        for gap in quarter_gaps:
            t += gap * 0.25
            events.append((t, 1.0))
        window = quarter_window * 0.25
        wr = WindowedRate(window=window)
        for t, w in events:
            wr.record(t, w)
        # Query exactly one window after the first event: that event sits
        # on the left edge and must still be counted.
        first_t, first_w = events[0]
        now = first_t + window
        if now >= events[-1][0]:  # otherwise the query would be stale
            counted = wr.count(now)
            assert counted == pytest.approx(
                _eager_count(events, window, now), **_SUM_TOL
            )
            assert counted >= first_w

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
        events = _events_from_gaps(gaps)
        wr = WindowedRate(window=window)
        for i, (t, w) in enumerate(events):
            wr.record(t, w)
            if i % query_every == 0:
                seen = events[: i + 1]
                assert wr.count(t) == pytest.approx(
                    _eager_count(seen, window, t), **_SUM_TOL
                )
                assert wr.rate(t) == pytest.approx(
                    _eager_rate(seen, window, t), **_SUM_TOL
                )

    @given(
        gaps=_gaps,
        window=st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
        after=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_rate_is_count_over_clamped_elapsed(self, gaps, window, after):
        events = _events_from_gaps(gaps)
        wr = WindowedRate(window=window)
        for t, w in events:
            wr.record(t, w)
        now = events[-1][0] + after
        assert wr.rate(now) == pytest.approx(
            _eager_rate(events, window, now), **_SUM_TOL
        )


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
