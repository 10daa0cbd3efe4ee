"""Unit tests for the service-time model and capacity calibration."""

import pytest

from repro.sim import Stream
from repro.workload import (
    ServiceTimeModel,
    atikoglu_etc,
    calibrate_service_model,
    system_capacity,
    task_arrival_rate_for_load,
)


class TestServiceTimeModel:
    def test_expected_time_linear_in_size(self):
        model = ServiceTimeModel(overhead=1e-4, bandwidth=1e6)
        assert model.expected_time(1000) == pytest.approx(1e-4 + 1e-3)
        assert model.expected_time(2000) > model.expected_time(1000)

    def test_validates(self):
        with pytest.raises(ValueError):
            ServiceTimeModel(overhead=-1.0, bandwidth=1.0)
        with pytest.raises(ValueError):
            ServiceTimeModel(overhead=0.0, bandwidth=0.0)
        model = ServiceTimeModel(overhead=0.0, bandwidth=1.0)
        with pytest.raises(ValueError):
            model.expected_time(0)


def empirical_service_rate(model, value_sizes, n, seed=42):
    """Monte-Carlo per-core service rate under the value-size mix."""
    size_stream = Stream(seed, "calibration-sizes")
    total = sum(model.expected_time(value_sizes.sample(size_stream)) for _ in range(n))
    return n / total


class TestCalibration:
    def test_calibrated_rate_hits_target(self):
        """The paper's 3500 req/s/core must emerge from the size mix."""
        sizes = atikoglu_etc()
        model = calibrate_service_model(sizes, target_rate=3500.0)
        rate = empirical_service_rate(model, sizes, n=50_000)
        assert rate == pytest.approx(3500.0, rel=0.03)

    def test_overhead_fraction(self):
        sizes = atikoglu_etc()
        model = calibrate_service_model(sizes, target_rate=1000.0, overhead_fraction=0.5)
        assert model.overhead == pytest.approx(0.5e-3)
        assert model.mean_time(sizes.mean()) == pytest.approx(1e-3)

    def test_validates(self):
        sizes = atikoglu_etc()
        with pytest.raises(ValueError):
            calibrate_service_model(sizes, target_rate=0.0)
        with pytest.raises(ValueError):
            calibrate_service_model(sizes, overhead_fraction=1.0)


class TestCapacityArithmetic:
    def test_system_capacity(self):
        assert system_capacity(9, 4, 3500.0) == pytest.approx(126_000.0)

    def test_task_rate_for_load(self):
        """Paper setup: 70% of 126k req/s over fan-out 8.6."""
        rate = task_arrival_rate_for_load(0.7, 9, 4, 3500.0, 8.6)
        assert rate == pytest.approx(0.7 * 126_000.0 / 8.6)

    def test_validates(self):
        with pytest.raises(ValueError):
            system_capacity(0, 4, 3500.0)
        with pytest.raises(ValueError):
            task_arrival_rate_for_load(0.0, 9, 4, 3500.0, 8.6)
        with pytest.raises(ValueError):
            task_arrival_rate_for_load(0.7, 9, 4, 3500.0, 0.5)
