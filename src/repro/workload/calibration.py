"""Service-time model and capacity calibration.

The paper's setup: each server has 4 cores, "each operating at an average
service rate of 3500 requests/s", and the Poisson task arrival rate is "set
to match 70% of system capacity".  This module owns both calculations:

* :class:`ServiceTimeModel` -- maps a value size to a service time, split
  into a fixed per-request overhead and a size-proportional part.  Service
  is deterministic, so a server takes exactly the time a BRB client
  forecasts; the *mean* service time under the configured value-size
  distribution is calibrated to ``1/3500`` s.
* :func:`task_arrival_rate_for_load` -- converts a target utilization into
  a task arrival rate given the mean fan-out.
"""

from __future__ import annotations

import dataclasses

from .valuesize import GeneralizedParetoValueSize

#: Share of the mean service time that is the fixed per-request overhead
#: (parsing, index lookup).  The paper pins only the aggregate rate
#: (3500/s); 20% keeps small requests meaningfully cheaper than large
#: ones, which is the asymmetry BRB's cost model exploits.
OVERHEAD_FRACTION = 0.2

@dataclasses.dataclass(frozen=True)
class ServiceTimeModel:
    """Linear size -> time model: ``t = overhead + size / bandwidth``.

    Deterministic: the time a server spends on a request is the forecast
    BRB clients use as its cost (the paper forecasts service times "based
    on the size of the value").
    """

    overhead: float
    bandwidth: float  # bytes per second

    def __post_init__(self) -> None:
        if self.overhead < 0:
            raise ValueError("overhead must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def expected_time(self, value_size: int) -> float:
        """Service time for a value of ``value_size`` bytes.

        Runs once per served request and once per cost forecast.
        """
        if value_size <= 0:
            raise ValueError("value_size must be positive")
        return self.overhead + value_size / self.bandwidth

    def mean_time(self, mean_value_size: float) -> float:
        """Mean service time given the mean value size."""
        if mean_value_size <= 0:
            raise ValueError("mean_value_size must be positive")
        return self.overhead + mean_value_size / self.bandwidth


def calibrate_service_model(
    value_sizes: GeneralizedParetoValueSize,
    target_rate: float = 3500.0,
) -> ServiceTimeModel:
    """Build a service model whose mean rate is ``target_rate`` req/s/core.

    ``OVERHEAD_FRACTION`` of the mean service time is the fixed
    per-request overhead, the rest the size-proportional transfer.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    mean_time = 1.0 / target_rate
    overhead = mean_time * OVERHEAD_FRACTION
    mean_size = value_sizes.mean()
    bandwidth = mean_size / (mean_time - overhead)
    return ServiceTimeModel(overhead=overhead, bandwidth=bandwidth)


def system_capacity(
    n_servers: int, cores_per_server: int, per_core_rate: float
) -> float:
    """Aggregate request service capacity of the backend, requests/second."""
    if n_servers <= 0 or cores_per_server <= 0:
        raise ValueError("server counts must be positive")
    if per_core_rate <= 0:
        raise ValueError("per_core_rate must be positive")
    return n_servers * cores_per_server * per_core_rate


def task_arrival_rate_for_load(
    load: float,
    n_servers: int,
    cores_per_server: int,
    per_core_rate: float,
    mean_fanout: float,
) -> float:
    """Task arrival rate that drives the backend at ``load`` utilization.

    Each task contributes ``mean_fanout`` requests, so::

        rate_tasks = load * capacity_requests / mean_fanout
    """
    if not (0.0 < load):
        raise ValueError("load must be positive")
    if mean_fanout < 1.0:
        raise ValueError("mean fan-out must be >= 1")
    capacity = system_capacity(n_servers, cores_per_server, per_core_rate)
    return load * capacity / mean_fanout
