"""SoundCloud-like workload generator.

The paper evaluates on a production trace "gathered from SoundCloud
[comprising] approximately 500,000 tasks, with an average fan-out of 8.6
requests per task".  The trace is proprietary; this module synthesizes a
workload that matches everything the paper discloses and models the rest
after the service's access patterns:

* **Fan-out**: a mixture -- the bulk of tasks are small multi-get fetches
  (user profile + a handful of associations), a minority are playlist/
  stream expansions with heavy-tailed (log-normal) fan-out.  The mixture
  mean is calibrated to 8.6.
* **Value sizes**: the Atikoglu et al. generalized-Pareto fit the paper
  cites (see :mod:`repro.workload.valuesize`).
* **Key popularity**: Zipf(0.9) over the keyspace -- standard for social
  audio/content workloads.
* **Arrivals**: Poisson at a configurable fraction of system capacity
  (the paper uses 70%).

Every knob is exposed so ablations can perturb one axis at a time.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..sim.rng import StreamFactory
from .arrivals import PoissonArrivals
from .calibration import (
    ServiceTimeModel,
    calibrate_service_model,
    task_arrival_rate_for_load,
)
from .fanout import FanoutDistribution, GeometricFanout, LogNormalFanout, MixtureFanout
from .popularity import PopularityModel, ZipfPopularity
from .tasks import Task, TaskGenerator, ValueSizeRegistry
from .valuesize import GeneralizedParetoValueSize, atikoglu_etc


#: Disclosed properties of the paper's trace.
PAPER_MEAN_FANOUT = 8.6
PAPER_LOAD = 0.70
PAPER_CLIENTS = 18
PAPER_SERVICE_RATE = 3500.0


def soundcloud_fanout(
    mean: float = PAPER_MEAN_FANOUT,
    playlist_fraction: float = 0.25,
) -> FanoutDistribution:
    """The fan-out mixture: small multi-gets + heavy-tailed playlists.

    With ``playlist_fraction`` p and overall mean m, the playlist component
    mean is chosen 3x the base component mean, solving
    ``(1-p) * b + p * 3b = m``.
    """
    if mean <= 1.0:
        raise ValueError("mean fan-out must exceed 1")
    if not (0.0 <= playlist_fraction < 1.0):
        raise ValueError("playlist_fraction must be in [0, 1)")
    if playlist_fraction == 0.0:
        return GeometricFanout(mean)
    base_mean = mean / (1.0 - playlist_fraction + 3.0 * playlist_fraction)
    playlist_mean = 3.0 * base_mean
    return MixtureFanout(
        [
            (1.0 - playlist_fraction, GeometricFanout(max(1.01, base_mean))),
            (
                playlist_fraction,
                LogNormalFanout(max(1.01, playlist_mean), sigma=1.0, cap=512),
            ),
        ]
    )


@dataclasses.dataclass
class SoundCloudWorkload:
    """Fully-specified workload: distributions plus derived arrival rate."""

    n_tasks: int
    n_keys: int
    load: float
    mean_fanout: float
    fanout: FanoutDistribution
    popularity: PopularityModel
    value_sizes: GeneralizedParetoValueSize
    service_model: ServiceTimeModel
    task_rate: float

    def generator(self, streams: StreamFactory) -> TaskGenerator:
        """Build the task generator bound to a seed's stream factory."""
        registry = ValueSizeRegistry(self.value_sizes, seed=streams.root_seed)
        return TaskGenerator(
            fanout=self.fanout,
            popularity=self.popularity,
            value_sizes=registry,
            arrivals=PoissonArrivals(self.task_rate),
            n_clients=PAPER_CLIENTS,
            streams=streams,
        )

    def generate(self, seed: int) -> _t.List[Task]:
        """Materialize the trace for one seed."""
        return self.generator(StreamFactory(seed)).generate(self.n_tasks)


def make_soundcloud_workload(
    n_tasks: int = 20_000,
    n_servers: int = 9,
    cores_per_server: int = 4,
    per_core_rate: float = PAPER_SERVICE_RATE,
    load: float = PAPER_LOAD,
    mean_fanout: float = PAPER_MEAN_FANOUT,
    n_keys: int = 100_000,
    zipf_skew: float = 0.9,
    playlist_fraction: float = 0.25,
) -> SoundCloudWorkload:
    """Assemble the paper's evaluation workload (scaled task count).

    Defaults mirror Section 2.2 of the paper: 18 clients, 9 servers with
    4 cores at 3500 req/s each, mean fan-out 8.6, Pareto value sizes,
    Poisson arrivals at 70% of capacity.  ``n_tasks`` defaults to a scaled
    20k (the paper's 500k is reachable by passing ``n_tasks=500_000``).
    """
    if n_tasks <= 0:
        raise ValueError("n_tasks must be positive")
    sizes = atikoglu_etc()
    service_model = calibrate_service_model(sizes, target_rate=per_core_rate)
    fanout = soundcloud_fanout(mean=mean_fanout, playlist_fraction=playlist_fraction)
    task_rate = task_arrival_rate_for_load(
        load=load,
        n_servers=n_servers,
        cores_per_server=cores_per_server,
        per_core_rate=per_core_rate,
        mean_fanout=fanout.mean(),
    )
    return SoundCloudWorkload(
        n_tasks=n_tasks,
        n_keys=n_keys,
        load=load,
        mean_fanout=mean_fanout,
        fanout=fanout,
        popularity=ZipfPopularity(n_keys, skew=zipf_skew),
        value_sizes=sizes,
        service_model=service_model,
        task_rate=task_rate,
    )
