"""Workload models: the paper's fan-outs, value sizes, popularity, arrivals.

One workload is modelled, the SoundCloud-like trace of
:mod:`repro.workload.soundcloud`; its models are fixed when the
:class:`TaskGenerator` is built.
"""

from .arrivals import PoissonArrivals
from .calibration import (
    ServiceTimeModel,
    calibrate_service_model,
    system_capacity,
    task_arrival_rate_for_load,
)
from .fanout import (
    FanoutDistribution,
    GeometricFanout,
    LogNormalFanout,
    MixtureFanout,
)
from .popularity import (
    PopularityModel,
    SubsetHotspotPopularity,
    ZipfPopularity,
)
from .soundcloud import (
    PAPER_CLIENTS,
    PAPER_LOAD,
    PAPER_MEAN_FANOUT,
    PAPER_SERVICE_RATE,
    SoundCloudWorkload,
    make_soundcloud_workload,
    soundcloud_fanout,
)
from .tasks import Operation, Task, TaskGenerator, ValueSizeRegistry, trace_stats
from .valuesize import GeneralizedParetoValueSize, atikoglu_etc

__all__ = [
    "FanoutDistribution",
    "GeneralizedParetoValueSize",
    "GeometricFanout",
    "LogNormalFanout",
    "MixtureFanout",
    "Operation",
    "PAPER_CLIENTS",
    "PAPER_LOAD",
    "PAPER_MEAN_FANOUT",
    "PAPER_SERVICE_RATE",
    "PoissonArrivals",
    "PopularityModel",
    "ServiceTimeModel",
    "SoundCloudWorkload",
    "SubsetHotspotPopularity",
    "Task",
    "TaskGenerator",
    "ValueSizeRegistry",
    "ZipfPopularity",
    "atikoglu_etc",
    "calibrate_service_model",
    "make_soundcloud_workload",
    "soundcloud_fanout",
    "system_capacity",
    "task_arrival_rate_for_load",
    "trace_stats",
]
