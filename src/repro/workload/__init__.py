"""Workload models: fan-outs, value sizes, popularity, arrivals, traces."""

from .arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    PoissonArrivals,
)
from .calibration import (
    ServiceTimeModel,
    calibrate_service_model,
    system_capacity,
    task_arrival_rate_for_load,
)
from .fanout import (
    FanoutDistribution,
    FixedFanout,
    GeometricFanout,
    LogNormalFanout,
    MixtureFanout,
    calibrated_lognormal,
    empirical_mean,
)
from .popularity import (
    HotColdPopularity,
    PopularityModel,
    SubsetHotspotPopularity,
    UniformPopularity,
    ZipfPopularity,
)
from .soundcloud import (
    PAPER_LOAD,
    PAPER_MEAN_FANOUT,
    PAPER_SERVICE_RATE,
    SoundCloudWorkload,
    make_soundcloud_workload,
    soundcloud_fanout,
)
from .tasks import Operation, Task, TaskGenerator, ValueSizeRegistry, trace_stats
from .trace import TraceFormatError, load_trace, save_trace
from .valuesize import (
    FixedValueSize,
    GeneralizedParetoValueSize,
    UniformValueSize,
    ValueSizeDistribution,
    atikoglu_etc,
)

__all__ = [
    "ArrivalProcess",
    "DeterministicArrivals",
    "FanoutDistribution",
    "FixedFanout",
    "FixedValueSize",
    "GeneralizedParetoValueSize",
    "GeometricFanout",
    "HotColdPopularity",
    "LogNormalFanout",
    "MixtureFanout",
    "Operation",
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
    "TraceFormatError",
    "UniformPopularity",
    "UniformValueSize",
    "ValueSizeDistribution",
    "ValueSizeRegistry",
    "ZipfPopularity",
    "atikoglu_etc",
    "calibrate_service_model",
    "calibrated_lognormal",
    "empirical_mean",
    "load_trace",
    "make_soundcloud_workload",
    "save_trace",
    "soundcloud_fanout",
    "system_capacity",
    "task_arrival_rate_for_load",
    "trace_stats",
]
