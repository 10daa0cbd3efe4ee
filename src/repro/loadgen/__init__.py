"""Live load generation: scenario replay over the clock/transport seam.

The client half of the live serving subsystem: the registered strategy
builders assemble the *same* dispatch strategies the simulation runs, but
bound to a wall clock and a TCP transport, driving a
:mod:`repro.serve` service with the scenario library's workloads and
fault schedules.  ``repro loadgen`` runs one strategy; ``repro compare``
pairs live runs with simulations of the identical configuration.
"""

from .compare import CompareReport, run_compare
from .driver import live_summary, run_live, run_live_seeds
from .firehose import FirehoseResult, run_firehose
from .transport import LiveTransport, LiveTransportError

__all__ = [
    "CompareReport",
    "FirehoseResult",
    "LiveTransport",
    "LiveTransportError",
    "live_summary",
    "run_compare",
    "run_firehose",
    "run_live",
    "run_live_seeds",
]
