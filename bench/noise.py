"""Noise control for a shared 2-core box: concurrent calibration + envelope.

This box's CPU speed drifts by +-20% over seconds (hypervisor steal and
noisy neighbours; measured: the median of a fixed spin loop over 20 s
windows has an interquartile range of 12-23% of its median).  So every
*host-time* number the benchmark reports is in **calibrated seconds**:
while a timed call runs, an interval timer interrupts it every
``SPIN_PERIOD_S`` and times a fixed pure-Python spin; the call's host time
is then scaled by ``SPIN_REF_S / mean(spin)``.  One calibrated second is
the time the box needs for ``SPIN_ITERS / SPIN_REF_S`` spin iterations,
whatever else it is doing.  Model-time numbers (simulated latencies,
open-loop latencies in model ms) are not scaled.

The raw host-time value of every metric is kept beside the calibrated one
(``Run.end_to_end(calibrated=False)``, ``metrics_uncalibrated`` in the
artifact, the ``raw host time`` column of the printed table), so what the
calibration buys is read off any artifact; ``README.md`` has the measured
ten-seed spreads both ways, and what the interrupts cost.
"""

from __future__ import annotations

import os
import platform
import signal
import statistics
import time
import typing as _t

#: Iterations of one calibration spin (~65 us: short enough not to move
#: a 6 ms firehose RTT, long enough to time).
SPIN_ITERS = 2500
#: A sample is the fastest of this many back-to-back spins: in a mostly
#: idle process (the open loop) the first spin after a wake-up pays for a
#: cold core, which is not the box's speed.  On probes this took the
#: spread of the open loop's calibrated CPU per task from 18% to 8%.
SPINS_PER_SAMPLE = 3
#: How often the running call is interrupted for a sample (2% overhead).
SPIN_PERIOD_S = 0.01
#: Nominal duration of one spin on a quiet core of this box class; fixes
#: the unit so calibrated numbers read like quiet-box numbers.
SPIN_REF_S = 62.5e-6


def _spin() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(SPIN_ITERS):
        acc += i
    return time.perf_counter() - t0


class Calibrator:
    """Times a spin every ``SPIN_PERIOD_S`` while the ``with`` body runs.

    Main thread only (it owns ``SIGALRM``).  Forked children do not
    inherit interval timers, so a server forked inside the body is not
    interrupted; its speed is assumed to drift with the parent's.
    """

    def __init__(self) -> None:
        self.samples: _t.List[float] = []
        #: Host time the spins took in all (subtract from wall and CPU).
        self.spent_s = 0.0
        self._busy = False
        self._previous: _t.Any = None

    def _sample(self) -> None:
        spins = [_spin() for _ in range(SPINS_PER_SAMPLE)]
        self.samples.append(min(spins))
        self.spent_s += sum(spins)

    def _on_alarm(self, _signum: int, _frame: _t.Any) -> None:
        if self._busy:  # a stall delivered two alarms back to back
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def __enter__(self) -> "Calibrator":
        self.samples, self.spent_s = [], 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SPIN_PERIOD_S, SPIN_PERIOD_S)
        return self

    def __exit__(self, *exc_info: _t.Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def spin_s(self) -> float:
        """Mean spin duration seen while the body ran."""
        return statistics.fmean(self.samples)

    @property
    def scale(self) -> float:
        """Multiply a host duration by this to get calibrated seconds."""
        return SPIN_REF_S / self.spin_s


class Meter:
    """Wall + CPU of the ``with`` body, spins excluded, plus their scale."""

    def __init__(self) -> None:
        self.calibrator = Calibrator()
        self.wall_s = self.cpu_s = 0.0

    def __enter__(self) -> "Meter":
        self.calibrator.__enter__()
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: _t.Any) -> None:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        self.calibrator.__exit__(*exc_info)
        spent = self.calibrator.spent_s
        self.wall_s = max(wall - spent, 1e-9)
        self.cpu_s = max(cpu - spent, 0.0)

    @property
    def scale(self) -> float:
        return self.calibrator.scale


def calibration_spin(n: int = 1_000_000, best_of: int = 3) -> float:
    """Spin iterations per host second: the before/after yardstick that
    flags a run whose box changed speed while it ran."""
    best = 0.0
    for _ in range(best_of):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += i
        best = max(best, n / (time.perf_counter() - t0))
    return best


def envelope() -> _t.Dict[str, _t.Any]:
    """Where and when this ran: enough to tell two artifacts apart."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "loadavg_1min": os.getloadavg()[0],
        "spin_iters": SPIN_ITERS,
        "spin_ref_s": SPIN_REF_S,
    }


def spread(values: _t.Sequence[float]) -> _t.Dict[str, _t.Any]:
    """Median, quartiles and count of per-repeat values."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "iqr_frac": (q3 - q1) / abs(median) if median else 0.0,
        "per_repeat": values,
    }
