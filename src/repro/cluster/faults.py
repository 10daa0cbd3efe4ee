"""Fault injection: scripted schedules of typed fault events.

Tail-latency papers live and die by stragglers, so the substrate can make
them on demand.  Experiments describe faults declaratively as a
:class:`FaultSchedule` -- an ordered script of typed, frozen fault events
that may overlap and target several servers at once:

* :class:`SlowdownFault` -- multiply the service times of one or more
  servers for a window (GC pause, background compaction, noisy neighbour).
  Overlapping slowdowns compose multiplicatively.
* :class:`CrashFault` -- pause one or more servers for a window: their
  cores stop starting new requests; queued work is retained and resumes on
  restart, so no tasks are lost (a process freeze / VM stall, not a disk
  wipe).  In-flight service at the instant of the crash is allowed to
  finish -- the approximation errs toward optimism by at most one request
  per core.
* :class:`NetworkJitterFault` -- degrade the whole network's one-way
  latency (mean multiplied, log-normal jitter) for a window.  Overlapping
  windows: the most recent onset wins; the base model returns when the
  last window closes.
* :class:`FlashCrowdFault` -- multiply the client arrival rate for a
  window (load step / flash crowd).  Overlapping crowds compose
  multiplicatively.  The runner's feeder consults
  :meth:`FaultInjector.arrival_scale` to compress inter-arrival gaps.
* :class:`RebalanceFault` -- decommission one or more servers from the
  placement ring for a window: their partitions re-home onto the
  surviving replicas (consistent hashing moves only the affected groups)
  and newly-prepared requests route around them; the servers rejoin when
  the window closes.  Requires a
  :class:`~repro.placement.MutablePlacement` (the run assembly wraps the
  config's placement in one).  Overlapping rebalances compose: each
  window's exclusions stack on the base ring.

Every event supports a delayed ``start``, a ``duration`` (``inf`` makes the
condition permanent -- heterogeneous clusters) and an optional ``period``
for recurring windows.  One :class:`FaultInjector` executes a schedule in
both realms and speaks to either in one vocabulary, the live wire's admin
frame, e.g. ``{"t": "admin", "cmd": "crash", "servers": [2]}``.  A
realm's port is one callable taking that frame: :class:`SimFaultPort`
here, the live transport's ``admin`` fan-out in :mod:`repro.loadgen`.
Both realms apply the server verbs through the one table
:data:`~repro.cluster.server.SERVER_VERBS`.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from .network import JitteredLatency, Network
from .server import SERVER_VERBS, ServerState

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.clock import Clock
    from ..placement import MutablePlacement

#: An admin frame: ``{"t": "admin", "cmd": ..., **fields}``.
AdminFrame = _t.Dict[str, _t.Any]


def _validate_window(
    start: float, duration: float, period: _t.Optional[float]
) -> None:
    if start < 0:
        raise ValueError("start must be non-negative")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if period is not None:
        if math.isinf(duration):
            raise ValueError("a permanent fault cannot recur")
        if period <= duration:
            raise ValueError("period must exceed duration")


def _window(event: "FaultEvent", hold: str = "for") -> str:
    """A fault's window in words: ``@start for duration [every period]``."""
    every = f" every {event.period:g}s" if event.period is not None else ""
    return f"@{event.start:g}s {hold} {event.duration:g}s{every}"


def _as_server_tuple(servers: _t.Union[int, _t.Iterable[int]]) -> _t.Tuple[int, ...]:
    if isinstance(servers, int):
        return (servers,)
    return tuple(int(s) for s in servers)


@dataclasses.dataclass(frozen=True)
class SlowdownFault:
    """Multiply service times of ``servers`` by ``factor`` for a window."""

    kind: _t.ClassVar[str] = "slowdown"

    servers: _t.Tuple[int, ...] = (0,)
    factor: float = 3.0
    start: float = 0.0
    duration: float = 0.5
    period: _t.Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "servers", _as_server_tuple(self.servers))
        if not self.servers:
            raise ValueError("slowdown fault targets no servers")
        if self.factor <= 1.0:
            raise ValueError("slowdown factor must exceed 1")
        _validate_window(self.start, self.duration, self.period)

    def describe(self) -> str:
        return (
            f"slowdown x{self.factor:g} on servers {list(self.servers)} "
            + _window(self)
        )


@dataclasses.dataclass(frozen=True)
class CrashFault:
    """Pause ``servers`` for a window; queued work survives the restart."""

    kind: _t.ClassVar[str] = "crash"

    servers: _t.Tuple[int, ...] = (0,)
    start: float = 0.0
    duration: float = 0.1
    period: _t.Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "servers", _as_server_tuple(self.servers))
        if not self.servers:
            raise ValueError("crash fault targets no servers")
        if math.isinf(self.duration):
            raise ValueError("a crash must restart (finite duration)")
        _validate_window(self.start, self.duration, self.period)

    def describe(self) -> str:
        return (
            f"crash/restart of servers {list(self.servers)} "
            + _window(self, "down for")
        )


@dataclasses.dataclass(frozen=True)
class NetworkJitterFault:
    """Degrade the network: mean one-way latency x ``factor``, jittered."""

    kind: _t.ClassVar[str] = "network-jitter"

    factor: float = 4.0
    sigma: float = 0.3
    start: float = 0.0
    duration: float = 0.2
    period: _t.Optional[float] = None

    def __post_init__(self) -> None:
        if self.factor <= 1.0:
            raise ValueError("jitter factor must exceed 1")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if math.isinf(self.duration):
            raise ValueError("permanent jitter belongs in the cluster spec")
        _validate_window(self.start, self.duration, self.period)

    def describe(self) -> str:
        return (
            f"network latency x{self.factor:g} (sigma={self.sigma:g}) "
            + _window(self)
        )


@dataclasses.dataclass(frozen=True)
class FlashCrowdFault:
    """Multiply the task arrival rate by ``multiplier`` for a window."""

    kind: _t.ClassVar[str] = "flash-crowd"

    multiplier: float = 2.0
    start: float = 0.0
    duration: float = 0.3
    period: _t.Optional[float] = None

    def __post_init__(self) -> None:
        if self.multiplier <= 1.0:
            raise ValueError("flash-crowd multiplier must exceed 1")
        if math.isinf(self.duration):
            raise ValueError("a permanent load change belongs in the config")
        _validate_window(self.start, self.duration, self.period)

    def describe(self) -> str:
        return f"flash crowd x{self.multiplier:g} arrivals " + _window(self)


@dataclasses.dataclass(frozen=True)
class RebalanceFault:
    """Remove ``servers`` from the placement ring for a window.

    Models a rolling decommission / maintenance drain: the targeted
    servers stop being *eligible* replicas (requests prepared during the
    window route to the surviving members of each affected group), then
    rejoin when the window closes.  An infinite ``duration`` models a
    permanent scale-in.  The servers themselves keep running -- requests
    already addressed to them complete normally, exactly like a drained
    node finishing its queue.
    """

    kind: _t.ClassVar[str] = "rebalance"

    servers: _t.Tuple[int, ...] = (0,)
    start: float = 0.0
    duration: float = 0.2
    period: _t.Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "servers", _as_server_tuple(self.servers))
        if not self.servers:
            raise ValueError("rebalance fault targets no servers")
        if len(set(self.servers)) != len(self.servers):
            raise ValueError("rebalance fault lists a server twice")
        _validate_window(self.start, self.duration, self.period)

    def describe(self) -> str:
        return (
            f"ring rebalance: decommission servers {list(self.servers)} "
            + _window(self)
        )


#: Any scriptable fault event.
FaultEvent = _t.Union[
    SlowdownFault, CrashFault, NetworkJitterFault, FlashCrowdFault, RebalanceFault
]


def fault_to_dict(event: FaultEvent) -> _t.Dict[str, _t.Any]:
    """JSON-friendly form of one fault event (``repro scenarios --json``).

    ``kind`` plus the event's own fields; infinite durations become the
    string ``"inf"`` so the output stays valid JSON.
    """
    out: _t.Dict[str, _t.Any] = {"kind": event.kind}
    for field in dataclasses.fields(event):
        value = getattr(event, field.name)
        if isinstance(value, float) and math.isinf(value):
            value = "inf"
        elif isinstance(value, tuple):
            value = list(value)
        out[field.name] = value
    return out


_EVENT_TYPES: _t.Tuple[type, ...] = _t.get_args(FaultEvent)


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """An ordered, immutable script of fault events (may overlap)."""

    events: _t.Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, _EVENT_TYPES):
                raise TypeError(f"not a fault event: {event!r}")

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __add__(self, other: "FaultSchedule") -> "FaultSchedule":
        return FaultSchedule(self.events + other.events)

    def validate_targets(self, n_servers: int) -> None:
        """Raise if any event targets a server id outside [0, n_servers)."""
        for event in self.events:
            for server_id in getattr(event, "servers", ()):
                if not (0 <= server_id < n_servers):
                    raise ValueError(
                        f"fault {event.describe()!r} targets server "
                        f"{server_id}, valid ids are 0..{n_servers - 1}"
                    )

    def describe(self) -> _t.List[str]:
        return [event.describe() for event in self.events]

    def to_dicts(self) -> _t.List[_t.Dict[str, _t.Any]]:
        """JSON-friendly form of the whole script, in schedule order."""
        return [fault_to_dict(event) for event in self.events]


#: The empty schedule (module-level singleton for defaults).
NO_FAULTS = FaultSchedule()


def validate_rebalance_feasibility(
    schedule: FaultSchedule, placement: "MutablePlacement"
) -> None:
    """Fail fast on rebalance scripts that cannot execute.

    Checked at injector construction so a bad schedule
    rejects before the run instead of crashing mid-window: each
    rebalance event must leave at least ``replication_factor`` live
    servers on its own.  Windows that *overlap* can still jointly exceed
    that bound; the mid-run exclusion then raises the same
    replication-factor error at the offending window's onset.
    """
    for event in schedule.events:
        if not isinstance(event, RebalanceFault):
            continue
        live = placement.n_servers - len(event.servers)
        if live < placement.replication_factor:
            raise ValueError(
                f"infeasible {event.describe()!r}: it would leave {live} "
                f"live server(s), fewer than replication_factor "
                f"{placement.replication_factor}"
            )


def windows_extras(windows: _t.Mapping[str, int]) -> _t.Dict[str, float]:
    """Audit counters, keyed ``<kind>_windows`` (dashes -> underscores)."""
    return {
        f"{kind.replace('-', '_')}_windows": float(count)
        for kind, count in sorted(windows.items())
    }


class SimFaultPort:
    """The simulation's fault port: applies one admin frame to simulated
    servers, through the live server's own verb table, or to the modelled
    network (``jitter``/``clear-jitter`` swap ``network.latency``)."""

    def __init__(
        self, servers: _t.Sequence[ServerState], network: Network
    ) -> None:
        self.servers = list(servers)
        self.network = network
        self._base_latency = network.latency

    def __call__(self, frame: AdminFrame) -> None:
        command = frame["cmd"]
        if command == "jitter":
            # Ideal zero-latency rigs still get *some* degraded latency.
            mean = max(self._base_latency.mean() * frame["factor"], 1e-6)
            self.network.latency = JitteredLatency(
                mean=mean, sigma=frame["sigma"], floor=min(10e-6, mean)
            )
        elif command == "clear-jitter":
            self.network.latency = self._base_latency
        else:
            verb = SERVER_VERBS[command]
            for server_id in frame["servers"]:
                verb(self.servers[server_id], frame)


class FaultInjector:
    """Executes a :class:`FaultSchedule` as admin frames sent to ``port``.

    The one fault driver of both realms (``clock`` is the
    :class:`~repro.core.clock.Clock` seam), so sim and live windows can
    never drift apart.  Each event is one timer chain -- delayed onset,
    hold, revert, wait out the period, recur -- whose armed handle the
    injector keeps, so :meth:`reset` stops the chains itself.  Slowdowns,
    crashes and network jitter leave as frames; flash crowds and ring
    rebalances are client-side in both realms and stay here.  Targets are
    validated against ``placement``'s server id space.  Exposes
    ``windows`` counters per fault kind for the run's audit extras and
    :meth:`arrival_scale` for the workload feeder.
    """

    def __init__(
        self,
        clock: "Clock",
        schedule: FaultSchedule,
        port: _t.Callable[[AdminFrame], None],
        placement: "MutablePlacement",
    ) -> None:
        schedule.validate_targets(placement.n_servers)
        validate_rebalance_feasibility(schedule, placement)
        self.clock = clock
        self.schedule = schedule
        self.port = port
        self.placement = placement
        #: Windows opened so far, per fault kind present in the schedule
        #: (kinds appear with count 0 until their first window opens).
        self.windows: _t.Dict[str, int] = {
            event.kind: 0 for event in schedule.events
        }
        self._crowd_scale = 1.0
        self._jitter_depth = 0
        #: Windows currently applied and not yet reverted (for reset()).
        self._open: _t.List[FaultEvent] = []
        #: Per event, the handle of its next onset or revert.
        self._timers: _t.Dict[int, _t.Any] = {}

    def start(self) -> None:
        """Arm (or, at onset 0, open) every event's first window, once."""
        for index, event in enumerate(self.schedule.events):
            if event.start > 0:
                self._arm(event.start, self._open_window, index)
            else:
                self._open_window(index)

    # -- feeder hook ----------------------------------------------------------
    def arrival_scale(self) -> float:
        """Current arrival-rate multiplier (product of active crowds)."""
        return self._crowd_scale

    # -- window machinery -------------------------------------------------------
    def _arm(
        self, delay: float, fn: _t.Callable[[int], None], index: int
    ) -> None:
        self._timers[index] = self.clock.call_later(delay, fn, index)

    def _open_window(self, index: int) -> None:
        event = self.schedule.events[index]
        self._apply(event)
        self._open.append(event)
        self.windows[event.kind] += 1
        # A permanent condition holds until reset() reverts it.
        if not math.isinf(event.duration):
            self._arm(event.duration, self._close_window, index)

    def _close_window(self, index: int) -> None:
        event = self.schedule.events[index]
        self._open.remove(event)
        self._revert(event)
        if event.period is not None:
            self._arm(event.period - event.duration, self._open_window, index)

    def reset(self) -> None:
        """Stop every window chain and revert what is still applied,
        latest first (run teardown).

        A run can end -- normally or by timeout -- mid-window; without
        this, a throttled or crashed live worker would stay degraded for
        the next run against the same server.
        """
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        while self._open:
            self._revert(self._open.pop())

    def _send(self, command: str, **fields: _t.Any) -> None:
        self.port({"t": "admin", "cmd": command, **fields})

    def _apply(self, event: FaultEvent) -> None:
        if isinstance(event, SlowdownFault):
            self._send("slowdown", servers=list(event.servers), factor=event.factor)
        elif isinstance(event, CrashFault):
            self._send("crash", servers=list(event.servers))
        elif isinstance(event, NetworkJitterFault):
            self._jitter_depth += 1
            # Overlapping windows: the latest onset wins.
            self._send("jitter", factor=event.factor, sigma=event.sigma)
        elif isinstance(event, FlashCrowdFault):
            self._crowd_scale *= event.multiplier
        elif isinstance(event, RebalanceFault):
            self.placement.exclude(event.servers)

    def _revert(self, event: FaultEvent) -> None:
        if isinstance(event, SlowdownFault):
            self._send("restore", servers=list(event.servers), factor=event.factor)
        elif isinstance(event, CrashFault):
            self._send("resume", servers=list(event.servers))
        elif isinstance(event, NetworkJitterFault):
            self._jitter_depth -= 1
            if self._jitter_depth == 0:
                self._send("clear-jitter")
        elif isinstance(event, FlashCrowdFault):
            self._crowd_scale /= event.multiplier
        elif isinstance(event, RebalanceFault):
            self.placement.readmit(event.servers)

    # -- reporting ---------------------------------------------------------------
    def extras(self) -> _t.Dict[str, float]:
        """Audit counters for the run (see :func:`windows_extras`)."""
        return windows_extras(self.windows)
