"""The credits realization: demand-proportional capacity sharing.

The paper: "we develop a credits strategy where clients report their
demands at measurement intervals and are assigned credits (i.e., shares of
server capacity) proportionally to demands via a logically-centralized
controller; once demand exceeds server capacity, a congestion signal is
sent to the controller and the credits allocations are adapted accordingly
at 1s intervals.  In such a realization, each server maintains a separate
priority-queue."

Components:

* :class:`CreditsController` -- the logically centralized allocator.  Each
  epoch (``DEFAULT_EPOCH``, 1 s) it turns the demand reported by clients into
  per-(client, server) credit grants, proportional to demand and capped by
  the server's (congestion-scaled) capacity budget.
* :class:`CreditGate` -- client-side enforcement: requests may only leave
  for server ``s`` while the client holds credits for ``s``; otherwise they
  wait in a client-local **priority** queue (so the BRB ordering is
  preserved even while gated) and drain when the next grant arrives.
"""

from __future__ import annotations

import heapq
import typing as _t

from ..cluster.addresses import CONTROLLER_ADDRESS, client_address, server_address
from ..cluster.messages import (
    CongestionSignal,
    CreditGrant,
    DemandReport,
    RequestMessage,
)
from .clock import Clock, Transport

#: The paper's congestion-adaptation interval ("adapted ... at 1s intervals").
DEFAULT_EPOCH = 1.0
#: Clients report demand -- and are assigned credits -- at this cadence
#: ("clients report their demands at measurement intervals and are
#: assigned credits ... proportionally to demands").
DEFAULT_MEASUREMENT_INTERVAL = 0.1
#: Multiplicative cut of a server's budget scale in an epoch that saw a
#: congestion signal.
CONGESTION_BACKOFF = 0.8
#: Multiplicative growth of the budget scale in a congestion-free epoch
#: (capped at 1.0).
RECOVERY = 1.1
#: Floor of a server's budget scale.
MIN_SCALE = 0.5
#: A gate's unused credits carry over, capped at this many fair-share
#: grant intervals worth.
ACCUMULATION_INTERVALS = 3.0
#: A gated request triggers an urgent demand report at most this often
#: (seconds).
URGENT_REPORT_GAP = 0.005


class CreditsController:
    """Logically-centralized credit allocator.

    Parameters
    ----------
    server_capacities:
        server_id -> sustainable requests/second (cores x service rate).
    allocation_interval:
        Cadence at which demand is turned into credit grants; grants are
        denominated in requests-per-allocation-interval.  Matches the
        clients' measurement interval.

    Budget scales move at most once per ``DEFAULT_EPOCH`` (the paper's
    1 s): by ``CONGESTION_BACKOFF`` after a congestion signal, by
    ``RECOVERY`` otherwise, within ``[MIN_SCALE, 1]``.
    """

    def __init__(
        self,
        env: Clock,
        network: Transport,
        n_clients: int,
        server_capacities: _t.Mapping[int, float],
        allocation_interval: float = DEFAULT_MEASUREMENT_INTERVAL,
    ) -> None:
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        if allocation_interval <= 0 or allocation_interval > DEFAULT_EPOCH:
            raise ValueError("need 0 < allocation_interval <= DEFAULT_EPOCH")
        if not server_capacities:
            raise ValueError("need at least one server capacity")
        self.env = env
        self.network = network
        self.n_clients = int(n_clients)
        self.server_capacities = dict(server_capacities)
        self.allocation_interval = float(allocation_interval)
        #: Per-server budget scale, adapted by congestion signals.
        self.scales: _t.Dict[int, float] = {s: 1.0 for s in server_capacities}
        #: Demand accumulated this epoch: client -> server -> requests.
        self._demand: _t.Dict[int, _t.Dict[int, float]] = {}
        self._congested: _t.Set[int] = set()
        self.epoch_index = 0
        self.grants_sent = 0
        self.congestion_signals = 0
        #: Budget already issued as immediate top-ups this interval.
        self._issued: _t.Dict[int, float] = {s: 0.0 for s in server_capacities}
        self._adaptation_due = DEFAULT_EPOCH
        network.register(CONTROLLER_ADDRESS, self.handle_message)
        env.call_every(self.allocation_interval, self._allocate)

    def _interval_budget(self, server: int) -> float:
        """Credits one server may hand out per allocation interval."""
        return (
            self.server_capacities[server]
            * self.allocation_interval
            * self.scales[server]
        )

    # -- message intake --------------------------------------------------------
    def handle_message(self, message: _t.Any) -> None:
        if isinstance(message, DemandReport):
            per_client = self._demand.setdefault(message.client_id, {})
            topup: _t.Dict[int, float] = {}
            for server, amount in message.demand.items():
                # Immediate top-up: as long as the server's per-interval
                # budget is not exhausted, fresh demand is granted on the
                # spot.  Below saturation credits therefore never stall a
                # client for a full interval; when the budget runs dry the
                # periodic proportional allocation takes over -- which is
                # exactly when shares (and not latency) are what matters.
                granted = 0.0
                if server in self._issued:
                    headroom_left = self._interval_budget(server) - self._issued[server]
                    granted = min(float(amount), max(0.0, headroom_left))
                    if granted > 0:
                        self._issued[server] += granted
                        topup[server] = granted
                unmet = float(amount) - granted
                if unmet > 0:
                    per_client[server] = per_client.get(server, 0.0) + unmet
            if topup:
                self.grants_sent += 1
                self.network.send(
                    CONTROLLER_ADDRESS,
                    client_address(message.client_id),
                    CreditGrant(
                        client_id=message.client_id,
                        epoch=self.epoch_index,
                        credits=topup,
                    ),
                )
        elif isinstance(message, CongestionSignal):
            self._congested.add(message.server_id)
            self.congestion_signals += 1
        else:
            raise TypeError(f"controller got unexpected message {message!r}")

    # -- allocation ----------------------------------------------------------
    def _allocate_server(
        self, server: int, demands: _t.Mapping[int, float]
    ) -> _t.Dict[int, float]:
        """Split one server's epoch budget across clients.

        Proportional to *unmet* demand (immediate top-ups already consumed
        their share of the budget); leftover capacity is split equally as a
        bootstrap share so a client that was silent this interval can still
        start sending without waiting.
        """
        budget = max(
            0.0, self._interval_budget(server) - self._issued.get(server, 0.0)
        )
        total_demand = sum(demands.values())
        grants: _t.Dict[int, float] = {}
        if budget <= 0:
            return grants
        if total_demand <= 0:
            equal = budget / self.n_clients
            return {client: equal for client in range(self.n_clients)}
        if total_demand <= budget:
            # Everyone gets what they asked; remainder split equally.
            leftover = budget - total_demand
            bonus = leftover / self.n_clients
            for client in range(self.n_clients):
                grants[client] = demands.get(client, 0.0) + bonus
        else:
            # Oversubscribed: strictly proportional shares.
            for client, demand in demands.items():
                grants[client] = budget * demand / total_demand
        return grants

    def _allocate(self, _arg: None) -> None:
        """One allocation interval: adapt budgets if due, then grant."""
        self.epoch_index += 1
        # Congestion adaptation only every epoch (the paper's 1 s).
        if self.env.now + 1e-12 >= self._adaptation_due:
            self._adaptation_due += DEFAULT_EPOCH
            for server in self.scales:
                if server in self._congested:
                    self.scales[server] = max(
                        MIN_SCALE, self.scales[server] * CONGESTION_BACKOFF
                    )
                else:
                    self.scales[server] = min(1.0, self.scales[server] * RECOVERY)
            self._congested.clear()
        # Pivot demand to per-server view and allocate.
        per_server: _t.Dict[int, _t.Dict[int, float]] = {
            s: {} for s in self.server_capacities
        }
        for client, per_client in self._demand.items():
            for server, amount in per_client.items():
                if server in per_server:
                    per_server[server][client] = amount
        per_client_grants: _t.Dict[int, _t.Dict[int, float]] = {
            c: {} for c in range(self.n_clients)
        }
        for server, demands in per_server.items():
            for client, amount in self._allocate_server(server, demands).items():
                if amount > 0:
                    per_client_grants[client][server] = amount
        self._demand.clear()
        for server in self._issued:
            self._issued[server] = 0.0
        for client, credits in per_client_grants.items():
            self.grants_sent += 1
            self.network.send(
                CONTROLLER_ADDRESS,
                client_address(client),
                CreditGrant(
                    client_id=client, epoch=self.epoch_index, credits=credits
                ),
            )


class CreditGate:
    """Client-side credit enforcement with a local priority queue.

    The gate consumes one credit per dispatched request.  Requests without
    credits wait locally, ordered by their BRB priority, so the relative
    urgency survives gating.  Demand is reported to the controller at the
    measurement cadence: backlog plus fresh arrivals since the last report.
    """

    def __init__(
        self,
        env: Clock,
        network: Transport,
        client_id: int,
        server_ids: _t.Iterable[int],
        measurement_interval: float = DEFAULT_MEASUREMENT_INTERVAL,
        initial_share: _t.Optional[_t.Mapping[int, float]] = None,
    ) -> None:
        if measurement_interval <= 0:
            raise ValueError("measurement_interval must be positive")
        self.env = env
        self.network = network
        self.client_id = int(client_id)
        self.server_ids = list(server_ids)
        self._address = client_address(self.client_id)
        self._server_addresses = {s: server_address(s) for s in self.server_ids}
        self.measurement_interval = float(measurement_interval)
        #: Spendable credits per server for the current epoch.
        self.credits: _t.Dict[int, float] = {
            s: (initial_share or {}).get(s, 0.0) for s in self.server_ids
        }
        #: Carry-over ceiling per server: ``ACCUMULATION_INTERVALS`` fair-share
        #: intervals worth -- absorbs Poisson burstiness without giving any
        #: client an unbounded claim on server capacity.  Rate-based (not
        #: per-grant) so frequent small top-ups do not shrink the cushion.
        self._caps: _t.Dict[int, float] = {
            s: max((initial_share or {}).get(s, 1.0), 1.0) * ACCUMULATION_INTERVALS
            for s in self.server_ids
        }
        #: Gated requests per server: heap of (priority, seq, request).
        self._backlog: _t.Dict[int, _t.List[_t.Tuple[_t.Any, int, RequestMessage]]] = {
            s: [] for s in self.server_ids
        }
        self._seq = 0
        #: Fresh demand since the last report, per server.
        self._new_demand: _t.Dict[int, float] = {s: 0.0 for s in self.server_ids}
        self._last_report = -float("inf")
        self.dispatched = 0
        self.gated = 0
        self.grants_received = 0
        env.call_every(self.measurement_interval, self._send_report)

    # -- dispatch path ---------------------------------------------------------
    def submit(self, request: RequestMessage) -> None:
        """Dispatch now if credits allow, else queue by priority."""
        server = request.server_id
        if server not in self.credits:
            raise ValueError(f"unknown server {server} in credit gate")
        self._new_demand[server] += 1.0
        if self.credits[server] >= 1.0 and not self._backlog[server]:
            self.credits[server] -= 1.0
            self._send(request)
        else:
            self.gated += 1
            self._seq += 1
            heapq.heappush(
                self._backlog[server], (request.priority, self._seq, request)
            )
            # A gated request is latency on the line: report demand right
            # away (rate-limited) instead of waiting out the measurement
            # interval, so the controller's top-up path can unblock us
            # within a network round trip.
            if self.env.now - self._last_report >= URGENT_REPORT_GAP:
                self._send_report()

    def _send(self, request: RequestMessage) -> None:
        request.dispatched_at = self.env.now
        self.dispatched += 1
        self.network.send(
            self._address, self._server_addresses[request.server_id], request
        )

    def _drain(self, server: int) -> None:
        backlog = self._backlog[server]
        while backlog and self.credits[server] >= 1.0:
            self.credits[server] -= 1.0
            _, _, request = heapq.heappop(backlog)
            self._send(request)

    # -- control plane -----------------------------------------------------------
    def on_grant(self, grant: CreditGrant) -> None:
        """Fold in a new grant (with bounded carry-over) and drain."""
        if grant.client_id != self.client_id:
            raise ValueError(
                f"grant for client {grant.client_id} delivered to {self.client_id}"
            )
        self.grants_received += 1
        for server in self.server_ids:
            granted = float(grant.credits.get(server, 0.0))
            if granted <= 0.0:
                continue
            cap = max(self._caps[server], granted)
            self.credits[server] = min(self.credits[server] + granted, cap)
            self._drain(server)

    def _send_report(self, _arg: None = None) -> None:
        """Report fresh demand plus standing backlog to the controller."""
        self._last_report = self.env.now
        demand: _t.Dict[int, float] = {}
        for server in self.server_ids:
            amount = self._new_demand[server] + len(self._backlog[server])
            if amount > 0:
                demand[server] = amount
            self._new_demand[server] = 0.0
        if demand:
            self.network.send(
                self._address,
                CONTROLLER_ADDRESS,
                DemandReport(
                    client_id=self.client_id, time=self.env.now, demand=demand
                ),
            )


def equal_initial_shares(
    server_capacities: _t.Mapping[int, float],
    n_clients: int,
    interval: float,
) -> _t.Dict[int, float]:
    """Bootstrap credits before the first grant: an equal split of one
    measurement ``interval``'s capacity."""
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    return {
        server: capacity * interval / n_clients
        for server, capacity in server_capacities.items()
    }
