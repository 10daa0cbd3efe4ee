"""C3: adaptive replica selection with cubic rate control (NSDI 2015).

The paper's state-of-the-art baseline.  C3 runs at each client and has two
cooperating mechanisms (Suresh, Canini, Schmid, Feldmann -- "C3: Cutting
Tail Latency in Cloud Data Stores via Adaptive Replica Selection"):

1. **Replica ranking.**  Using feedback piggybacked on responses (queue
   size ``q_s``, service time ``1/mu_s``) and client-measured response
   times ``R_s``, each server is scored::

       psi_s = R_bar_s - 1/mu_bar_s + (q_hat_s)^3 / mu_bar_s

   where the *concurrency-compensated* queue estimate is::

       q_hat_s = 1 + os_s * w + q_bar_s

   with ``os_s`` the client's own outstanding requests to ``s`` and ``w``
   the client-concurrency weight (number of clients).  The cubing
   penalizes long queues super-linearly, which is what prevents herd
   behavior toward the currently fastest server.  The replica with the
   smallest score wins.

2. **Cubic rate control.**  Each client limits its per-server send rate
   with a CUBIC-style controller: on congestion (send rate exceeding the
   observed receive rate) the rate is cut multiplicatively and the
   pre-cut rate is remembered as the plateau ``R_max``; otherwise the rate
   grows along the cubic curve ``rate(t) = gamma (t - K)^3 + R_max`` with
   ``K = cbrt(R_max * beta / gamma)``.  Requests that exceed the rate
   limit wait in a per-server FIFO at the client (C3's "backpressure"
   queue) until a send token matures.

:class:`C3Strategy` is the whole client.  What it knows about a server is
one :class:`C3Record`, made when the server is first ranked, which each
request event (rank, gate and send, response) reads and writes.
"""

from __future__ import annotations

import math
import typing as _t
from collections import deque

from ..cluster.addresses import server_address
from ..cluster.client import DispatchStrategy
from ..cluster.messages import RequestMessage, ResponseMessage
from ..core.cost import CostModel
from ..metrics.timeseries import EPSILON_ELAPSED
from ..placement import Placement
from ..sim.rng import Stream
from ..workload.calibration import ServiceTimeModel
from ..workload.tasks import Task

# Every C3 tuning value is one constant in this block; none is a
# constructor argument.

#: Multiplicative decrease factor on congestion (CUBIC's beta).
DEFAULT_BETA = 0.2
#: Cubic growth scaling (CUBIC's C), in rate units per second^3.
DEFAULT_GAMMA = 100_000.0
#: Send-rate floor (requests/s); a limiter that starts below it floors at
#: its initial rate instead, so a cut never raises the rate.
MIN_RATE = 100.0
#: Send-rate ceiling (requests/s).
MAX_RATE = 1e7
#: CUBIC cuts at most once per this many seconds (one congestion epoch).
REACTION_INTERVAL = 0.05
#: Token-bucket depth: sends that may leave back to back.
BURST = 16.0
#: Window (seconds) of the per-server send- and receive-rate estimates.
RATE_WINDOW = 0.2
#: Feedback smoothing time constant (seconds).
DEFAULT_SMOOTHING = 0.1
#: Congestion declared only when send rate exceeds receive rate by this
#: factor (hysteresis against windowed-rate measurement noise).
CONGESTION_RATIO = 1.3
#: Minimum sends inside the window before rates are trusted at all.
MIN_WINDOW_SAMPLES = 8


def _plateau_offset(rate_max: float) -> float:
    """CUBIC's ``K``: when the curve regains the plateau ``R_max``."""
    return ((rate_max * DEFAULT_BETA) / DEFAULT_GAMMA) ** (1.0 / 3.0)


class C3Record:
    """One client's C3 state for one server, one line of slots each:

    * the feedback EWMAs (time constant ``DEFAULT_SMOOTHING``).  Response
      time and queue size are folded in on every response, so they share
      one weight and one last update (``feedback_at``, also the latest
      receive); ``None`` until the first sample, which replaces the 0.0;
    * ``outstanding``: requests assigned and not yet answered;
    * the send and receive windows: times inside the trailing
      ``RATE_WINDOW``, and when each window's first and latest event was
      (without rate control, which reads no window, the windows stay empty);
    * the cubic limiter and its token bucket; ``cuts`` counts epochs;
    * ``backlog``: requests waiting for a token, oldest first.  The pacer
      is armed exactly while it is non-empty.
    """

    __slots__ = (
        "response_time", "queue_size", "service_time", "feedback_at", "service_at",
        "outstanding",
        "sends", "sends_first", "sends_last", "recvs", "recvs_first",
        "rate", "min_rate", "rate_max", "k", "epoch_start", "last_reaction",
        "tokens", "last_refill", "cuts",
        "backlog",
    )

    def __init__(self, now: float, initial_rate: float) -> None:
        self.response_time = 0.0
        self.queue_size = 0.0
        self.service_time = 0.0
        self.feedback_at: _t.Optional[float] = None
        self.service_at: _t.Optional[float] = None
        self.outstanding = 0
        self.sends: _t.Deque[float] = deque()
        self.sends_first: _t.Optional[float] = None
        self.sends_last = -math.inf
        self.recvs: _t.Deque[float] = deque()
        self.recvs_first: _t.Optional[float] = None
        self.rate = float(initial_rate)
        self.min_rate = min(MIN_RATE, self.rate)
        self.rate_max = self.rate
        self.k = _plateau_offset(self.rate_max)
        self.epoch_start = now
        self.last_reaction = -math.inf
        self.tokens = BURST
        self.last_refill = now
        self.cuts = 0
        self.backlog: _t.Deque[RequestMessage] = deque()

    def cut(self, now: float) -> None:
        """Multiplicative decrease; remember the plateau.

        Reacts at most once per ``REACTION_INTERVAL`` -- CUBIC cuts once per
        congestion *epoch*, not once per ack, and without this guard the
        noisy windowed-rate comparison collapses the rate to the floor.
        """
        if now - self.last_reaction < REACTION_INTERVAL:
            return
        self.last_reaction = now
        self.rate_max = self.rate
        self.k = _plateau_offset(self.rate_max)
        self.rate = max(self.min_rate, self.rate * (1.0 - DEFAULT_BETA))
        self.epoch_start = now
        self.cuts += 1

    def grow(self, now: float) -> None:
        """Cubic growth toward (and past) the previous plateau."""
        t = now - self.epoch_start
        target = DEFAULT_GAMMA * (t - self.k) ** 3 + self.rate_max
        self.rate = min(MAX_RATE, max(self.min_rate, target))

    def acquire(self, now: float) -> float:
        """Refill the bucket and take one send token: 0.0 when one was
        taken, else the (positive) seconds until one matures.

        A small tolerance absorbs floating-point residue so a token that
        is 1e-12 short of maturity still counts (otherwise the pacer can
        spin on sub-representable waits).
        """
        tokens = min(BURST, self.tokens + (now - self.last_refill) * self.rate)
        self.last_refill = now
        if tokens >= 1.0 - 1e-9:
            self.tokens = max(0.0, tokens - 1.0)
            return 0.0
        self.tokens = tokens
        return (1.0 - tokens) / self.rate


class C3Strategy(DispatchStrategy):
    """The C3 client: replica ranking, cubic rate control, pacing.

    A pick counts as outstanding from ``prepare`` on, so requests waiting
    for a token are load the next ranking sees.  Requests keep the default
    priority (servers serve them FIFO).  Without ``rate_control`` the
    limiter is never consulted: ranking only.
    """

    name = "oblivious+c3"

    def __init__(
        self,
        placement: Placement,
        service_model: ServiceTimeModel,
        concurrency_weight: float,
        stream: Stream,
        initial_rate: float,
        rate_control: bool = True,
    ) -> None:
        if concurrency_weight < 1:
            raise ValueError("concurrency_weight must be >= 1")
        if initial_rate <= 0:
            raise ValueError("initial_rate must be positive")
        self.placement = placement
        self.cost_model = CostModel(service_model)
        self.concurrency_weight = float(concurrency_weight)
        self.stream = stream
        self.initial_rate = initial_rate
        self.rate_control = rate_control
        #: server id -> its record, made the first time it is ranked.
        self.records: _t.Dict[int, C3Record] = {}
        #: Requests that waited in a backlog (an audit counter).
        self.paced_requests = 0
        self._server_addresses = [server_address(s) for s in range(placement.n_servers)]

    def score(self, server_id: int) -> float:
        """The C3 ranking function psi_s (smaller is better)."""
        rec = self.records.get(server_id)
        if rec is None or rec.service_time <= 0:
            # No feedback yet: treat the server as unknown-but-promising so
            # every replica gets explored early on.
            return -math.inf
        mu_inv = rec.service_time
        q_hat = 1.0 + rec.outstanding * self.concurrency_weight + rec.queue_size
        return rec.response_time - mu_inv + (q_hat**3) * mu_inv

    # -- prepare: rank and assign ----------------------------------------------
    def prepare(self, task: Task) -> _t.List[RequestMessage]:
        placement = self.placement
        op_cost = self.cost_model.op_cost
        records = self.records
        weight = self.concurrency_weight
        task_id = task.task_id
        client_id = self.client.client_id
        now = self.client.env.now
        requests: _t.List[RequestMessage] = []
        for op in task.operations:
            partition = placement.partition_of(op.key)
            request = RequestMessage(
                op, task_id, client_id, partition, now, op_cost(op)
            )
            best: _t.List[int] = []
            best_score = math.inf
            for server in placement.replicas_of(partition):
                # :meth:`score`, inlined: it runs for every replica of every op.
                rec = records.get(server)
                if rec is None:
                    rec = records[server] = C3Record(now, self.initial_rate)
                mu_inv = rec.service_time
                if mu_inv <= 0:
                    score = -math.inf
                else:
                    q_hat = 1.0 + rec.outstanding * weight + rec.queue_size
                    score = rec.response_time - mu_inv + (q_hat**3) * mu_inv
                if score < best_score:
                    best_score = score
                    best = [server]
                elif score == best_score:
                    best.append(server)
            if len(best) > 1:
                pick = best[self.stream.randrange(len(best))]
            else:
                pick = best[0]
            request.server_id = pick
            records[pick].outstanding += 1
            requests.append(request)
        return requests

    # -- dispatch: the rate gate, the backlog and the pacer ------------------------
    def dispatch(self, requests: _t.Sequence[RequestMessage]) -> None:
        records = self.records
        rate_control = self.rate_control
        now = self.client.env.now
        for request in requests:
            rec = records[request.server_id]
            if rate_control:
                wait = rec.acquire(now)
                if wait:
                    # A request dispatched later may still take a token that
                    # matures before the pacer's next turn (a FIFO overtake).
                    self.paced_requests += 1
                    if not rec.backlog:
                        self.client.env.call_later(max(1e-6, wait), self._pace, rec)
                    rec.backlog.append(request)
                    continue
            self._send(request, rec, now)

    def _pace(self, rec: C3Record) -> None:
        """Drain ``rec``'s backlog as tokens mature.

        The wait is floored at 1 us: the token bucket can report
        sub-representable residual waits, and ``now + epsilon == now`` in
        doubles would freeze virtual time.
        """
        now = self.client.env.now
        backlog = rec.backlog
        while backlog:
            wait = rec.acquire(now)
            if wait:
                self.client.env.call_later(max(1e-6, wait), self._pace, rec)
                return
            self._send(backlog.popleft(), rec, now)

    def _send(self, request: RequestMessage, rec: C3Record, now: float) -> None:
        """Stamp ``request``, record it in the send window (only the rate
        limiter reads it), send it."""
        request.dispatched_at = now
        if now < rec.sends_last:
            raise ValueError("time went backwards")
        rec.sends_last = now
        if self.rate_control:
            if rec.sends_first is None:
                rec.sends_first = now
            sends = rec.sends
            sends.append(now)
            # Evicting here never changes a later query's answer.
            cutoff = now - RATE_WINDOW
            while sends[0] < cutoff:
                sends.popleft()
        client = self.client
        client.network.send(
            client.address, self._server_addresses[request.server_id], request
        )

    # -- feedback: EWMAs, the congestion test, the limiter ---------------------------
    def on_response(self, response: ResponseMessage) -> None:
        request = response.request
        feedback = response.feedback
        rec = self.records.get(request.server_id)
        if rec is None or rec.outstanding <= 0:
            raise RuntimeError(
                f"C3 outstanding underflow for server {request.server_id}"
            )
        rec.outstanding -= 1
        now = self.client.env.now
        # The response-time and queue-size EWMAs: one weight, one exp.
        response_time = now - request.dispatched_at
        queued = feedback.queue_length + feedback.in_service
        if rec.feedback_at is None:
            rec.recvs_first = now
            rec.response_time = float(response_time)
            rec.queue_size = float(queued)
        else:
            dt = now - rec.feedback_at
            if dt < 0:
                raise ValueError("time went backwards")
            alpha = 1.0 - math.exp(-dt / DEFAULT_SMOOTHING)
            rec.response_time += alpha * (response_time - rec.response_time)
            rec.queue_size += alpha * (queued - rec.queue_size)
        rec.feedback_at = now
        service = feedback.ewma_service_time
        if service > 0:
            if rec.service_at is None:
                rec.service_time = float(service)
            else:
                dt = now - rec.service_at
                if dt < 0:
                    raise ValueError("time went backwards")
                alpha = 1.0 - math.exp(-dt / DEFAULT_SMOOTHING)
                rec.service_time += alpha * (service - rec.service_time)
            rec.service_at = now
        if not self.rate_control:
            return
        recvs = rec.recvs
        recvs.append(now)
        cutoff = now - RATE_WINDOW
        while recvs[0] < cutoff:
            recvs.popleft()
        if now < rec.sends_last:
            raise ValueError(f"stale query: a send at {rec.sends_last} > now")
        sends = rec.sends
        while sends and sends[0] < cutoff:
            sends.popleft()
        n_sends = len(sends)
        n_recvs = len(recvs)
        # Both windows must be populated before the comparison means
        # anything: while responses are still in flight (ramp-up) the
        # receive rate trivially lags the send rate and reacting to that
        # would collapse the rate before the system ever settles.
        if (
            n_sends >= MIN_WINDOW_SAMPLES
            and n_recvs >= MIN_WINDOW_SAMPLES
            and n_sends
            / min(RATE_WINDOW, max(now - rec.sends_first, EPSILON_ELAPSED))
            > n_recvs
            / min(RATE_WINDOW, max(now - rec.recvs_first, EPSILON_ELAPSED))
            * CONGESTION_RATIO
        ):
            rec.cut(now)
        else:
            rec.grow(now)
