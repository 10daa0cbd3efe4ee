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
   ``K = cbrt(R_max * beta / gamma)``.

Requests that exceed the rate limit wait in a per-server FIFO at the
client (C3's "backpressure" queue) and are released by a pacing process.
"""

from __future__ import annotations

import math
import typing as _t

from ..cluster.messages import RequestMessage, ResponseMessage
from ..core.clock import Clock
from ..metrics.timeseries import EwmaEstimator, WindowedRate
from ..sim.rng import Stream
from .selectors import ReplicaSelector

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


class CubicRateLimiter:
    """Per-server CUBIC send-rate controller with token accounting."""

    def __init__(self, env: Clock, initial_rate: float) -> None:
        if initial_rate <= 0:
            raise ValueError("initial_rate must be positive")
        self.env = env
        self.rate = float(initial_rate)
        self.min_rate = min(MIN_RATE, self.rate)
        self.rate_max = float(initial_rate)
        self._k = self._plateau_offset()
        self._epoch_start = env.now
        self._last_reaction = -float("inf")
        self._tokens = BURST
        self._last_refill = env.now
        self.congestion_events = 0

    # -- rate adaptation -----------------------------------------------------
    def on_congestion(self) -> None:
        """Multiplicative decrease; remember the plateau.

        Reacts at most once per ``REACTION_INTERVAL`` -- CUBIC cuts once per
        congestion *epoch*, not once per ack, and without this guard the
        noisy windowed-rate comparison collapses the rate to the floor.
        """
        if self.env.now - self._last_reaction < REACTION_INTERVAL:
            return
        self._last_reaction = self.env.now
        self.rate_max = self.rate
        self._k = self._plateau_offset()
        self.rate = max(self.min_rate, self.rate * (1.0 - DEFAULT_BETA))
        self._epoch_start = self.env.now
        self.congestion_events += 1

    def _plateau_offset(self) -> float:
        """CUBIC's ``K``: when the curve regains the plateau ``R_max``."""
        return ((self.rate_max * DEFAULT_BETA) / DEFAULT_GAMMA) ** (1.0 / 3.0)

    def on_ack(self) -> None:
        """Cubic growth toward (and past) the previous plateau."""
        t = self.env.now - self._epoch_start
        target = DEFAULT_GAMMA * (t - self._k) ** 3 + self.rate_max
        self.rate = min(MAX_RATE, max(self.min_rate, target))

    # -- token bucket ------------------------------------------------------------
    def _refill(self) -> None:
        now = self.env.now
        self._tokens = min(
            BURST, self._tokens + (now - self._last_refill) * self.rate
        )
        self._last_refill = now

    def try_acquire(self) -> bool:
        """Take one send token if available.

        A small tolerance absorbs floating-point residue so a token that
        is 1e-12 short of maturity still counts (otherwise pacers can spin
        on sub-representable waits).
        """
        self._refill()
        if self._tokens >= 1.0 - 1e-9:
            self._tokens = max(0.0, self._tokens - 1.0)
            return True
        return False

    def time_until_token(self) -> float:
        """Seconds until the next token matures (0 if one is ready)."""
        self._refill()
        if self._tokens >= 1.0 - 1e-9:
            return 0.0
        return (1.0 - self._tokens) / self.rate


class C3State:
    """Per-server statistics a C3 client maintains."""

    __slots__ = (
        "response_time",
        "service_time",
        "queue_size",
        "outstanding",
        "send_rate",
        "recv_rate",
        "limiter",
    )

    def __init__(self, env: Clock, initial_rate: float) -> None:
        self.response_time = EwmaEstimator(DEFAULT_SMOOTHING)
        self.service_time = EwmaEstimator(DEFAULT_SMOOTHING)
        self.queue_size = EwmaEstimator(DEFAULT_SMOOTHING)
        self.outstanding = 0
        self.send_rate = WindowedRate(RATE_WINDOW)
        self.recv_rate = WindowedRate(RATE_WINDOW)
        self.limiter = CubicRateLimiter(env, initial_rate=initial_rate)


class C3Selector(ReplicaSelector):
    """C3 replica ranking + cubic rate control, one instance per client.

    Also exposes the rate-limit gate (:meth:`try_acquire` /
    :meth:`time_until_slot`) used by the oblivious dispatch strategy:
    C3 paces dispatches per server.
    """

    name = "c3"

    def __init__(
        self,
        env: Clock,
        concurrency_weight: float,
        stream: Stream,
        initial_rate: float,
        rate_control: bool = True,
    ) -> None:
        if concurrency_weight < 1:
            raise ValueError("concurrency_weight must be >= 1")
        if initial_rate <= 0:
            raise ValueError("initial_rate must be positive")
        self.env = env
        self.concurrency_weight = float(concurrency_weight)
        self.stream = stream
        self.rate_control = rate_control
        self.initial_rate = initial_rate
        self._states: _t.Dict[int, C3State] = {}

    def state_of(self, server_id: int) -> C3State:
        state = self._states.get(server_id)
        if state is None:
            state = C3State(self.env, self.initial_rate)
            self._states[server_id] = state
        return state

    # -- scoring ------------------------------------------------------------
    def score(self, server_id: int) -> float:
        """The C3 ranking function psi_s (smaller is better)."""
        s = self.state_of(server_id)
        mu_inv = s.service_time.value
        if mu_inv <= 0:
            # No feedback yet: treat the server as unknown-but-promising so
            # every replica gets explored early on.
            return -math.inf
        q_hat = 1.0 + s.outstanding * self.concurrency_weight + s.queue_size.value
        return s.response_time.value - mu_inv + (q_hat**3) * mu_inv

    def choose(self, replicas: _t.Sequence[int], request: RequestMessage) -> int:
        best: _t.List[int] = []
        best_score = math.inf
        states = self._states
        weight = self.concurrency_weight
        for server in replicas:
            # :meth:`score`, inlined: it runs for every replica of every op.
            s = states.get(server)
            if s is None:
                s = self.state_of(server)
            mu_inv = s.service_time.value
            if mu_inv <= 0:
                score = -math.inf
            else:
                q_hat = 1.0 + s.outstanding * weight + s.queue_size.value
                score = s.response_time.value - mu_inv + (q_hat**3) * mu_inv
            if score < best_score:
                best_score = score
                best = [server]
            elif score == best_score:
                best.append(server)
        if len(best) > 1:
            return best[self.stream.randrange(len(best))]
        return best[0]

    # -- feedback -----------------------------------------------------------
    def on_assign(self, request: RequestMessage) -> None:
        state = self.state_of(request.server_id)
        state.outstanding += 1

    def on_dispatch(self, request: RequestMessage) -> None:
        self.state_of(request.server_id).send_rate.record(self.env.now)

    def on_response(self, response: ResponseMessage) -> None:
        request = response.request
        feedback = response.feedback
        state = self.state_of(request.server_id)
        if state.outstanding <= 0:
            raise RuntimeError(
                f"C3 outstanding underflow for server {request.server_id}"
            )
        state.outstanding -= 1
        now = self.env.now
        state.recv_rate.record(now)
        # The two EWMAs are only ever updated here, together: one weight.
        alpha = state.response_time.weight(now)
        state.response_time.fold(now, now - request.dispatched_at, alpha)
        state.queue_size.fold(
            now, feedback.queue_length + feedback.in_service, alpha
        )
        if feedback.ewma_service_time > 0:
            state.service_time.update(now, feedback.ewma_service_time)
        if self.rate_control:
            send_rate, recv_rate = state.send_rate, state.recv_rate
            send_samples = send_rate.count(now)
            recv_samples = recv_rate.count(now)
            # Both windows must be populated before the comparison means
            # anything: while responses are still in flight (ramp-up) the
            # receive rate trivially lags the send rate and reacting to
            # that would collapse the rate before the system ever settles.
            if (
                send_samples >= MIN_WINDOW_SAMPLES
                and recv_samples >= MIN_WINDOW_SAMPLES
                and send_rate.rate_of(send_samples, now)
                > recv_rate.rate_of(recv_samples, now) * CONGESTION_RATIO
            ):
                state.limiter.on_congestion()
            else:
                state.limiter.on_ack()

    # -- pacing gate -----------------------------------------------------------
    def try_acquire(self, server_id: int) -> bool:
        """Non-blocking send-slot acquisition for ``server_id``."""
        if not self.rate_control:
            return True
        return self.state_of(server_id).limiter.try_acquire()

    def time_until_slot(self, server_id: int) -> float:
        if not self.rate_control:
            return 0.0
        return self.state_of(server_id).limiter.time_until_token()
