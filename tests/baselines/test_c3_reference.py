"""Differential test: :class:`C3Strategy` against the C3 client it replaced.

The oracle below is that client as it ran before C3 kept one record per
server: ``C3Selector`` over ``C3State`` -- three ``EwmaEstimator``s, two
``WindowedRate``s and a ``CubicRateLimiter`` -- behind the pacing
backlog and pacer that ``ObliviousStrategy`` held for it, copied with
their arithmetic, their order of operations and their FIFO overtake (a
request dispatched while others wait in its server's backlog still
tries the gate, and takes a token that matured before the pacer's turn).

Random interleavings of prepare, dispatch, response and time steps drive
both over one placement with the same tie-break seed, rate control on
and off.  After every step the picks, sends, scores, EWMAs, rates,
tokens, cuts and backlog order must be equal with ``==``: the rewrite
promises the same floating-point expressions in the same order, so
there is no tolerance to hide behind.
"""

from __future__ import annotations

import math
from collections import deque
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import C3Strategy, c3
from repro.cluster import ResponseMessage, RingPlacement, ServerFeedback
from repro.cluster.messages import RequestMessage
from repro.core.cost import CostModel
from repro.metrics.timeseries import EPSILON_ELAPSED
from repro.sim import Environment, Stream
from repro.workload import ServiceTimeModel
from repro.workload.tasks import Operation, Task

# -- the oracle ------------------------------------------------------------------


class WindowedRate:
    def __init__(self, window):
        self.window = window
        self._times = deque()
        self._first_time = None
        self._last_time = -math.inf

    def record(self, time):
        if time < self._last_time:
            raise ValueError("time went backwards")
        if self._first_time is None:
            self._first_time = time
        self._last_time = time
        self._times.append(time)
        if len(self._times) >= 4096:
            self._evict(time)

    def _evict(self, now):
        cutoff = now - self.window
        times = self._times
        while times and times[0] < cutoff:
            times.popleft()

    def rate_of(self, count, now):
        if self._first_time is None:
            return 0.0
        elapsed = max(now - self._first_time, EPSILON_ELAPSED)
        return count / min(self.window, elapsed)

    def count(self, now):
        if now < self._last_time:
            raise ValueError("stale query")
        self._evict(now)
        return len(self._times)


class EwmaEstimator:
    def __init__(self, time_constant, initial=0.0):
        self.time_constant = time_constant
        self.value = float(initial)
        self._last_time = None

    def update(self, time, sample):
        if self._last_time is None:
            self.value = float(sample)
        else:
            dt = time - self._last_time
            if dt < 0:
                raise ValueError("time went backwards")
            alpha = 1.0 - math.exp(-dt / self.time_constant)
            self.value += alpha * (sample - self.value)
        self._last_time = time
        return self.value

    def weight(self, time):
        if self._last_time is None:
            return None
        dt = time - self._last_time
        if dt < 0:
            raise ValueError("time went backwards")
        return 1.0 - math.exp(-dt / self.time_constant)

    def fold(self, time, sample, alpha):
        if alpha is None:
            self.value = float(sample)
        else:
            self.value += alpha * (sample - self.value)
        self._last_time = time
        return self.value


class CubicRateLimiter:
    def __init__(self, env, initial_rate):
        self.env = env
        self.rate = float(initial_rate)
        self.min_rate = min(c3.MIN_RATE, self.rate)
        self.rate_max = float(initial_rate)
        self._k = self._plateau_offset()
        self._epoch_start = env.now
        self._last_reaction = -float("inf")
        self._tokens = c3.BURST
        self._last_refill = env.now
        self.congestion_events = 0

    def on_congestion(self):
        if self.env.now - self._last_reaction < c3.REACTION_INTERVAL:
            return
        self._last_reaction = self.env.now
        self.rate_max = self.rate
        self._k = self._plateau_offset()
        self.rate = max(self.min_rate, self.rate * (1.0 - c3.DEFAULT_BETA))
        self._epoch_start = self.env.now
        self.congestion_events += 1

    def _plateau_offset(self):
        return ((self.rate_max * c3.DEFAULT_BETA) / c3.DEFAULT_GAMMA) ** (1.0 / 3.0)

    def on_ack(self):
        t = self.env.now - self._epoch_start
        target = c3.DEFAULT_GAMMA * (t - self._k) ** 3 + self.rate_max
        self.rate = min(c3.MAX_RATE, max(self.min_rate, target))

    def _refill(self):
        now = self.env.now
        self._tokens = min(c3.BURST, self._tokens + (now - self._last_refill) * self.rate)
        self._last_refill = now

    def try_acquire(self):
        self._refill()
        if self._tokens >= 1.0 - 1e-9:
            self._tokens = max(0.0, self._tokens - 1.0)
            return True
        return False

    def time_until_token(self):
        self._refill()
        if self._tokens >= 1.0 - 1e-9:
            return 0.0
        return (1.0 - self._tokens) / self.rate


class C3State:
    def __init__(self, env, initial_rate):
        self.response_time = EwmaEstimator(c3.DEFAULT_SMOOTHING)
        self.service_time = EwmaEstimator(c3.DEFAULT_SMOOTHING)
        self.queue_size = EwmaEstimator(c3.DEFAULT_SMOOTHING)
        self.outstanding = 0
        self.send_rate = WindowedRate(c3.RATE_WINDOW)
        self.recv_rate = WindowedRate(c3.RATE_WINDOW)
        self.limiter = CubicRateLimiter(env, initial_rate)


class C3Selector:
    def __init__(self, env, concurrency_weight, stream, initial_rate, rate_control):
        self.env = env
        self.concurrency_weight = float(concurrency_weight)
        self.stream = stream
        self.rate_control = rate_control
        self.initial_rate = initial_rate
        self._states = {}

    def state_of(self, server_id):
        state = self._states.get(server_id)
        if state is None:
            state = C3State(self.env, self.initial_rate)
            self._states[server_id] = state
        return state

    def score(self, server_id):
        s = self.state_of(server_id)
        mu_inv = s.service_time.value
        if mu_inv <= 0:
            return -math.inf
        q_hat = 1.0 + s.outstanding * self.concurrency_weight + s.queue_size.value
        return s.response_time.value - mu_inv + (q_hat**3) * mu_inv

    def choose(self, replicas, request):
        best = []
        best_score = math.inf
        for server in replicas:
            score = self.score(server)
            if score < best_score:
                best_score = score
                best = [server]
            elif score == best_score:
                best.append(server)
        if len(best) > 1:
            return best[self.stream.randrange(len(best))]
        return best[0]

    def on_assign(self, request):
        self.state_of(request.server_id).outstanding += 1

    def on_dispatch(self, request):
        self.state_of(request.server_id).send_rate.record(self.env.now)

    def on_response(self, response):
        request = response.request
        feedback = response.feedback
        state = self.state_of(request.server_id)
        if state.outstanding <= 0:
            raise RuntimeError("C3 outstanding underflow")
        state.outstanding -= 1
        now = self.env.now
        state.recv_rate.record(now)
        alpha = state.response_time.weight(now)
        state.response_time.fold(now, now - request.dispatched_at, alpha)
        state.queue_size.fold(now, feedback.queue_length + feedback.in_service, alpha)
        if feedback.ewma_service_time > 0:
            state.service_time.update(now, feedback.ewma_service_time)
        if self.rate_control:
            send_rate, recv_rate = state.send_rate, state.recv_rate
            send_samples = send_rate.count(now)
            recv_samples = recv_rate.count(now)
            if (
                send_samples >= c3.MIN_WINDOW_SAMPLES
                and recv_samples >= c3.MIN_WINDOW_SAMPLES
                and send_rate.rate_of(send_samples, now)
                > recv_rate.rate_of(recv_samples, now) * c3.CONGESTION_RATIO
            ):
                state.limiter.on_congestion()
            else:
                state.limiter.on_ack()

    def try_acquire(self, server_id):
        if not self.rate_control:
            return True
        return self.state_of(server_id).limiter.try_acquire()

    def time_until_slot(self, server_id):
        if not self.rate_control:
            return 0.0
        return self.state_of(server_id).limiter.time_until_token()


class ObliviousC3:
    """``ObliviousStrategy`` as it drove a ``C3Selector``: pacing included."""

    def __init__(self, placement, selector, service_model):
        self.placement = placement
        self.selector = selector
        self.cost_model = CostModel(service_model)
        self._paced_backlog = {}
        self._pacer_active = set()
        self.paced_requests = 0

    def bind(self, client):
        self.client = client

    def prepare(self, task):
        now = self.client.env.now
        requests = []
        for op in task.operations:
            partition = self.placement.partition_of(op.key)
            request = RequestMessage(
                op, task.task_id, self.client.client_id, partition, now,
                self.cost_model.op_cost(op),
            )
            replicas = self.placement.replicas_of(partition)
            request.server_id = self.selector.choose(replicas, request)
            self.selector.on_assign(request)
            requests.append(request)
        return requests

    def dispatch(self, requests):
        for request in requests:
            if self.selector.try_acquire(request.server_id):
                self._send(request)
            else:
                server_id = request.server_id
                self.paced_requests += 1
                self._paced_backlog.setdefault(server_id, deque()).append(request)
                self._ensure_pacer(server_id)

    def _send(self, request):
        request.dispatched_at = self.client.env.now
        self.selector.on_dispatch(request)
        self.client.network.send(self.client.address, None, request)

    def _ensure_pacer(self, server_id):
        if server_id not in self._pacer_active:
            self._pacer_active.add(server_id)
            self._pace(server_id)

    def _pace(self, server_id):
        backlog = self._paced_backlog[server_id]
        while backlog:
            if not self.selector.try_acquire(server_id):
                self.client.env.call_later(
                    max(1e-6, self.selector.time_until_slot(server_id)),
                    self._pace,
                    server_id,
                )
                return
            self._send(backlog.popleft())
        self._pacer_active.discard(server_id)

    def on_response(self, response):
        self.selector.on_response(response)


# -- the drive ---------------------------------------------------------------------

SERVICE_MODEL = ServiceTimeModel(overhead=1e-4, bandwidth=1e6)


class Side:
    """One client (oracle or rewrite) on its own clock, sends captured."""

    def __init__(self, env, strategy):
        self.env = env
        self.strategy = strategy
        self.prepared = deque()
        self.in_flight = []
        network = SimpleNamespace(send=lambda src, dst, r: self.in_flight.append(r))
        strategy.bind(
            SimpleNamespace(env=self.env, client_id=0, address="c0", network=network)
        )


def make_sides(n_servers, rate_control, initial_rate):
    placement = RingPlacement(n_servers=n_servers, replication_factor=3)
    weight = 5
    old_env = Environment()
    oracle = ObliviousC3(
        placement,
        C3Selector(old_env, weight, Stream(5), initial_rate, rate_control),
        SERVICE_MODEL,
    )
    new = C3Strategy(
        placement,
        SERVICE_MODEL,
        concurrency_weight=weight,
        stream=Stream(5),
        initial_rate=initial_rate,
        rate_control=rate_control,
    )
    return Side(old_env, oracle), Side(Environment(), new)


def sent(requests):
    return [(r.op.op_id, r.server_id, r.dispatched_at) for r in requests]


def assert_same(old, new):
    assert old.env.now == new.env.now
    assert sent(old.in_flight) == sent(new.in_flight)
    selector, strategy = old.strategy.selector, new.strategy
    assert sorted(selector._states) == sorted(strategy.records)
    assert old.strategy.paced_requests == strategy.paced_requests
    for server, state in selector._states.items():
        record = strategy.records[server]
        assert selector.score(server) == strategy.score(server)
        assert state.outstanding == record.outstanding
        assert state.response_time.value == record.response_time
        assert state.queue_size.value == record.queue_size
        assert state.service_time.value == record.service_time
        limiter = state.limiter
        assert limiter.rate == record.rate
        assert limiter.rate_max == record.rate_max
        assert limiter._tokens == record.tokens
        assert limiter.congestion_events == record.cuts
        backlog = old.strategy._paced_backlog.get(server, ())
        assert [r.op.op_id for r in backlog] == [r.op.op_id for r in record.backlog]


TASK = st.lists(st.integers(0, 500), min_size=1, max_size=8)
RESPOND = st.tuples(
    st.just("respond"),
    st.integers(0, 10_000),
    st.integers(0, 40),
    st.integers(0, 4),
    st.sampled_from([0.0, 1e-4, 5e-4, 2e-3]),
)
ADVANCE = st.tuples(
    st.just("advance"), st.sampled_from([1e-5, 1e-4, 5e-4, 2e-3, 0.01, 0.05, 0.25])
)
#: Weighted the way a client runs: mostly submits (prepare, then dispatch
#: at once, as ``Client.submit`` does) and responses.
STEP = st.one_of(
    *[st.tuples(st.just("submit"), TASK)] * 3,
    st.tuples(st.just("prepare"), TASK),
    st.tuples(st.just("dispatch")),
    *[RESPOND] * 3,
    *[ADVANCE] * 2,
)


@settings(max_examples=200, deadline=None)
@given(
    n_servers=st.sampled_from([3, 4]),
    rate_control=st.booleans(),
    initial_rate=st.sampled_from([40.0, 300.0, 3000.0]),
    # The paper's constants, and a shallow bucket, few samples and a short
    # window that bring the backlog, the pacer, the cuts and full windows
    # into short drives.
    burst=st.sampled_from([c3.BURST, 2.0, 1.0]),
    min_samples=st.sampled_from([c3.MIN_WINDOW_SAMPLES, 2]),
    rate_window=st.sampled_from([c3.RATE_WINDOW, 0.02]),
    steps=st.lists(STEP, min_size=30, max_size=300),
)
def test_c3_strategy_matches_the_per_object_client(
    n_servers, rate_control, initial_rate, burst, min_samples, rate_window, steps
):
    saved = c3.BURST, c3.MIN_WINDOW_SAMPLES, c3.RATE_WINDOW
    c3.BURST, c3.MIN_WINDOW_SAMPLES, c3.RATE_WINDOW = burst, min_samples, rate_window
    try:
        drive(n_servers, rate_control, initial_rate, steps)
    finally:
        c3.BURST, c3.MIN_WINDOW_SAMPLES, c3.RATE_WINDOW = saved


def drive(n_servers, rate_control, initial_rate, steps):
    old, new = make_sides(n_servers, rate_control, initial_rate)
    sides = (old, new)
    op_ids = iter(range(1_000_000))
    for task_id, step in enumerate(steps):
        kind = step[0]
        if kind in ("submit", "prepare"):
            ops = tuple(
                Operation(op_id=next(op_ids), task_id=task_id, key=key, value_size=100)
                for key in step[1]
            )
            task = Task(
                task_id=task_id, arrival_time=old.env.now, client_id=0, operations=ops
            )
            picks = []
            for side in sides:
                requests = side.strategy.prepare(task)
                picks.append([r.server_id for r in requests])
                if kind == "submit":
                    side.strategy.dispatch(requests)
                else:
                    side.prepared.append(requests)
            assert picks[0] == picks[1]
        elif kind == "dispatch":
            for side in sides:
                if side.prepared:
                    side.strategy.dispatch(side.prepared.popleft())
        elif kind == "respond":
            _, index, queued, in_service, service_time = step
            for side in sides:
                if side.in_flight:
                    request = side.in_flight.pop(index % len(side.in_flight))
                    feedback = ServerFeedback(
                        request.server_id, queued, in_service, service_time
                    )
                    side.strategy.on_response(ResponseMessage(request, feedback))
        else:
            until = old.env.now + step[1]
            for side in sides:
                side.env.run(until=until)
        assert_same(old, new)
