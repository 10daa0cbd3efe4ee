"""Unit tests for the client: intake, accounting, completion detection."""

import pytest

from repro.baselines import (
    HedgedStrategy,
    ObliviousStrategy,
    RoundRobinSelector,
    hedging,
)
from repro.cluster import (
    BackendServer,
    Client,
    Network,
    RingPlacement,
)
from repro.cluster.messages import RequestMessage
from repro.cluster.network import ConstantLatency
from repro.sim import Environment, Stream, StreamFactory
from repro.workload import ServiceTimeModel
from repro.workload.tasks import Operation, Task


def make_task(task_id, keys, arrival=0.0, client=0, size=1):
    ops = tuple(
        Operation(op_id=task_id * 100 + i, task_id=task_id, key=k, value_size=size)
        for i, k in enumerate(keys)
    )
    return Task(task_id=task_id, arrival_time=arrival, client_id=client, operations=ops)


class Rig:
    def __init__(self, n_servers=3, cores=1, latency=0.0):
        self.env = Environment()
        self.network = Network(
            self.env, latency=ConstantLatency(latency), stream=Stream(0, "n")
        )
        self.placement = RingPlacement(n_servers=n_servers, replication_factor=1)
        self.model = ServiceTimeModel(overhead=0.0, bandwidth=1.0)
        self.servers = [
            BackendServer(
                self.env,
                server_id=s,
                cores=cores,
                service_model=self.model,
                network=self.network,
            )
            for s in range(n_servers)
        ]
        self.requests = []
        self.completions = []
        self.client = Client(
            self.env,
            client_id=0,
            network=self.network,
            strategy=ObliviousStrategy(self.placement, RoundRobinSelector(), self.model),
            on_complete=self.completions.append,
            request_observer=self.requests.append,
        )


class TestClient:
    def test_task_completes_when_all_responses_arrive(self):
        rig = Rig()
        rig.client.submit(make_task(0, keys=[0, 1, 2]))
        rig.env.run()
        assert rig.client.tasks_completed == 1
        assert rig.client.pending_tasks == 0
        assert len(rig.completions) == 1

    def test_task_latency_is_last_response(self):
        rig = Rig(n_servers=1)
        # Three ops serialize on one single-core server: 3 seconds total.
        rig.client.submit(make_task(0, keys=[0, 1, 2], size=1))
        rig.env.run()
        assert rig.completions[0].latency == pytest.approx(3.0)

    def test_requests_observed_per_op_with_full_trail(self):
        rig = Rig()
        rig.client.submit(make_task(0, keys=[0, 1, 2]))
        rig.env.run()
        assert len(rig.requests) == 3
        for request in rig.requests:
            assert (
                0.0
                <= request.created_at
                <= request.enqueued_at
                <= request.service_start_at
                <= request.completed_at
            )

    def test_duplicate_submit_rejected(self):
        rig = Rig()
        rig.client.submit(make_task(0, keys=[0]))
        with pytest.raises(ValueError):
            rig.client.submit(make_task(0, keys=[1]))

    def test_network_latency_included_in_task_latency(self):
        rig = Rig(n_servers=1, latency=0.5)
        rig.client.submit(make_task(0, keys=[0], size=2))
        rig.env.run()
        # 0.5 out + 2.0 service + 0.5 back.
        assert rig.completions[0].latency == pytest.approx(3.0)

    def test_counters(self):
        rig = Rig()
        for i in range(3):
            rig.client.submit(make_task(i, keys=[i]))
        rig.env.run()
        assert rig.client.tasks_submitted == 3
        assert rig.client.tasks_completed == 3

    def test_unexpected_control_message_raises(self):
        rig = Rig()
        rig.network.send("x", ("client", 0), object())
        with pytest.raises(TypeError):
            rig.env.run()


class TestSubmitContract:
    """What ``submit`` guarantees about the requests a strategy prepares."""

    def test_requests_leave_submit_stamped_with_now(self):
        rig = Rig(latency=0.25)
        rig.env.run(until=2.5)
        rig.client.submit(make_task(0, keys=[0, 1, 2], arrival=2.5))
        rig.env.run()
        assert [r.created_at for r in rig.requests] == [2.5, 2.5, 2.5]
        assert all(r.dispatched_at == 2.5 for r in rig.requests)

    def test_fanout_mismatch_rejected(self):
        rig = Rig()
        prepare = rig.client.strategy.prepare
        rig.client.strategy.prepare = lambda task: prepare(task)[:-1]
        with pytest.raises(RuntimeError, match="fan-out-3"):
            rig.client.submit(make_task(0, keys=[0, 1, 2]))
        assert rig.client.pending_tasks == 0

    def test_unstamped_requests_rejected(self):
        rig = Rig()
        rig.client.strategy.prepare = lambda task: [
            RequestMessage(op=op, task_id=task.task_id, client_id=0, partition=0)
            for op in task.operations
        ]
        with pytest.raises(RuntimeError, match="created_at"):
            rig.client.submit(make_task(0, keys=[0]))

    def test_vetoed_straggler_does_not_count_twice(self, monkeypatch):
        """Hedging's ``accepts_response`` veto, resolved once at bind time:
        the losing copy of a hedged op reaches neither the observer nor the
        per-task count."""
        monkeypatch.setattr(hedging, "HEDGE_DELAY", 0.5)
        monkeypatch.setattr(hedging, "HEDGE_BUDGET", 1.0)
        rig = Rig(n_servers=2, latency=1e-3)
        rig.placement = RingPlacement(n_servers=2, replication_factor=2)
        strategy = HedgedStrategy(rig.placement, RoundRobinSelector(), rig.model)
        client = Client(
            rig.env,
            client_id=1,
            network=rig.network,
            strategy=strategy,
            on_complete=rig.completions.append,
            request_observer=rig.requests.append,
        )
        # One 2-second op on a 1 byte/s server: the hedge (at 0.5 s, to the
        # other replica) and the primary both come back.
        client.submit(make_task(7, keys=[0], client=1, size=2))
        rig.env.run()
        assert strategy.hedges_sent == 1
        assert strategy.wasted_responses == 1
        assert len(rig.requests) == 1
        assert client.tasks_completed == 1
        assert len(rig.completions) == 1
