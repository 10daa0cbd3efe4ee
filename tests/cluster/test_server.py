"""Unit tests for backend servers (queue and pull modes)."""

import pytest

from repro.cluster import (
    BackendServer,
    CONTROLLER_ADDRESS,
    Network,
    PullServer,
    RequestMessage,
    ResponseMessage,
    client_address,
    server_address,
)
from repro.cluster.messages import CongestionSignal
from repro.cluster.network import ConstantLatency
from repro.core.model_queue import GlobalQueue
from repro.sim import Environment, Stream, StreamFactory
from repro.workload import ServiceTimeModel
from repro.workload.tasks import Operation


def unit_service_model():
    """1 byte == 1 second, no overhead, deterministic."""
    return ServiceTimeModel(overhead=0.0, bandwidth=1.0)


def make_request(op_id=0, task_id=0, key=0, size=1, client=0, partition=0, priority=(0.0,)):
    return RequestMessage(
        op=Operation(op_id=op_id, task_id=task_id, key=key, value_size=size),
        task_id=task_id,
        client_id=client,
        partition=partition,
        priority=priority,
    )


class Harness:
    """One server, one fake client inbox."""

    def __init__(
        self,
        cores=1,
        congestion_interval=None,
        latency=0.0,
        service_model=None,
    ):
        self.env = Environment()
        self.network = Network(
            self.env, latency=ConstantLatency(latency), stream=Stream(0, "n")
        )
        self.responses = []
        self.network.register(client_address(0), self.responses.append)
        self.controller_inbox = []
        self.network.register(CONTROLLER_ADDRESS, self.controller_inbox.append)
        self.server = BackendServer(
            self.env,
            server_id=0,
            cores=cores,
            service_model=service_model or unit_service_model(),
            network=self.network,
            congestion_interval=congestion_interval,
        )

    def push(self, request):
        self.network.send(client_address(0), server_address(0), request)


class TestBackendServer:
    def test_serves_and_responds(self):
        h = Harness()
        h.push(make_request(size=2))
        h.env.run()
        assert len(h.responses) == 1
        resp = h.responses[0]
        assert isinstance(resp, ResponseMessage)
        assert resp.request.completed_at == pytest.approx(2.0)
        assert resp.request.service_time == pytest.approx(2.0)
        assert h.server.completed == 1

    def test_fifo_default_order(self):
        h = Harness()
        for i in range(3):
            h.push(make_request(op_id=i, task_id=i, size=1))
        h.env.run()
        assert [r.request.op.op_id for r in h.responses] == [0, 1, 2]

    def test_priority_discipline_orders_queue(self):
        h = Harness()
        # First request occupies the core; the next two queue and must be
        # served by priority, not arrival.
        h.push(make_request(op_id=0, size=5, priority=(0.0, 0.0)))
        h.push(make_request(op_id=1, size=1, priority=(9.0, 0.0)))
        h.push(make_request(op_id=2, size=1, priority=(1.0, 0.0)))
        h.env.run()
        assert [r.request.op.op_id for r in h.responses] == [0, 2, 1]

    def test_sjf_discipline_prefers_short(self):
        # SJF reaches a server as the sjf assigner's priority tuple
        # (own cost, task arrival, op id); the server serves it as is.
        h = Harness()
        h.push(make_request(op_id=0, size=5, priority=(5.0, 0.0, 0.0)))
        h.push(make_request(op_id=1, size=3, priority=(3.0, 0.0, 1.0)))
        h.push(make_request(op_id=2, size=1, priority=(1.0, 0.0, 2.0)))
        h.env.run()
        # All three land in the same instant, so the whole batch is
        # SJF-ordered: smallest forecast first.
        assert [r.request.op.op_id for r in h.responses] == [2, 1, 0]

    def test_multicore_parallelism(self):
        h = Harness(cores=4)
        for i in range(4):
            h.push(make_request(op_id=i, size=3))
        h.env.run()
        assert h.env.now == pytest.approx(3.0)  # all four in parallel

    def test_feedback_piggybacked(self):
        h = Harness()
        for i in range(3):
            h.push(make_request(op_id=i, size=1))
        h.env.run()
        first = h.responses[0]
        assert first.feedback.server_id == 0
        assert first.feedback.queue_length == 2  # two still waiting
        assert first.feedback.ewma_service_time > 0

    def test_utilization_accounting(self):
        h = Harness(cores=2)
        h.push(make_request(op_id=0, size=4))
        h.env.run()
        assert h.server.utilization == pytest.approx(0.5)  # 1 of 2 cores busy

    def test_rejects_unknown_message(self):
        h = Harness()
        h.network.send(client_address(0), server_address(0), "garbage")
        with pytest.raises(TypeError):
            h.env.run()

    def test_congestion_signal_on_overload(self):
        h = Harness(cores=1, congestion_interval=0.5)
        # Offered load far above 1 req/s capacity (size=1 => 1s service).
        for i in range(20):
            h.push(make_request(op_id=i, size=1))
        h.env.run(until=2.0)
        assert h.server.congestion_signals_sent > 0
        assert any(isinstance(m, CongestionSignal) for m in h.controller_inbox)

    def test_no_congestion_when_idle(self):
        h = Harness(cores=1, congestion_interval=0.5)
        h.push(make_request(size=1))
        h.env.run(until=5.0)
        assert h.server.congestion_signals_sent == 0

    def test_queue_wait_accounting(self):
        h = Harness()
        h.push(make_request(op_id=0, size=2))
        h.push(make_request(op_id=1, size=1))
        h.env.run()
        second = next(r.request for r in h.responses if r.request.op.op_id == 1)
        assert second.queue_wait == pytest.approx(2.0)


class TestAdmitEngine:
    """The callback engine: end-of-instant admit, start and complete timers."""

    def test_same_instant_batch_is_served_in_discipline_order(self):
        h = Harness()
        priorities = [5.0, 1.0, 4.0, 2.0, 3.0]
        for op_id, priority in enumerate(priorities):
            h.push(make_request(op_id=op_id, priority=(priority, 0.0)))
        for _ in priorities:
            h.env.step()  # the arrivals; the server was idle throughout
        assert h.server.in_service == 0 and h.server.queue_length() == 5
        # One admit for the whole instant, after every arrival: the next
        # step stays at this instant and starts the smallest key only.
        now = h.env.now
        assert h.env.peek() == now
        h.env.step()
        assert h.env.now == now
        assert h.server.in_service == 1 and h.server.queue_length() == 4
        assert h.env.peek() > now
        h.env.run()
        assert [r.request.op.op_id for r in h.responses] == [1, 3, 4, 2, 0]

    def test_admit_is_rearmed_only_while_work_is_queued(self):
        h = Harness()
        h.push(make_request(op_id=0))
        h.push(make_request(op_id=1))
        admits = []
        admit = h.server._admit
        h.server._admit = lambda: (admits.append(h.env.now), admit())
        h.env.run()
        # One admit at the arrival instant, one when the first completion
        # frees the core; the completion that leaves the queue empty arms
        # nothing.  The calendar fired 2 arrivals + 2 completions + 2
        # response deliveries: the admits are not calendar entries.
        assert admits == [0.0, 1.0]
        assert h.env.events_processed == 6

    def test_requests_start_in_pop_order_and_take_their_forecast(self):
        model = ServiceTimeModel(overhead=1e-4, bandwidth=1.0)
        h = Harness(cores=2, service_model=model)
        sizes = {0: 7, 1: 3, 2: 5, 3: 2}
        priorities = {0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0}
        for op_id in sizes:
            h.push(
                make_request(
                    op_id=op_id, size=sizes[op_id], priority=(priorities[op_id],)
                )
            )
        h.env.run()
        by_op = {r.request.op.op_id: r.request for r in h.responses}
        # Pop order is priority order, whichever core frees up first.
        starts = [
            by_op[op_id].service_start_at
            for op_id in sorted(sizes, key=priorities.get)
        ]
        assert starts == sorted(starts)
        for op_id, size in sizes.items():
            assert by_op[op_id].service_time == pytest.approx(
                model.expected_time(size), rel=1e-12
            )

    def test_crash_window_keeps_work_queued_and_resumes_by_priority(self):
        h = Harness(cores=2)
        h.server.pause()
        for op_id, priority in enumerate([3.0, 1.0, 2.0]):
            h.push(make_request(op_id=op_id, priority=(priority,)))
        h.env.run()
        # Queued, visible to the feedback triple, and nothing started.
        assert h.server.feedback()[:2] == (3, 0)
        assert h.responses == []
        h.server.pause()  # a second, overlapping window
        h.server.resume()
        h.env.run()
        assert h.server.queue_length() == 3 and h.responses == []
        h.server.resume()
        h.env.run()
        starts = {r.request.op.op_id: r.request.service_start_at for r in h.responses}
        # Two cores: the two most urgent start at once, the third queues.
        assert starts[1] == starts[2] == 0.0 and starts[0] == pytest.approx(1.0)

    def test_requests_in_service_finish_across_a_crash(self):
        h = Harness()
        h.push(make_request(op_id=0, size=2))
        h.push(make_request(op_id=1, size=1))
        h.env.run(until=1.0)
        h.server.pause()
        h.env.run(until=5.0)
        assert [r.request.op.op_id for r in h.responses] == [0]
        assert h.server.queue_length() == 1 and h.server.in_service == 0
        h.server.resume()
        h.env.run()
        assert h.responses[1].request.service_start_at == pytest.approx(5.0)


class TestPullServer:
    def make(self, partitions=(0,), cores=1):
        env = Environment()
        network = Network(env, latency=ConstantLatency(0.0), stream=Stream(0, "n"))
        responses = []
        network.register(client_address(0), responses.append)
        gq = GlobalQueue(env, latency=ConstantLatency(0.0), stream=Stream(1, "gq"))
        server = PullServer(
            env,
            server_id=0,
            cores=cores,
            service_model=unit_service_model(),
            network=network,
            global_queue=gq,
            partitions=partitions,
        )
        return env, gq, server, responses

    def test_pulls_only_own_partitions(self):
        env, gq, server, responses = self.make(partitions=(0,))
        gq.submit(make_request(op_id=0, partition=1))  # foreign partition
        gq.submit(make_request(op_id=1, partition=0))
        env.run(until=5.0)
        assert [r.request.op.op_id for r in responses] == [1]
        assert len(gq) == 1  # foreign request still queued

    def test_pulls_in_priority_order(self):
        env, gq, server, responses = self.make(partitions=(0,), cores=1)
        gq.submit(make_request(op_id=0, partition=0, priority=(5.0,)))
        gq.submit(make_request(op_id=1, partition=0, priority=(1.0,)))
        gq.submit(make_request(op_id=2, partition=0, priority=(3.0,)))
        env.run()
        assert [r.request.op.op_id for r in responses] == [1, 2, 0]

    def test_sets_server_id_on_pull(self):
        env, gq, server, responses = self.make()
        gq.submit(make_request(partition=0))
        env.run()
        assert responses[0].request.server_id == 0

    def test_rejects_pushed_messages(self):
        env, gq, server, responses = self.make()
        net = server.network
        net.send(client_address(0), server_address(0), make_request())
        with pytest.raises(TypeError):
            env.run()

    def test_requires_partitions(self):
        env = Environment()
        network = Network(env, stream=Stream(0, "n"))
        gq = GlobalQueue(env, latency=ConstantLatency(0.0), stream=Stream(1, "gq"))
        with pytest.raises(ValueError):
            PullServer(
                env,
                server_id=0,
                cores=1,
                service_model=unit_service_model(),
                network=network,
                global_queue=gq,
                partitions=(),
            )
