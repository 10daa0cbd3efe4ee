"""Unit tests for the ideal global-queue realization."""

import pytest

from repro.cluster import (
    Network,
    PullServer,
    RequestMessage,
    client_address,
)
from repro.cluster.network import ConstantLatency
from repro.core import GlobalQueue
from repro.sim import Environment, Stream
from repro.workload import ServiceTimeModel
from repro.workload.tasks import Operation


def req(op_id=0, priority=(0.0, 0.0, 0.0), partition=0, size=1):
    return RequestMessage(
        op=Operation(op_id=op_id, task_id=0, key=0, value_size=size),
        task_id=0,
        client_id=0,
        partition=partition,
        priority=priority,
    )


class Rig:
    """A global queue, pull servers over it and one client inbox.

    Service time is one second per byte, the network is instantaneous.
    """

    def __init__(self, *server_partitions, cores=1):
        self.env = Environment()
        self.network = Network(
            self.env, latency=ConstantLatency(0.0), stream=Stream(0, "n")
        )
        self.responses = []
        self.network.register(client_address(0), self.responses.append)
        self.gq = GlobalQueue(
            self.env, latency=ConstantLatency(0.0), stream=Stream(1, "gq")
        )
        self.servers = [
            PullServer(
                self.env,
                server_id=server_id,
                cores=cores,
                service_model=ServiceTimeModel(overhead=0.0, bandwidth=1.0),
                network=self.network,
                global_queue=self.gq,
                partitions=partitions,
            )
            for server_id, partitions in enumerate(server_partitions)
        ]

    def served(self):
        """``(op id, serving server)`` in completion order."""
        return [(r.request.op.op_id, r.request.server_id) for r in self.responses]


class TestGlobalQueue:
    def test_submit_applies_network_delay(self):
        env = Environment()
        gq = GlobalQueue(env, latency=ConstantLatency(0.5), stream=Stream(0))
        request = req()
        gq.submit(request)
        assert len(gq) == 0  # still in flight
        env.run()
        assert len(gq) == 1
        assert request.enqueued_at == pytest.approx(0.5)
        assert request.dispatched_at == 0.0

    def test_orders_by_priority_across_clients(self):
        rig = Rig((0,))
        rig.gq.submit(req(op_id=0, priority=(3.0, 0.0, 0.0)))
        rig.gq.submit(req(op_id=1, priority=(1.0, 0.0, 0.0)))
        rig.gq.submit(req(op_id=2, priority=(2.0, 0.0, 0.0)))
        rig.env.run()
        assert [op_id for op_id, _ in rig.served()] == [1, 2, 0]

    def test_equal_priorities_are_fifo_across_partitions(self):
        rig = Rig((0, 1))
        for op_id, partition in enumerate((1, 0, 1, 0)):
            rig.gq.submit(req(op_id=op_id, partition=partition))
        rig.env.run()
        assert [op_id for op_id, _ in rig.served()] == [0, 1, 2, 3]

    def test_submitted_counter(self):
        env = Environment()
        gq = GlobalQueue(env, latency=ConstantLatency(0.0), stream=Stream(0))
        for i in range(5):
            gq.submit(req(op_id=i))
        env.run()
        assert gq.submitted == 5
        assert len(gq) == 5

    def test_same_instant_arrivals_share_one_flush(self):
        rig = Rig((0,))
        flushes = []
        flush = rig.gq._flush
        rig.gq._flush = lambda: (flushes.append(rig.env.now), flush())
        for i in range(4):
            rig.gq.submit(req(op_id=i))
        for _ in range(4):
            rig.env.step()  # the four arrivals
        assert len(rig.gq) == 4 and flushes == []
        assert rig.env.peek() == rig.env.now  # the flush, armed once
        rig.env.step()
        assert flushes == [0.0] and len(rig.gq) == 3
        assert rig.env.peek() > rig.env.now


class TestIdleCoreMatching:
    def test_idle_cores_are_matched_in_went_idle_order(self):
        rig = Rig((0,), (0,))
        # Construction order first: server 0 takes the more urgent request.
        rig.gq.submit(req(op_id=0, size=3, priority=(1.0,)))
        rig.gq.submit(req(op_id=1, size=1, priority=(2.0,)))
        rig.env.run()
        assert rig.served() == [(1, 1), (0, 0)]
        # Server 1 went idle at t=1, server 0 at t=3: server 1 is now first
        # in line although server 0 has the smaller id.
        rig.gq.submit(req(op_id=2))
        rig.env.run()
        assert rig.served()[-1] == (2, 1)

    def test_request_no_idle_server_replicates_waits_for_the_next_flush(self):
        rig = Rig((0,), (1,))
        rig.gq.submit(req(op_id=0, partition=0, size=2))
        rig.gq.submit(req(op_id=1, partition=0, size=2))
        rig.env.run(until=1.0)
        # Server 1 is idle but does not replicate partition 0.
        assert len(rig.gq) == 1
        assert [s.in_service for s in rig.servers] == [1, 0]
        assert [s.queue_length() for s in rig.servers] == [1, 0]
        rig.env.run()
        assert rig.served() == [(0, 0), (1, 0)]
        assert rig.responses[1].request.service_start_at == pytest.approx(2.0)

    def test_paused_servers_idle_cores_are_skipped_and_keep_their_place(self):
        rig = Rig((0,), (0,))
        rig.servers[0].pause()
        rig.gq.submit(req(op_id=0))
        rig.env.run()
        # First in line, but crashed: the healthy replica serves it.
        assert rig.served() == [(0, 1)]
        rig.servers[0].resume()
        rig.gq.submit(req(op_id=1))
        rig.env.run()
        assert rig.served()[-1] == (1, 0)

    def test_crash_window_keeps_work_queued_and_visible(self):
        rig = Rig((0, 1))
        server = rig.servers[0]
        server.pause()
        server.pause()  # nested window
        rig.gq.submit(req(op_id=0, partition=0, priority=(5.0,)))
        rig.gq.submit(req(op_id=1, partition=1, priority=(1.0,)))
        rig.gq.submit(req(op_id=2, partition=7))  # nobody replicates it
        rig.env.run()
        assert server.queue_length() == 2 and len(rig.gq) == 3
        assert server.in_service == 0 and rig.responses == []
        server.resume()
        rig.env.run()
        assert rig.responses == []  # one window still open
        server.resume()
        rig.env.run()
        assert [op_id for op_id, _ in rig.served()] == [1, 0]
        assert server.queue_length() == 0 and len(rig.gq) == 1
