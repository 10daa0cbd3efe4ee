"""Unit tests for replica selectors (random, RR, LOR, LOB)."""

import pytest

from repro.baselines import (
    LeastOutstandingBytesSelector,
    LeastOutstandingSelector,
    RandomSelector,
    RoundRobinSelector,
    make_selector,
)
from repro.cluster import RequestMessage, ResponseMessage, ServerFeedback
from repro.sim import Stream
from repro.workload.tasks import Operation


def req(server=0, size=100, partition=0, op_id=0):
    r = RequestMessage(
        op=Operation(op_id=op_id, task_id=0, key=0, value_size=size),
        task_id=0,
        client_id=0,
        partition=partition,
    )
    r.server_id = server
    return r


def resp(request):
    return ResponseMessage(
        request=request,
        feedback=ServerFeedback(
            server_id=request.server_id, queue_length=0, in_service=0, ewma_service_time=0.0
        ),
    )


class TestRandom:
    def test_choices_within_group(self):
        sel = RandomSelector(Stream(1))
        choices = {sel.choose((3, 4, 5), req()) for _ in range(200)}
        assert choices == {3, 4, 5}


class TestRoundRobin:
    def test_cycles_per_partition(self):
        sel = RoundRobinSelector()
        order = [sel.choose((1, 2, 3), req(partition=0)) for _ in range(6)]
        assert order == [1, 2, 3, 1, 2, 3]

    def test_partitions_independent(self):
        sel = RoundRobinSelector()
        sel.choose((1, 2), req(partition=0))
        assert sel.choose((5, 6), req(partition=1)) == 5


class TestLeastOutstanding:
    def test_prefers_idle_server(self):
        sel = LeastOutstandingSelector()
        r1 = req(server=1)
        sel.on_assign(r1)
        assert sel.choose((1, 2), req()) == 2

    def test_response_decrements(self):
        sel = LeastOutstandingSelector()
        r1 = req(server=1)
        sel.on_assign(r1)
        sel.on_response(resp(r1))
        assert sel.outstanding[1] == 0

    def test_underflow_detected(self):
        sel = LeastOutstandingSelector()
        with pytest.raises(RuntimeError):
            sel.on_response(resp(req(server=1)))

    def test_tie_break_uses_stream(self):
        sel = LeastOutstandingSelector(stream=Stream(2))
        choices = {sel.choose((1, 2, 3), req()) for _ in range(100)}
        assert len(choices) > 1  # ties explored, not always first


class TestLeastOutstandingBytes:
    def test_weighs_by_bytes(self):
        sel = LeastOutstandingBytesSelector()
        big = req(server=1, size=10_000, op_id=1)
        sel.on_assign(big)
        small = req(server=2, size=10, op_id=2)
        sel.on_assign(small)
        # Server 2 carries fewer outstanding bytes despite equal counts.
        assert sel.choose((1, 2), req()) == 2

    def test_response_returns_bytes(self):
        sel = LeastOutstandingBytesSelector()
        r = req(server=1, size=500)
        sel.on_assign(r)
        sel.on_response(resp(r))
        assert sel.outstanding_bytes[1] == 0

    def test_underflow_detected(self):
        sel = LeastOutstandingBytesSelector()
        with pytest.raises(RuntimeError):
            sel.on_response(resp(req(server=1, size=10)))


class TestFactory:
    def test_known(self):
        assert isinstance(make_selector("random", Stream(1)), RandomSelector)
        assert isinstance(make_selector("round-robin"), RoundRobinSelector)
        assert isinstance(make_selector("least-outstanding"), LeastOutstandingSelector)

    def test_random_requires_stream(self):
        with pytest.raises(ValueError):
            make_selector("random")

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_selector("best")
