"""Unit tests for the BRB dispatch strategies (credits + model)."""

import pytest

from repro.cluster import (
    BackendServer,
    Client,
    Network,
    PullServer,
    RingPlacement,
    client_address,
)
from repro.cluster.messages import CreditGrant
from repro.cluster.network import ConstantLatency
from repro.core import (
    BRBCreditsStrategy,
    BRBModelStrategy,
    CreditGate,
    EqualMaxAssigner,
    GlobalQueue,
    UnifIncrAssigner,
)
from repro.sim import Environment, Stream
from repro.workload import ServiceTimeModel
from repro.workload.tasks import Operation, Task


def unit_model():
    return ServiceTimeModel(overhead=0.0, bandwidth=1000.0)


def make_task(keys_sizes, task_id=0, arrival=0.0):
    ops = tuple(
        Operation(op_id=task_id * 100 + i, task_id=task_id, key=k, value_size=s)
        for i, (k, s) in enumerate(keys_sizes)
    )
    return Task(task_id=task_id, arrival_time=arrival, client_id=0, operations=ops)


class CreditsRig:
    def __init__(self, n_servers=3, rf=2, initial_credits=1000.0):
        self.env = Environment()
        self.network = Network(
            self.env, latency=ConstantLatency(0.0), stream=Stream(0, "n")
        )
        self.placement = RingPlacement(n_servers=n_servers, replication_factor=rf)
        self.model = unit_model()
        self.servers = [
            BackendServer(
                self.env,
                server_id=s,
                cores=1,
                service_model=self.model,
                network=self.network,
            )
            for s in range(n_servers)
        ]
        # Controller address must exist for demand reports.
        self.controller_inbox = []
        self.network.register(("controller", 0), self.controller_inbox.append)
        self.gate = CreditGate(
            self.env,
            self.network,
            client_id=0,
            server_ids=list(range(n_servers)),
            initial_share={s: initial_credits for s in range(n_servers)},
        )
        self.strategy = BRBCreditsStrategy(
            self.placement, EqualMaxAssigner(), self.model, gate=self.gate
        )
        self.completions = []
        self.client = Client(
            self.env,
            client_id=0,
            network=self.network,
            strategy=self.strategy,
            on_complete=self.completions.append,
        )


class TestBRBCredits:
    def test_end_to_end_completion(self):
        rig = CreditsRig()
        rig.client.submit(make_task([(k, 100) for k in range(6)]))
        rig.env.run(until=5.0)
        assert len(rig.completions) == 1

    def test_requests_carry_priorities_and_costs(self):
        rig = CreditsRig()
        task = make_task([(0, 100), (1, 900), (2, 50)])
        requests = rig.strategy.prepare(task)
        assert len(requests) == 3
        for r in requests:
            assert r.bottleneck_cost > 0
            assert r.expected_service == pytest.approx(r.op.value_size / 1000.0)
            assert len(r.priority) == 3
            assert r.server_id in rig.placement.replicas_of(r.partition)

    def test_requests_leave_submit_stamped_with_now(self):
        rig = CreditsRig()
        rig.env.run(until=1.5)
        sent = []
        dispatch = rig.strategy.dispatch
        rig.strategy.dispatch = lambda requests: (sent.extend(requests), dispatch(requests))
        rig.client.submit(make_task([(k, 100) for k in range(6)], arrival=1.5))
        assert len(sent) == 6
        assert all(r.created_at == 1.5 == r.dispatched_at for r in sent)

    def test_requests_grouped_by_partition_in_op_order(self):
        """One pass, same order as ever: ascending partition, ops in task
        order within one -- the order replica choice and the gate see."""
        rig = CreditsRig()
        task = make_task([(k, 100 + k) for k in range(12)])
        requests = rig.strategy.prepare(task)
        assert sorted(r.op.op_id for r in requests) == [op.op_id for op in task.operations]
        order = [(r.partition, r.op.op_id) for r in requests]
        assert order == sorted(order)
        assert all(r.partition == rig.placement.partition_of(r.op.key) for r in requests)

    def test_equalmax_priorities_equal_within_task(self):
        rig = CreditsRig()
        requests = rig.strategy.prepare(make_task([(k, 100 * (k + 1)) for k in range(5)]))
        heads = {r.priority[0] for r in requests}
        assert len(heads) == 1

    def test_replica_spreading_within_group(self):
        """Many equal ops on one partition must not all hit one replica."""
        rig = CreditsRig(n_servers=3, rf=3)
        # All keys map to partitions, all replicas shared; use many ops.
        task = make_task([(k, 100) for k in range(30)])
        requests = rig.strategy.prepare(task)
        used = {r.server_id for r in requests}
        assert len(used) > 1

    def test_gated_requests_preserve_priority_order(self):
        rig = CreditsRig(initial_credits=0.0)
        urgent = make_task([(0, 10)], task_id=1, arrival=0.0)
        relaxed = make_task([(0, 9000)], task_id=2, arrival=0.0)
        rig.client.submit(relaxed)
        rig.client.submit(urgent)
        # Grant credits: the urgent (small-bottleneck) task must leave first.
        rig.strategy.on_control(
            CreditGrant(client_id=0, epoch=1, credits={s: 10.0 for s in range(3)})
        )
        rig.env.run(until=20.0)
        assert [c.task.task_id for c in rig.completions] == [1, 2]

    def test_unexpected_control_rejected(self):
        rig = CreditsRig()
        with pytest.raises(TypeError):
            rig.strategy.on_control("junk")


class ModelRig:
    def __init__(self, n_servers=3, rf=2, assigner=None):
        self.env = Environment()
        self.network = Network(
            self.env, latency=ConstantLatency(0.0), stream=Stream(0, "n")
        )
        self.placement = RingPlacement(n_servers=n_servers, replication_factor=rf)
        self.model = unit_model()
        self.gq = GlobalQueue(self.env, latency=ConstantLatency(0.0), stream=Stream(9, "gq"))
        self.servers = [
            PullServer(
                self.env,
                server_id=s,
                cores=1,
                service_model=self.model,
                network=self.network,
                global_queue=self.gq,
                partitions=self.placement.partitions_of_server(s),
            )
            for s in range(n_servers)
        ]
        self.strategy = BRBModelStrategy(
            self.placement, assigner or UnifIncrAssigner(), self.model, global_queue=self.gq
        )
        self.completions = []
        self.client = Client(
            self.env,
            client_id=0,
            network=self.network,
            strategy=self.strategy,
            on_complete=self.completions.append,
        )


class TestBRBModel:
    def test_end_to_end_completion(self):
        rig = ModelRig()
        rig.client.submit(make_task([(k, 100) for k in range(6)]))
        rig.env.run(until=10.0)
        assert len(rig.completions) == 1

    def test_no_server_preassignment(self):
        rig = ModelRig()
        rig.env.run(until=0.75)
        requests = rig.strategy.prepare(make_task([(0, 100), (1, 100)]))
        assert all(r.server_id == -1 for r in requests)
        assert all(r.created_at == 0.75 for r in requests)

    def test_any_replica_can_pull(self):
        """With RF == n_servers every server may serve; work must spread."""
        rig = ModelRig(n_servers=3, rf=3)
        rig.client.submit(make_task([(k, 1000) for k in range(9)]))
        rig.env.run(until=60.0)
        served = [s.completed for s in rig.servers]
        assert sum(served) == 9
        assert all(c > 0 for c in served)

    def test_priority_order_respected_globally(self):
        rig = ModelRig(n_servers=1, rf=1)
        # Single server, single core: completion order == priority order.
        quick = make_task([(0, 10)], task_id=1)
        slow = make_task([(1, 5000)], task_id=2)
        rig.client.submit(slow)
        rig.client.submit(quick)
        rig.env.run(until=60.0)
        assert [c.task.task_id for c in rig.completions] == [1, 2]
