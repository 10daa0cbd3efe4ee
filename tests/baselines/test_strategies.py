"""Unit tests for the oblivious dispatch strategy and C3's pacing."""

import pytest

from repro.baselines import C3Strategy, ObliviousStrategy, RoundRobinSelector
from repro.cluster import BackendServer, Client, Network, RingPlacement
from repro.cluster.network import ConstantLatency
from repro.sim import Environment, Stream
from repro.workload import ServiceTimeModel
from repro.workload.tasks import Operation, Task


def make_task(task_id, keys, size=100):
    ops = tuple(
        Operation(op_id=task_id * 100 + i, task_id=task_id, key=k, value_size=size)
        for i, k in enumerate(keys)
    )
    return Task(task_id=task_id, arrival_time=0.0, client_id=0, operations=ops)


class Rig:
    def __init__(self, strategy_factory, n_servers=3, rf=2):
        self.env = Environment()
        self.network = Network(
            self.env, latency=ConstantLatency(1e-4), stream=Stream(0, "n")
        )
        self.placement = RingPlacement(n_servers=n_servers, replication_factor=rf)
        self.model = ServiceTimeModel(overhead=0.0, bandwidth=1e6)
        self.servers = [
            BackendServer(
                self.env,
                server_id=s,
                cores=2,
                service_model=self.model,
                network=self.network,
            )
            for s in range(n_servers)
        ]
        self.strategy = strategy_factory(self.placement, self.model)
        self.completions = []
        self.client = Client(
            self.env,
            client_id=0,
            network=self.network,
            strategy=self.strategy,
            on_complete=self.completions.append,
        )


def oblivious_round_robin(placement, model):
    return ObliviousStrategy(placement, RoundRobinSelector(), model)


class TestObliviousStrategy:
    def test_prepare_assigns_valid_replicas(self):
        rig = Rig(oblivious_round_robin)
        requests = rig.strategy.prepare(make_task(0, keys=range(20)))
        for r in requests:
            assert r.server_id in rig.placement.replicas_of(r.partition)
            assert r.expected_service > 0

    def test_name_includes_selector(self):
        rig = Rig(oblivious_round_robin)
        assert rig.strategy.name == "oblivious+round-robin"

    def test_end_to_end(self):
        rig = Rig(oblivious_round_robin)
        for t in range(5):
            rig.client.submit(make_task(t, keys=range(4)))
        rig.env.run(until=5.0)
        assert len(rig.completions) == 5


class TestC3Pacing:
    def make_c3_rig(self, initial_rate):
        return Rig(
            lambda placement, model: C3Strategy(
                placement,
                model,
                concurrency_weight=2,
                stream=Stream(7),
                rate_control=True,
                initial_rate=initial_rate,
            )
        )

    def test_paced_dispatch_still_completes(self):
        # Tiny rate: almost everything goes through the pacer backlog.
        rig = self.make_c3_rig(initial_rate=200.0)
        for t in range(4):
            rig.client.submit(make_task(t, keys=range(6)))
        rig.env.run(until=30.0)
        assert len(rig.completions) == 4

    def test_pacing_delays_dispatch(self):
        rig = self.make_c3_rig(initial_rate=50.0)
        # 60 ops over 3 servers: ~20 per server, beyond the 16-token burst
        # depth, so the excess is paced at 50 req/s (20ms per token).
        rig.client.submit(make_task(0, keys=range(60)))
        rig.env.run(until=60.0)
        assert len(rig.completions) == 1
        completion = rig.completions[0]
        assert completion.latency > 1e-3

    def test_unpaced_when_tokens_plentiful(self):
        rig = self.make_c3_rig(initial_rate=1e6)
        rig.client.submit(make_task(0, keys=range(6)))
        rig.env.run(until=5.0)
        assert rig.completions[0].latency < 1e-3
