"""Unit tests for the hedged-requests baseline."""

import pytest

from repro.baselines import HedgedStrategy, LeastOutstandingSelector, hedging
from repro.cluster import BackendServer, Client, Network, RingPlacement
from repro.cluster.faults import (
    FaultInjector,
    FaultSchedule,
    SimFaultPort,
    SlowdownFault,
)
from repro.cluster.network import ConstantLatency
from repro.harness import ExperimentConfig, run_experiment
from repro.placement import MutablePlacement
from repro.sim import Environment, Stream
from repro.workload import ServiceTimeModel
from repro.workload.tasks import Operation, Task


def make_task(task_id, n_ops, size=1000):
    ops = tuple(
        Operation(op_id=task_id * 100 + i, task_id=task_id, key=i, value_size=size)
        for i in range(n_ops)
    )
    return Task(task_id=task_id, arrival_time=0.0, client_id=0, operations=ops)


@pytest.fixture
def make_rig(monkeypatch):
    """``make_rig(delay, ...)``: a :class:`Rig` whose strategy hedges after
    ``delay`` seconds, with no hedge budget; the delay holds until the
    next call (so build and run one rig before the next)."""

    def build(hedge_delay, **kwargs):
        monkeypatch.setattr(hedging, "HEDGE_DELAY", hedge_delay)
        return Rig(**kwargs)

    monkeypatch.setattr(hedging, "HEDGE_BUDGET", 1.0)
    return build


class Rig:
    def __init__(self, slowdown=None, rf=2):
        self.env = Environment()
        self.network = Network(
            self.env, latency=ConstantLatency(1e-4), stream=Stream(0, "n")
        )
        self.placement = RingPlacement(n_servers=3, replication_factor=rf)
        self.model = ServiceTimeModel(overhead=0.0, bandwidth=1e6)
        self.servers = [
            BackendServer(
                self.env,
                server_id=s,
                cores=1,
                service_model=self.model,
                network=self.network,
            )
            for s in range(3)
        ]
        if slowdown is not None:
            FaultInjector(
                self.env,
                FaultSchedule(
                    (SlowdownFault(servers=slowdown, factor=100.0, duration=10.0),)
                ),
                SimFaultPort(self.servers, self.network),
                MutablePlacement(self.placement),
            ).start()
        self.strategy = HedgedStrategy(
            self.placement, LeastOutstandingSelector(), self.model
        )
        self.completions = []
        self.client = Client(
            self.env,
            client_id=0,
            network=self.network,
            strategy=self.strategy,
            on_complete=self.completions.append,
        )


class TestHedging:
    def test_no_hedges_when_fast(self, make_rig):
        rig = make_rig(1.0)  # far beyond any response time
        rig.client.submit(make_task(0, n_ops=4))
        rig.env.run(until=5.0)
        assert len(rig.completions) == 1
        assert rig.strategy.hedges_sent == 0
        assert rig.strategy.wasted_responses == 0

    def test_hedges_fire_for_stragglers(self, make_rig):
        # Server 0 is 100x slow: primaries landing there straggle and get
        # hedged to the other replica of their group.
        rig = make_rig(0.005, slowdown=0)
        for t in range(4):
            rig.client.submit(make_task(t, n_ops=3))
        rig.env.run(until=30.0)
        assert len(rig.completions) == 4
        assert rig.strategy.hedges_sent > 0

    def test_hedging_cuts_straggler_latency(self, make_rig):
        """With hedging, no task should wait for the 100x-slow replica."""
        worst = []
        for delay in (100.0, 0.005):  # effectively no hedging, then hedging
            run = make_rig(delay, slowdown=0)
            for t in range(4):
                run.client.submit(make_task(t, n_ops=3))
            run.env.run(until=60.0)
            worst.append(max(c.latency for c in run.completions))
        assert worst[1] < worst[0]

    def test_task_completes_exactly_once_despite_duplicates(self, make_rig):
        rig = make_rig(0.0005, slowdown=0)
        rig.client.submit(make_task(0, n_ops=5))
        rig.env.run(until=30.0)
        assert len(rig.completions) == 1
        assert rig.client.tasks_completed == 1

    def test_no_hedge_with_replication_factor_one(self, make_rig):
        rig = make_rig(0.0005, slowdown=0, rf=1)
        rig.client.submit(make_task(0, n_ops=3))
        rig.env.run(until=200.0)
        assert rig.strategy.hedges_sent == 0  # nowhere to go
        assert len(rig.completions) == 1


class TestHedgedEndToEnd:
    def test_runner_integration(self):
        cfg = ExperimentConfig(strategy="hedged", n_tasks=300, n_keys=2000)
        result = run_experiment(cfg, seed=1)
        assert result.tasks_completed == 300
        assert "hedges_sent" in result.extras
        # Duplicates mean servers may serve more requests than ops exist.
        assert result.requests_served >= result.tasks_measured
