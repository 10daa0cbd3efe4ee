"""Unit tests for the credits controller and the client-side gate."""

import pytest

from repro.cluster import (
    CONTROLLER_ADDRESS,
    CreditGrant,
    DemandReport,
    Network,
    RequestMessage,
    client_address,
    server_address,
)
from repro.cluster.messages import CongestionSignal
from repro.cluster.network import ConstantLatency
from repro.core import CreditGate, CreditsController, credits, equal_initial_shares
from repro.sim import Environment, Stream
from repro.workload.tasks import Operation


def req(server=0, op_id=0, priority=(0.0, 0.0, 0.0)):
    r = RequestMessage(
        op=Operation(op_id=op_id, task_id=0, key=0, value_size=10),
        task_id=0,
        client_id=0,
        partition=0,
        priority=priority,
    )
    r.server_id = server
    return r


class ControllerRig:
    def __init__(self, n_clients=2, capacity=100.0, interval=0.1):
        self.env = Environment()
        self.network = Network(
            self.env, latency=ConstantLatency(0.0), stream=Stream(0, "n")
        )
        self.inboxes = {c: [] for c in range(n_clients)}
        for c in range(n_clients):
            self.network.register(client_address(c), self.inboxes[c].append)
        # A sink for server addresses so gates can send requests.
        self.server_inbox = []
        self.network.register(server_address(0), self.server_inbox.append)
        self.controller = CreditsController(
            self.env,
            self.network,
            n_clients=n_clients,
            server_capacities={0: capacity},
            allocation_interval=interval,
        )

    def report(self, client, demand, at=None):
        self.network.send(
            client_address(client),
            CONTROLLER_ADDRESS,
            DemandReport(client_id=client, time=self.env.now, demand=demand),
        )


class TestController:
    def test_equal_split_without_demand(self):
        rig = ControllerRig(n_clients=2, capacity=100.0, interval=0.1)
        rig.env.run(until=0.15)
        grants = [m for m in rig.inboxes[0] if isinstance(m, CreditGrant)]
        assert grants
        # 100 req/s * 0.1s = 10 credits split over 2 clients.
        assert grants[0].credits[0] == pytest.approx(5.0)

    def test_demand_topped_up_immediately(self):
        rig = ControllerRig(n_clients=2, capacity=100.0, interval=0.1)

        def driver(env):
            yield env.timeout(0.01)
            rig.report(0, {0: 4.0})

        rig.env.process(driver(rig.env))
        rig.env.run(until=0.05)  # before the first periodic allocation
        grants = [m for m in rig.inboxes[0] if isinstance(m, CreditGrant)]
        assert grants and grants[0].credits[0] == pytest.approx(4.0)

    def test_topups_bounded_by_interval_budget(self):
        rig = ControllerRig(n_clients=1, capacity=100.0, interval=0.1)

        def driver(env):
            yield env.timeout(0.01)
            rig.report(0, {0: 25.0})  # far above the 10-credit budget

        rig.env.process(driver(rig.env))
        rig.env.run(until=0.05)
        grants = [m for m in rig.inboxes[0] if isinstance(m, CreditGrant)]
        total = sum(g.credits.get(0, 0.0) for g in grants)
        assert total <= 10.0 + 1e-9

    def test_oversubscription_proportional(self):
        rig = ControllerRig(n_clients=2, capacity=100.0, interval=0.1)

        def driver(env):
            yield env.timeout(0.01)
            # Demand 3x the budget in ratio 2:1; exhaust top-ups first.
            rig.report(0, {0: 20.0})
            rig.report(1, {0: 10.0})

        rig.env.process(driver(rig.env))
        rig.env.run(until=0.25)
        # After top-ups consumed the 10-credit interval budget, periodic
        # allocation shares the next interval's budget 2:1 on unmet demand.
        def granted(client):
            return sum(
                g.credits.get(0, 0.0)
                for g in rig.inboxes[client]
                if isinstance(g, CreditGrant)
            )

        g0, g1 = granted(0), granted(1)
        assert g0 > g1
        assert g0 + g1 <= 2 * 10.0 + 1e-9  # two intervals of budget at most

    def test_congestion_scales_down_budget(self, monkeypatch):
        monkeypatch.setattr(credits, "DEFAULT_EPOCH", 0.2)
        rig = ControllerRig(n_clients=1, capacity=100.0, interval=0.1)

        def driver(env):
            yield env.timeout(0.01)
            rig.network.send(
                server_address(0),
                CONTROLLER_ADDRESS,
                CongestionSignal(server_id=0, time=env.now, overload_ratio=2.0),
            )

        rig.env.process(driver(rig.env))
        rig.env.run(until=0.35)
        assert rig.controller.scales[0] < 1.0
        assert rig.controller.congestion_signals == 1

    def test_scale_recovers_without_congestion(self, monkeypatch):
        monkeypatch.setattr(credits, "DEFAULT_EPOCH", 0.1)
        rig = ControllerRig(n_clients=1, capacity=100.0, interval=0.1)
        rig.controller.scales[0] = 0.5
        rig.env.run(until=2.0)
        assert rig.controller.scales[0] == pytest.approx(1.0)

    def test_unknown_message_rejected(self):
        rig = ControllerRig()
        rig.network.send("x", CONTROLLER_ADDRESS, "junk")
        with pytest.raises(TypeError):
            rig.env.run(until=0.05)

    def test_validates(self):
        env = Environment()
        network = Network(env, stream=Stream(0))
        with pytest.raises(ValueError):
            CreditsController(env, network, n_clients=0, server_capacities={0: 1.0})
        with pytest.raises(ValueError):
            CreditsController(env, network, n_clients=1, server_capacities={})
        with pytest.raises(ValueError):
            CreditsController(
                env, network, n_clients=1, server_capacities={0: 1.0},
                allocation_interval=2 * credits.DEFAULT_EPOCH,
            )


class GateRig:
    def __init__(self, initial=5.0):
        self.env = Environment()
        self.network = Network(
            self.env, latency=ConstantLatency(0.0), stream=Stream(0, "n")
        )
        self.server_inbox = []
        self.network.register(server_address(0), self.server_inbox.append)
        self.controller_inbox = []
        self.network.register(CONTROLLER_ADDRESS, self.controller_inbox.append)
        self.gate = CreditGate(
            self.env,
            self.network,
            client_id=0,
            server_ids=[0],
            measurement_interval=0.1,
            initial_share={0: initial},
        )


class TestGate:
    def test_sends_while_credits_last(self):
        rig = GateRig(initial=2.0)
        rig.gate.submit(req(op_id=0))
        rig.gate.submit(req(op_id=1))
        rig.gate.submit(req(op_id=2))  # out of credits: gated
        rig.env.run(until=0.01)
        assert len(rig.server_inbox) == 2
        assert rig.gate.gated == 1
        assert sum(map(len, rig.gate._backlog.values())) == 1

    def test_backlog_drains_by_priority_on_grant(self):
        rig = GateRig(initial=0.0)
        rig.gate.submit(req(op_id=0, priority=(5.0, 0.0, 0.0)))
        rig.gate.submit(req(op_id=1, priority=(1.0, 0.0, 0.0)))
        rig.gate.on_grant(CreditGrant(client_id=0, epoch=1, credits={0: 1.0}))
        rig.env.run(until=0.01)
        assert [m.op.op_id for m in rig.server_inbox] == [1]  # highest priority

    def test_urgent_report_on_gating(self):
        rig = GateRig(initial=0.0)
        rig.gate.submit(req())
        rig.env.run(until=0.001)  # well before the measurement interval
        reports = [m for m in rig.controller_inbox if isinstance(m, DemandReport)]
        assert reports and reports[0].demand[0] >= 1.0

    def test_credits_accumulate_up_to_cap(self):
        rig = GateRig(initial=10.0)
        for epoch in range(10):
            rig.gate.on_grant(
                CreditGrant(client_id=0, epoch=epoch, credits={0: 10.0})
            )
        assert rig.gate.credits[0] <= 10.0 * credits.ACCUMULATION_INTERVALS + 1e-9

    def test_periodic_demand_reports(self):
        rig = GateRig(initial=100.0)
        rig.gate.submit(req())
        rig.env.run(until=0.25)
        reports = [m for m in rig.controller_inbox if isinstance(m, DemandReport)]
        assert reports

    def test_grant_for_wrong_client_rejected(self):
        rig = GateRig()
        with pytest.raises(ValueError):
            rig.gate.on_grant(CreditGrant(client_id=9, epoch=1, credits={}))

    def test_unknown_server_rejected(self):
        rig = GateRig()
        with pytest.raises(ValueError):
            rig.gate.submit(req(server=99))

    def test_fifo_within_equal_priority_backlog(self):
        rig = GateRig(initial=0.0)
        for i in range(3):
            rig.gate.submit(req(op_id=i, priority=(1.0, 0.0, 0.0)))
        rig.gate.on_grant(CreditGrant(client_id=0, epoch=1, credits={0: 3.0}))
        rig.env.run(until=0.01)
        assert [m.op.op_id for m in rig.server_inbox] == [0, 1, 2]


class TestEqualInitialShares:
    def test_splits_capacity(self):
        shares = equal_initial_shares({0: 100.0, 1: 50.0}, n_clients=4, interval=0.1)
        assert shares[0] == pytest.approx(2.5)
        assert shares[1] == pytest.approx(1.25)

    def test_validates(self):
        with pytest.raises(ValueError):
            equal_initial_shares({0: 1.0}, n_clients=0, interval=0.1)
