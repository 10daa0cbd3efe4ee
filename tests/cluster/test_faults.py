"""Unit tests for fault injection: typed events, schedules, the one injector
(driven against a recording port, then against simulated servers)."""

import math

import pytest

from repro.cluster import (
    BackendServer,
    CrashFault,
    FaultInjector,
    FaultSchedule,
    FlashCrowdFault,
    Network,
    NetworkJitterFault,
    RebalanceFault,
    SimFaultPort,
    SlowdownFault,
    client_address,
    server_address,
)
from repro.cluster.messages import RequestMessage
from repro.cluster.faults import windows_extras
from repro.cluster.network import ConstantLatency, JitteredLatency
from repro.placement import MutablePlacement, RingPlacement
from repro.sim import Environment, Stream
from repro.workload import ServiceTimeModel
from repro.workload.tasks import Operation


def make_server(env, network, server_id=0):
    return BackendServer(
        env,
        server_id=server_id,
        cores=1,
        service_model=ServiceTimeModel(overhead=0.0, bandwidth=1.0),
        network=network,
    )


def req(op_id=0, size=1):
    return RequestMessage(
        op=Operation(op_id=op_id, task_id=0, key=0, value_size=size),
        task_id=0,
        client_id=0,
        partition=0,
    )


class TestFaultEventValidation:
    def test_slowdown_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            SlowdownFault(servers=(0,), factor=1.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            SlowdownFault(servers=(0,), duration=0.0)
        with pytest.raises(ValueError):
            SlowdownFault(servers=(0,), start=-1.0)
        with pytest.raises(ValueError):
            SlowdownFault(servers=(0,), duration=2.0, period=1.0)

    def test_permanent_fault_cannot_recur(self):
        with pytest.raises(ValueError):
            SlowdownFault(servers=(0,), duration=math.inf, period=1.0)
        with pytest.raises(ValueError):
            CrashFault(servers=(0,), duration=math.inf)

    def test_single_int_target_coerced(self):
        assert SlowdownFault(servers=0).servers == (0,)
        assert CrashFault(servers=2).servers == (2,)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            SlowdownFault(servers=())
        with pytest.raises(ValueError):
            CrashFault(servers=())

    def test_flash_crowd_and_jitter_validate(self):
        with pytest.raises(ValueError):
            FlashCrowdFault(multiplier=1.0)
        with pytest.raises(ValueError):
            NetworkJitterFault(factor=0.5)


class TestFaultSchedule:
    def test_len_bool_and_concat(self):
        empty = FaultSchedule()
        assert not empty and len(empty) == 0
        one = FaultSchedule((SlowdownFault(servers=(0,)),))
        two = one + FaultSchedule((CrashFault(servers=(1,)),))
        assert len(two) == 2 and bool(two)

    def test_rejects_non_events(self):
        with pytest.raises(TypeError):
            FaultSchedule(("not-a-fault",))

    def test_validate_targets_names_range(self):
        schedule = FaultSchedule((SlowdownFault(servers=(7,)),))
        with pytest.raises(ValueError, match=r"0\.\.2"):
            schedule.validate_targets(3)
        schedule.validate_targets(8)  # in range: no raise

    def test_describe_mentions_each_event(self):
        schedule = FaultSchedule(
            (SlowdownFault(servers=(1,), factor=2.0), FlashCrowdFault())
        )
        text = "\n".join(schedule.describe())
        assert "slowdown x2" in text and "flash crowd" in text


def admin(command, **fields):
    return {"t": "admin", "cmd": command, **fields}


class TestFaultPortContract:
    """The injector's contract with *any* port, stated once for both realms:
    one overlapping, recurring, five-kind schedule against a port that
    writes down ``(time, frame)`` on a bare calendar (no servers, no
    network)."""

    SCHEDULE = FaultSchedule(
        (
            SlowdownFault(servers=(0, 1), factor=2.0, start=1.0, duration=4.0),
            CrashFault(servers=(2,), start=2.0, duration=1.0, period=3.0),
            NetworkJitterFault(factor=3.0, start=1.0, duration=5.5),
            NetworkJitterFault(factor=5.0, start=2.0, duration=2.0),
            FlashCrowdFault(multiplier=2.0, start=1.0, duration=3.0),
            FlashCrowdFault(multiplier=1.5, start=2.0, duration=4.0),
            RebalanceFault(servers=(3,), start=3.0, duration=2.0),
        )
    )

    def make(self):
        clock = Environment()
        calls = []
        placement = MutablePlacement(RingPlacement(n_servers=4, replication_factor=2))
        injector = FaultInjector(
            clock,
            self.SCHEDULE,
            lambda frame: calls.append((round(clock.now, 9), frame)),
            placement,
        )
        return clock, calls, placement, injector

    def test_nothing_happens_before_start(self):
        clock, calls, _, injector = self.make()
        clock.run(until=10.0)
        assert calls == []
        assert injector.extras() == {
            "crash_windows": 0.0,
            "flash_crowd_windows": 0.0,
            "network_jitter_windows": 0.0,
            "rebalance_windows": 0.0,
            "slowdown_windows": 0.0,
        }

    def test_apply_revert_sequence(self):
        clock, calls, _, injector = self.make()
        injector.start()
        clock.run(until=9.5)
        assert calls == [
            (1.0, admin("slowdown", servers=[0, 1], factor=2.0)),
            (1.0, admin("jitter", factor=3.0, sigma=0.3)),
            (2.0, admin("crash", servers=[2])),
            (2.0, admin("jitter", factor=5.0, sigma=0.3)),  # latest onset wins
            (3.0, admin("resume", servers=[2])),
            # t=4: the inner jitter window closes at depth 1 -> no clear.
            (5.0, admin("restore", servers=[0, 1], factor=2.0)),
            (5.0, admin("crash", servers=[2])),  # recurrence: onset-to-onset 3 s
            (6.0, admin("resume", servers=[2])),
            (6.5, admin("clear-jitter")),  # depth 0 only now
            (8.0, admin("crash", servers=[2])),
            (9.0, admin("resume", servers=[2])),
        ]

    def test_arrival_scale_is_the_product_of_open_crowds(self):
        clock, _, _, injector = self.make()
        injector.start()
        seen = {}
        for t in (0.5, 1.5, 2.5, 4.5, 6.5):
            clock.run(until=t)
            seen[t] = injector.arrival_scale()
        assert seen == {
            0.5: 1.0,
            1.5: 2.0,
            2.5: pytest.approx(3.0),
            4.5: pytest.approx(1.5),
            6.5: pytest.approx(1.0),
        }

    def test_rebalance_excludes_then_readmits_on_the_shared_placement(self):
        clock, _, placement, injector = self.make()
        injector.start()
        clock.run(until=3.5)
        assert placement.excluded == (3,)
        clock.run(until=5.5)
        assert placement.excluded == ()
        assert placement.swaps == 2

    def test_reset_reverts_open_windows_latest_first(self):
        clock, calls, placement, injector = self.make()
        injector.start()
        clock.run(until=3.5)  # open: slowdown, jitter x2, crowd x2, rebalance
        del calls[:]
        injector.reset()
        assert [frame for _, frame in calls] == [
            # rebalance (t=3) and both crowds revert client-side, silently;
            # the port sees jitter(t=2), jitter(t=1) -> clear, slowdown.
            admin("clear-jitter"),
            admin("restore", servers=[0, 1], factor=2.0),
        ]
        assert injector.arrival_scale() == pytest.approx(1.0)
        assert placement.excluded == ()
        injector.reset()  # idempotent
        assert len(calls) == 2

    @pytest.mark.parametrize("reset_at", [1.5, 3.0], ids=["mid-window", "between"])
    def test_reset_stops_a_recurring_window_from_reopening(self, reset_at):
        """reset() cancels the injector's own timers: whether it lands inside
        a window or between two, the next onset (t=5) never degrades again."""
        env = Environment()
        network = Network(env)
        server = make_server(env, network)
        recurring = SlowdownFault(
            servers=(0,), factor=3.0, start=1.0, duration=1.0, period=4.0
        )
        injector = FaultInjector(
            env,
            FaultSchedule((recurring,)),
            SimFaultPort([server], network),
            MutablePlacement(RingPlacement(n_servers=1, replication_factor=1)),
        )
        injector.start()
        env.run(until=reset_at)
        injector.reset()
        assert server.speed_factor == 1.0
        env.run(until=5.5)
        assert server.speed_factor == 1.0
        assert injector.windows["slowdown"] == 1

    def test_windows_extras_count_every_onset(self):
        clock, _, _, injector = self.make()
        injector.start()
        clock.run(until=9.5)
        assert injector.extras() == windows_extras(injector.windows) == {
            "crash_windows": 3.0,
            "flash_crowd_windows": 2.0,
            "network_jitter_windows": 2.0,
            "rebalance_windows": 1.0,
            "slowdown_windows": 1.0,
        }

    def test_out_of_range_target_rejected_at_construction(self):
        """Targets are checked against the placement's server id space."""
        placement = MutablePlacement(RingPlacement(n_servers=4, replication_factor=2))
        schedule = FaultSchedule((CrashFault(servers=(5,)),))
        with pytest.raises(ValueError, match="valid ids"):
            FaultInjector(Environment(), schedule, lambda frame: None, placement)


class _Rig:
    """n servers on a zero-latency network, responses collected per client."""

    def __init__(self, n_servers=2):
        self.env = Environment()
        self.network = Network(
            self.env, latency=ConstantLatency(0.0), stream=Stream(0, "n")
        )
        self.responses = []
        self.network.register(client_address(0), self.responses.append)
        self.servers = [
            make_server(self.env, self.network, server_id=i)
            for i in range(n_servers)
        ]

    def send(self, server_id, size=1, op_id=0):
        self.network.send(
            client_address(0), server_address(server_id), req(op_id=op_id, size=size)
        )

    def inject(self, schedule):
        injector = FaultInjector(
            self.env,
            schedule,
            SimFaultPort(self.servers, self.network),
            MutablePlacement(
                RingPlacement(n_servers=len(self.servers), replication_factor=1)
            ),
        )
        injector.start()
        return injector


class TestFaultInjectorOnSimServers:
    """What :class:`SimFaultPort` does with each frame to simulated
    servers and the network."""

    def test_single_window_then_recovery(self):
        rig = _Rig(n_servers=1)
        injector = rig.inject(
            FaultSchedule((SlowdownFault(servers=0, factor=5.0, duration=2.0),))
        )

        def driver(env):
            rig.send(0, op_id=0)  # inside the window
            yield env.timeout(10.0)  # well past it
            rig.send(0, op_id=1)

        rig.env.process(driver(rig.env))
        rig.env.run(until=20.0)
        by_op = {r.request.op.op_id: r.request.service_time for r in rig.responses}
        assert by_op == {0: pytest.approx(5.0), 1: pytest.approx(1.0)}
        assert injector.windows["slowdown"] == 1

    def test_periodic_windows_recur(self):
        rig = _Rig(n_servers=1)
        injector = rig.inject(
            FaultSchedule(
                (SlowdownFault(servers=0, factor=2.0, duration=1.0, period=2.0),)
            )
        )
        rig.env.run(until=10.5)
        assert injector.windows["slowdown"] == 6  # onsets at 0, 2, ..., 10
        assert rig.servers[0].speed_factor == pytest.approx(2.0)  # t=10.5: open

    def test_delayed_start(self):
        rig = _Rig(n_servers=1)
        rig.inject(
            FaultSchedule(
                (SlowdownFault(servers=0, factor=2.0, start=5.0, duration=1.0),)
            )
        )
        rig.send(0)
        rig.env.run(until=3.0)
        assert rig.responses[0].request.service_time == pytest.approx(1.0)

    def test_overlapping_slowdowns_on_distinct_servers(self):
        rig = _Rig(n_servers=2)
        schedule = FaultSchedule(
            (
                SlowdownFault(servers=(0,), factor=2.0, start=0.0, duration=10.0),
                SlowdownFault(servers=(1,), factor=3.0, start=1.0, duration=10.0),
            )
        )
        injector = rig.inject(schedule)

        def driver(env):
            yield env.timeout(2.0)  # both windows open
            rig.send(0, op_id=0)
            rig.send(1, op_id=1)

        rig.env.process(driver(rig.env))
        rig.env.run(until=8.0)
        by_op = {r.request.op.op_id: r.request.service_time for r in rig.responses}
        assert by_op[0] == pytest.approx(2.0)
        assert by_op[1] == pytest.approx(3.0)
        assert injector.windows["slowdown"] == 2

    def test_overlapping_slowdowns_same_server_compose(self):
        rig = _Rig(n_servers=1)
        schedule = FaultSchedule(
            (
                SlowdownFault(servers=(0,), factor=2.0, start=0.0, duration=10.0),
                SlowdownFault(servers=(0,), factor=3.0, start=1.0, duration=2.0),
            )
        )
        rig.inject(schedule)

        def driver(env):
            yield env.timeout(1.5)  # inside both windows
            rig.send(0)

        rig.env.process(driver(rig.env))
        # After the inner window closes the outer factor alone remains.
        rig.env.run(until=5.0)
        assert rig.servers[0].speed_factor == pytest.approx(2.0)
        # After both windows the server is fully restored.
        rig.env.run(until=30.0)
        assert rig.servers[0].speed_factor == pytest.approx(1.0)
        assert rig.responses[0].request.service_time == pytest.approx(6.0)

    def test_crash_restart_conserves_queued_work(self):
        rig = _Rig(n_servers=1)
        schedule = FaultSchedule(
            (CrashFault(servers=(0,), start=1.0, duration=5.0),)
        )
        rig.inject(schedule)

        def driver(env):
            yield env.timeout(2.0)  # server is down
            assert rig.servers[0].paused
            for op_id in range(4):
                rig.send(0, op_id=op_id)

        rig.env.process(driver(rig.env))
        rig.env.run(until=20.0)
        # Nothing lost: all four requests served, all after the restart.
        assert len(rig.responses) == 4
        assert rig.servers[0].crashes == 1
        assert not rig.servers[0].paused
        assert all(
            r.request.service_start_at >= 6.0 for r in rig.responses
        ), "served during the crash window"

    def test_overlapping_crashes_on_distinct_servers_conserve(self):
        rig = _Rig(n_servers=2)
        schedule = FaultSchedule(
            (
                CrashFault(servers=(0,), start=0.5, duration=3.0),
                CrashFault(servers=(1,), start=1.0, duration=3.0),
            )
        )
        rig.inject(schedule)

        def driver(env):
            yield env.timeout(2.0)  # both down
            for op_id in range(3):
                rig.send(0, op_id=op_id)
                rig.send(1, op_id=10 + op_id)

        rig.env.process(driver(rig.env))
        rig.env.run(until=30.0)
        assert len(rig.responses) == 6
        assert all(s.crashes == 1 for s in rig.servers)

    def test_network_jitter_swaps_and_restores_latency(self):
        rig = _Rig(n_servers=1)
        rig.network.latency = ConstantLatency(50e-6)
        base = rig.network.latency
        schedule = FaultSchedule(
            (NetworkJitterFault(factor=4.0, sigma=0.2, start=1.0, duration=2.0),)
        )
        rig.inject(schedule)

        seen = {}

        def driver(env):
            yield env.timeout(1.5)
            seen["during"] = rig.network.latency
            yield env.timeout(5.0)
            seen["after"] = rig.network.latency

        rig.env.process(driver(rig.env))
        rig.env.run(until=10.0)
        assert isinstance(seen["during"], JitteredLatency)
        assert seen["during"].mean() == pytest.approx(base.mean() * 4.0)
        assert seen["after"] is base

    def test_overlapping_crashes_same_server_nest(self):
        rig = _Rig(n_servers=1)
        schedule = FaultSchedule(
            (
                CrashFault(servers=(0,), start=0.0, duration=5.0),
                CrashFault(servers=(0,), start=2.0, duration=5.0),
            )
        )
        rig.inject(schedule)

        def driver(env):
            yield env.timeout(3.0)
            rig.send(0)

        rig.env.process(driver(rig.env))
        # The first window ends at t=5 but the second holds until t=7.
        rig.env.run(until=6.0)
        assert rig.servers[0].paused
        assert not rig.responses
        rig.env.run(until=30.0)
        assert not rig.servers[0].paused
        assert len(rig.responses) == 1
        assert rig.responses[0].request.service_start_at >= 7.0
        assert rig.servers[0].crashes == 2
