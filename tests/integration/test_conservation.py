"""Integration tests: conservation laws and life-cycle audits.

These run small end-to-end simulations and check the invariants that make
the latency numbers trustworthy: no request is lost or duplicated, the
timestamp trail is ordered, and the load actually lands on the servers at
the configured level.
"""

import pytest

from repro.cluster import BackendServer, Client, Network, RingPlacement
from repro.cluster.network import ConstantLatency
from repro.baselines import ObliviousStrategy, LeastOutstandingSelector
from repro.harness import ExperimentConfig, run_experiment
from repro.sim import Environment, Stream
from repro.workload import ServiceTimeModel
from repro.workload.tasks import Operation, Task


class TestRequestLifecycle:
    """Audit the timestamp trail of every request in a small run."""

    @pytest.fixture(scope="class")
    def audited_run(self):
        env = Environment()
        network = Network(env, latency=ConstantLatency(1e-3), stream=Stream(0, "n"))
        placement = RingPlacement(n_servers=3, replication_factor=2)
        model = ServiceTimeModel(overhead=1e-4, bandwidth=1e6)
        servers = [
            BackendServer(
                env,
                server_id=s,
                cores=2,
                service_model=model,
                network=network,
            )
            for s in range(3)
        ]
        audit = []

        class AuditStrategy(ObliviousStrategy):
            def on_response(self, response):
                super().on_response(response)
                audit.append(response.request)

        client = Client(
            env,
            client_id=0,
            network=network,
            strategy=AuditStrategy(placement, LeastOutstandingSelector(), model),
        )

        def feeder(env):
            for task_id in range(50):
                ops = tuple(
                    Operation(
                        op_id=task_id * 10 + i,
                        task_id=task_id,
                        key=task_id * 10 + i,
                        value_size=100 + 40 * i,
                    )
                    for i in range(4)
                )
                client.submit(
                    Task(
                        task_id=task_id,
                        arrival_time=env.now,
                        client_id=0,
                        operations=ops,
                    )
                )
                yield env.timeout(0.002)

        env.process(feeder(env))
        env.run()
        return audit

    def test_every_request_completed_once(self, audited_run):
        op_ids = [r.op.op_id for r in audited_run]
        assert len(op_ids) == 200
        assert len(set(op_ids)) == 200

    def test_timestamp_trail_ordered(self, audited_run):
        for r in audited_run:
            assert 0 <= r.created_at <= r.dispatched_at <= r.enqueued_at
            assert r.enqueued_at <= r.service_start_at <= r.completed_at

    def test_network_delay_exact(self, audited_run):
        for r in audited_run:
            assert r.enqueued_at - r.dispatched_at == pytest.approx(1e-3)

    def test_server_assignment_is_replica(self, audited_run):
        placement = RingPlacement(n_servers=3, replication_factor=2)
        for r in audited_run:
            assert r.server_id in placement.replicas_of(r.partition)


class TestEndToEndConservation:
    @pytest.mark.parametrize(
        "strategy", ["c3", "equalmax-credits", "unifincr-model"]
    )
    def test_requests_served_equals_ops_generated(self, strategy):
        cfg = ExperimentConfig(strategy=strategy, n_tasks=300, n_keys=2000)
        result = run_experiment(cfg, seed=5)
        expected_ops = sum(
            t.fanout for t in cfg.workload().generate(seed=5)
        )
        assert result.requests_served == expected_ops

    def test_utilization_close_to_configured_load(self):
        """Long oblivious run: server utilization ~= 70% (trailing idle
        drain pulls it slightly below)."""
        cfg = ExperimentConfig(strategy="oblivious-lor", n_tasks=4000)
        result = run_experiment(cfg, seed=1)
        assert 0.55 < result.extras["mean_server_utilization"] < 0.78

    def test_virtual_duration_matches_arrival_rate(self):
        cfg = ExperimentConfig(strategy="oblivious-random", n_tasks=2000)
        result = run_experiment(cfg, seed=2)
        expected = cfg.workload().task_rate
        implied = result.tasks_completed / result.sim_duration
        assert implied == pytest.approx(expected, rel=0.15)
