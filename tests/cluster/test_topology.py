"""Unit tests for the cluster specification."""

import pytest

from repro.cluster import (
    ClusterSpec,
    ConstantLatency,
    PAPER_CLUSTER,
)
from repro.placement import ConsistentHashRing, RingPlacement


class TestPaperCluster:
    def test_paper_defaults(self):
        assert PAPER_CLUSTER.n_servers == 9
        assert PAPER_CLUSTER.cores_per_server == 4
        assert PAPER_CLUSTER.per_core_rate == 3500.0
        assert PAPER_CLUSTER.one_way_latency == 50e-6

    def test_capacity_arithmetic(self):
        assert PAPER_CLUSTER.server_capacity() == 14_000.0
        caps = PAPER_CLUSTER.server_capacities()
        assert len(caps) == 9
        assert all(v == 14_000.0 for v in caps.values())


class TestFactories:
    def test_ring_placement_by_default(self):
        placement = ClusterSpec().make_placement()
        assert isinstance(placement, RingPlacement)
        placement.validate()

    def test_chash_placement(self):
        placement = ClusterSpec(placement_kind="chash").make_placement()
        assert isinstance(placement, ConsistentHashRing)
        placement.validate()

    def test_latency_model_selection(self):
        """The base network is constant; jitter only comes from a
        ``NetworkJitterFault`` window."""
        model = ClusterSpec(one_way_latency=2e-4).make_latency_model()
        assert isinstance(model, ConstantLatency)
        assert model.mean() == 2e-4


class TestValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_servers=0)
        with pytest.raises(ValueError):
            ClusterSpec(cores_per_server=0)
        with pytest.raises(ValueError):
            ClusterSpec(replication_factor=10)  # > n_servers
        with pytest.raises(ValueError):
            ClusterSpec(per_core_rate=0.0)
        with pytest.raises(ValueError):
            ClusterSpec(one_way_latency=-1.0)
        with pytest.raises(ValueError):
            ClusterSpec(placement_kind="mesh")
