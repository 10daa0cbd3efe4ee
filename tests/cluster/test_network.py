"""Unit tests for the network model: delays, ordering, registration."""

import pytest

from repro.cluster import ConstantLatency, JitteredLatency, Network
from repro.sim import Environment, Stream


def make_network(latency=None):
    env = Environment()
    return env, Network(env, latency=latency, stream=Stream(0, "net"))


class TestLatencyModels:
    def test_constant_default_is_paper_value(self):
        model = ConstantLatency()
        assert model.sample(Stream(1)) == 50e-6
        assert model.mean() == 50e-6

    def test_constant_validates(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_jittered_respects_floor(self):
        model = JitteredLatency(mean=50e-6, sigma=1.0, floor=10e-6)
        stream = Stream(2)
        assert all(model.sample(stream) >= 10e-6 for _ in range(2000))

    def test_jittered_mean(self):
        model = JitteredLatency(mean=50e-6, sigma=0.3, floor=0.0)
        stream = Stream(3)
        n = 50_000
        mean = sum(model.sample(stream) for _ in range(n)) / n
        assert mean == pytest.approx(50e-6, rel=0.05)

    def test_jittered_validates(self):
        with pytest.raises(ValueError):
            JitteredLatency(mean=0.0)
        with pytest.raises(ValueError):
            JitteredLatency(mean=1.0, floor=2.0)


class TestDelivery:
    def test_message_arrives_after_one_way_latency(self):
        env, net = make_network(ConstantLatency(1.0))
        inbox = []
        net.register("dst", inbox.append)
        net.send("src", "dst", "hello")
        env.run()
        assert inbox == ["hello"]
        assert env.now == 1.0

    def test_unknown_destination_raises(self):
        _, net = make_network()
        with pytest.raises(KeyError):
            net.send("src", "nowhere", "msg")

    def test_duplicate_registration_rejected(self):
        _, net = make_network()
        net.register("a", lambda m: None)
        with pytest.raises(ValueError):
            net.register("a", lambda m: None)

    def test_fifo_per_pair_under_jitter(self):
        env, net = make_network(JitteredLatency(mean=1.0, sigma=1.5, floor=0.01))
        inbox = []
        net.register("dst", inbox.append)
        for i in range(50):
            net.send("src", "dst", i)
        env.run()
        assert inbox == list(range(50))

    def test_messages_counted(self):
        env, net = make_network()
        net.register("dst", lambda m: None)
        for _ in range(3):
            net.send("src", "dst", "x")
        env.run()
        assert net.messages_sent == 3

    def test_send_returns_delivery_time(self):
        env, net = make_network(ConstantLatency(0.25))
        net.register("dst", lambda m: None)
        assert net.send("src", "dst", "x") == 0.25
