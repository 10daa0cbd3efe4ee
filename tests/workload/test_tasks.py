"""Unit tests for tasks, the value-size registry and the generator."""

import pytest

from repro.sim import Stream, StreamFactory
from repro.workload import (
    Operation,
    PoissonArrivals,
    Task,
    TaskGenerator,
    ValueSizeRegistry,
    ZipfPopularity,
    atikoglu_etc,
    trace_stats,
)


class FixedFanout:
    """Stub fan-out: every task has exactly ``n`` requests."""

    def __init__(self, n):
        self.n = n

    def sample(self, stream):
        return self.n


class UniformValueSize:
    """Stub sizes from ``Random.randint`` (one draw per key)."""

    def sample(self, stream):
        return stream.randint(10, 5000)


class GaussValueSize:
    """Sizes from ``Random.gauss``, which keeps the second of each pair of
    normals for the next call: a reseed that left it behind would hand one
    key's spare normal to the next key."""

    def sample(self, stream):
        return max(1, int(stream.gauss(1000.0, 100.0)))


def make_generator(seed=1, fanout=4, n_keys=1000, n_clients=3, rate=100.0):
    streams = StreamFactory(seed)
    return TaskGenerator(
        fanout=FixedFanout(fanout),
        popularity=ZipfPopularity(n_keys),
        value_sizes=ValueSizeRegistry(atikoglu_etc(), seed=seed),
        arrivals=PoissonArrivals(rate),
        n_clients=n_clients,
        streams=streams,
    )


class TestDataModel:
    def test_operation_validates_size(self):
        with pytest.raises(ValueError):
            Operation(op_id=0, task_id=0, key=1, value_size=0)

    def test_task_requires_operations(self):
        with pytest.raises(ValueError):
            Task(task_id=0, arrival_time=0.0, client_id=0, operations=())

    def test_task_rejects_negative_arrival(self):
        op = Operation(op_id=0, task_id=0, key=1, value_size=10)
        with pytest.raises(ValueError):
            Task(task_id=0, arrival_time=-1.0, client_id=0, operations=(op,))

    def test_task_aggregates(self):
        ops = tuple(
            Operation(op_id=i, task_id=0, key=i, value_size=100) for i in range(4)
        )
        task = Task(task_id=0, arrival_time=1.0, client_id=0, operations=ops)
        assert task.fanout == 4
        assert task.total_bytes == 400
        assert task.keys() == [0, 1, 2, 3]


class TestValueSizeRegistry:
    def test_consistent_per_key(self):
        reg = ValueSizeRegistry(atikoglu_etc(), seed=42)
        assert reg[7] == reg[7]

    def test_deterministic_across_instances(self):
        a = ValueSizeRegistry(atikoglu_etc(), seed=42)
        b = ValueSizeRegistry(atikoglu_etc(), seed=42)
        assert [a[k] for k in range(100)] == [b[k] for k in range(100)]

    def test_different_seeds_differ(self):
        a = ValueSizeRegistry(atikoglu_etc(), seed=1)
        b = ValueSizeRegistry(atikoglu_etc(), seed=2)
        assert [a[k] for k in range(50)] != [b[k] for k in range(50)]

    def test_len_counts_distinct_keys(self):
        reg = ValueSizeRegistry(atikoglu_etc(), seed=1)
        reg[1]
        reg[1]
        reg[2]
        assert len(reg) == 2

    @staticmethod
    def _fresh_draw(distribution, seed, key):
        """The determinism mechanism: one generator per key, seeded by it."""
        key_seed = seed ^ (key * 0x9E3779B97F4A7C15 % (1 << 61))
        return distribution.sample(Stream(key_seed, f"value:{key}"))

    @pytest.mark.parametrize(
        "distribution",
        [atikoglu_etc(), UniformValueSize(), GaussValueSize()],
        ids=["gpareto", "uniform", "gauss"],
    )
    def test_size_is_the_keys_own_stream_in_any_access_order(self, distribution):
        keys = [0, 1, 7, 99_999, 2**40 + 3, 31_337]
        forward = ValueSizeRegistry(distribution, seed=42)
        backward = ValueSizeRegistry(distribution, seed=42)
        crowded = ValueSizeRegistry(distribution, seed=42)
        for other in range(100_000, 110_000):  # 10k other keys drawn first
            crowded[other]
        expected = [self._fresh_draw(distribution, 42, key) for key in keys]
        assert [forward[key] for key in keys] == expected
        assert [backward[key] for key in reversed(keys)] == expected[::-1]
        assert [crowded[key] for key in keys] == expected
        # Re-reads come from the memo, not from another draw.
        assert [forward[key] for key in keys] == expected
        assert len(forward) == len(keys)
        # A thousand keys in a row: each one's size is its own fresh stream's.
        many = range(5_000, 6_000)
        assert [forward[key] for key in many] == [
            self._fresh_draw(distribution, 42, key) for key in many
        ]


class TestTaskGenerator:
    def test_ids_unique_and_sequential(self):
        gen = make_generator()
        tasks = gen.generate(10)
        assert [t.task_id for t in tasks] == list(range(10))
        op_ids = [op.op_id for t in tasks for op in t.operations]
        assert op_ids == list(range(len(op_ids)))

    def test_arrivals_increase(self):
        tasks = make_generator().generate(100)
        times = [t.arrival_time for t in tasks]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_clients_in_range(self):
        tasks = make_generator(n_clients=3).generate(200)
        assert {t.client_id for t in tasks} <= {0, 1, 2}

    def test_rejects_nonpositive_n_clients(self):
        with pytest.raises(ValueError, match="n_clients"):
            make_generator(n_clients=0)

    def test_keys_distinct_within_task(self):
        tasks = make_generator(fanout=8).generate(100)
        for t in tasks:
            assert len(set(t.keys())) == t.fanout

    def test_deterministic_given_seed(self):
        t1 = make_generator(seed=5).generate(20)
        t2 = make_generator(seed=5).generate(20)
        assert [t.keys() for t in t1] == [t.keys() for t in t2]
        assert [t.arrival_time for t in t1] == [t.arrival_time for t in t2]

    def test_fanout_capped_by_keyspace(self):
        gen = make_generator(fanout=100, n_keys=10)
        task = gen.next_task()
        assert task.fanout == 10

    def test_value_sizes_consistent_across_tasks(self):
        gen = make_generator(n_keys=5, fanout=5)
        t1, t2 = gen.generate(2)
        sizes1 = {op.key: op.value_size for op in t1.operations}
        sizes2 = {op.key: op.value_size for op in t2.operations}
        for key in set(sizes1) & set(sizes2):
            assert sizes1[key] == sizes2[key]


class TestTraceStats:
    def test_stats_shape(self):
        tasks = make_generator(fanout=4, rate=100.0).generate(200)
        stats = trace_stats(tasks)
        assert stats["n_tasks"] == 200
        assert stats["mean_fanout"] == pytest.approx(4.0)
        assert stats["task_rate"] == pytest.approx(100.0, rel=0.3)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            trace_stats([])


class TestBufferedDistinctKeys:
    """The generator's buffered key path must mirror ``sample_distinct``.

    There is exactly one copy of the distinct-key algorithm
    (``PopularityModel.sample_distinct``); the generator only swaps in a
    block-buffered draw source via the ``next_key`` parameter.  These
    tests pin that the buffered source is draw-for-draw identical to
    unbuffered sampling on the same stream, including the dense-fallback
    edge.
    """

    def test_matches_sample_distinct_draw_for_draw(self):
        generator = make_generator(n_keys=300)
        popularity = generator.popularity
        generator._key_stream = Stream(7)
        reference_stream = Stream(7)
        # Mixed counts, repeated small draws, and n_keys itself (which
        # exhausts the attempt limit and exercises the dense fallback).
        for count in (1, 3, 5, 2, 8, 1, 4, 300, 2):
            assert generator._distinct_keys(count) == popularity.sample_distinct(
                reference_stream, count
            )

    def test_rejects_overlarge_count_like_sample_distinct(self):
        generator = make_generator(n_keys=10)
        with pytest.raises(ValueError):
            generator._distinct_keys(11)

    def test_custom_sample_distinct_override_is_honored(self):
        """The generator asks its popularity model for a task's keys, so a
        model overriding sample_distinct decides them (its semantics win
        over the buffered draw source it is handed)."""

        class EvenKeysOnly(ZipfPopularity):
            def sample_distinct(self, stream, count, next_key=None):
                return [2 * i for i in range(count)]

        generator = TaskGenerator(
            fanout=FixedFanout(3),
            popularity=EvenKeysOnly(1000),
            value_sizes=ValueSizeRegistry(atikoglu_etc(), seed=1),
            arrivals=PoissonArrivals(100.0),
            n_clients=2,
            streams=StreamFactory(1),
        )
        task = generator.next_task()
        assert [op.key for op in task.operations] == [0, 2, 4]
