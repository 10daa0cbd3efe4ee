"""Unit tests for the JSONL trace store and critical-path attribution."""

import json
import math

import pytest

from repro.trace import (
    RunTraces,
    Span,
    TaskTrace,
    attribution,
    diff_attributions,
    load_traces,
    render_attribution,
    render_diff,
    render_slowest,
    slowest,
    write_traces,
)


def make_trace(task_id, latency, partition=0, queue_share=0.5, start=0.0):
    """One single-span trace whose queue_wait is ``queue_share`` of latency."""
    end = start + latency
    queue = latency * queue_share
    rest = (latency - queue) / 4.0
    span = Span(
        server=partition, partition=partition, key=task_id, hedge=False,
        created=start, dispatched=start + rest, enqueued=start + 2 * rest,
        service_start=start + 2 * rest + queue,
        completed=start + 3 * rest + queue, end=end,
    )
    return TaskTrace(
        trace_id=task_id, task_id=task_id, client_id=0,
        start=start, end=end, spans=[span],
    )


def make_group(traces, strategy="c3", scenario="hot-shard"):
    return RunTraces(
        strategy=strategy, scenario=scenario, realm="sim", sample=1.0,
        seeds=[1], n_tasks=len(traces), traces=list(traces),
    )


META = {
    "strategy": "c3", "scenario": "hot-shard", "seed": 1, "realm": "sim",
    "sample": 1.0, "n_tasks": 3, "warmup_tasks": 0,
}


class TestJsonlStore:
    def test_write_then_load_roundtrips(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        traces = [make_trace(i, 0.01 * (i + 1)) for i in range(3)]
        assert write_traces(str(path), traces, META) == 3
        (group,) = load_traces([str(path)])
        assert group.key == ("c3", "hot-shard", "sim")
        assert group.realm == "sim"
        assert group.sample == 1.0
        assert group.seeds == [1]
        assert group.n_tasks == 3
        assert group.traces == traces

    def test_append_merges_seeds_into_one_group(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        write_traces(str(path), [make_trace(1, 0.01)], META)
        write_traces(
            str(path), [make_trace(2, 0.02)], {**META, "seed": 2}, append=True
        )
        (group,) = load_traces([str(path)])
        assert group.seeds == [1, 2]
        assert group.n_tasks == 6
        assert len(group.traces) == 2

    def test_files_concatenate_into_groups(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_traces(str(a), [make_trace(1, 0.01)], META)
        write_traces(
            str(b), [make_trace(2, 0.02)], {**META, "strategy": "hedged"}
        )
        groups = load_traces([str(a), str(b)])
        assert [g.key for g in groups] == [
            ("c3", "hot-shard", "sim"), ("hedged", "hot-shard", "sim"),
        ]

    def test_trace_before_meta_is_an_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = {"kind": "trace", **make_trace(1, 0.01).to_dict()}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="before any meta"):
            load_traces([str(path)])

    def test_unknown_kind_is_an_error_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mystery"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.jsonl:1: unknown record"):
            load_traces([str(path)])

    def test_non_json_line_is_an_error_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.jsonl:1: not JSON"):
            load_traces([str(path)])

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        write_traces(str(path), [make_trace(1, 0.01)], META)
        path.write_text(
            path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8"
        )
        (group,) = load_traces([str(path)])
        assert len(group.traces) == 1


class TestAttribution:
    def test_shares_sum_to_one(self):
        group = make_group(
            [make_trace(i, 0.001 * (i + 1)) for i in range(100)]
        )
        result = attribution(group, tail=90.0)
        assert math.isclose(sum(result.shares.values()), 1.0, rel_tol=1e-9)

    def test_tail_selection_uses_the_percentile_threshold(self):
        group = make_group(
            [make_trace(i, 0.001 * (i + 1)) for i in range(100)]
        )
        result = attribution(group, tail=99.0)
        assert result.n_traces == 100
        # Nearest-rank p99 over 1..100 ms lands on 99 ms; traces at or
        # above the threshold form the tail (99 ms and 100 ms).
        assert result.n_tail == 2
        assert result.threshold == pytest.approx(0.099)
        assert result.tail_mean == pytest.approx(0.0995)

    def test_queue_dominated_tail_attributes_to_the_hot_partition(self):
        fast = [make_trace(i, 0.001, queue_share=0.0) for i in range(95)]
        slow = [
            make_trace(100 + i, 0.050, partition=3, queue_share=0.9)
            for i in range(5)
        ]
        result = attribution(make_group(fast + slow), tail=96.0)
        kind, share = result.dominant()
        assert kind == "queue_wait"
        assert share > 0.8
        assert result.queue_by_partition[3] == pytest.approx(share)

    def test_tail_zero_covers_every_trace(self):
        group = make_group([make_trace(i, 0.01) for i in range(10)])
        assert attribution(group, tail=0.0).n_tail == 10

    def test_empty_group_raises(self):
        with pytest.raises(ValueError, match="no traces"):
            attribution(make_group([]))

    def test_bad_tail_raises(self):
        group = make_group([make_trace(1, 0.01)])
        with pytest.raises(ValueError, match="tail percentile"):
            attribution(group, tail=100.0)

    def test_to_dict_is_json_safe(self):
        group = make_group([make_trace(i, 0.01, partition=2) for i in range(4)])
        out = attribution(group, tail=0.0).to_dict()
        json.dumps(out)  # must not raise
        assert out["queue_by_partition"] == {"2": pytest.approx(0.5)}


class TestSlowestAndDiff:
    def test_slowest_orders_by_latency_desc(self):
        group = make_group([make_trace(i, 0.001 * (i + 1)) for i in range(10)])
        picks = slowest(group, k=3)
        assert [t.task_id for t in picks] == [9, 8, 7]

    def test_diff_is_b_minus_a(self):
        a = attribution(
            make_group([make_trace(1, 0.01, queue_share=0.8)]), tail=0.0
        )
        b = attribution(
            make_group(
                [make_trace(1, 0.01, queue_share=0.2)], strategy="hedged"
            ),
            tail=0.0,
        )
        deltas = diff_attributions(a, b)
        assert deltas["queue_wait"] == pytest.approx(-0.6)

    def test_renderers_produce_inspectable_text(self):
        group = make_group([make_trace(i, 0.001 * (i + 1)) for i in range(10)])
        result = attribution(group, tail=50.0)
        table = render_attribution(result)
        assert "c3 / hot-shard" in table
        assert "queue_wait" in table
        assert "partition 0" in table
        dump = render_slowest(group, slowest(group, k=2))
        assert "2 slowest traces" in dump
        assert "trace_id=0x" in dump
        other = attribution(
            make_group(group.traces, strategy="hedged"), tail=50.0
        )
        diff_text = render_diff(result, other)
        assert "A=c3/hot-shard" in diff_text
        assert "B=hedged/hot-shard" in diff_text
        assert "B-A" in diff_text
