"""Tests for the figure regeneration entry points.

Figure 1 is fully deterministic and asserted exactly.  Figure 2 at test
scale only checks plumbing (the benchmark asserts the paper's shape at
full scale).
"""

import re

import pytest

from repro.harness import FIGURE2_STRATEGIES, figure1_toy, figure2, render_figure2


class TestFigure1:
    """The paper's worked example, reproduced exactly.

    "doing otherwise results in a suboptimal schedule where T2 completes
    in 2 time units whereas in the optimal schedule the completion time of
    T2 is just 1 time unit."
    """

    def test_oblivious_schedule(self):
        result = figure1_toy(task_aware=False)
        assert result.t1_completion == pytest.approx(2.0)
        assert result.t2_completion == pytest.approx(2.0)

    @pytest.mark.parametrize("assigner", ["unifincr", "equalmax"])
    def test_task_aware_schedule(self, assigner):
        result = figure1_toy(task_aware=True, assigner_name=assigner)
        assert result.t1_completion == pytest.approx(2.0)  # B,C serialize
        assert result.t2_completion == pytest.approx(1.0)  # the paper's win


class TestFigure2Plumbing:
    @pytest.fixture(scope="class")
    def tiny(self):
        return figure2(n_tasks=300, seeds=(1,), n_keys=2000)

    def test_strategies_present(self, tiny):
        assert tuple(tiny.strategies) == FIGURE2_STRATEGIES

    def test_render_has_every_ratio_table(self, tiny):
        text = render_figure2(tiny, 300, (1,))
        assert text.startswith("Figure 2 reproduction -- 300 tasks x 1 seeds")
        labels = [
            "C3 / EqualMax-credits",
            "C3 / UnifIncr-credits",
            "EqualMax credits/model (paper <= 1.38 @ p99)",
            "UnifIncr credits/model",
        ]
        tables = text.split("\n\n")[-len(labels):]
        for label, table in zip(labels, tables):
            header, _, *rows = table.splitlines()
            assert header.split() == ["percentile", *label.split()]
            ratios = [re.fullmatch(r"\s*(p\d+)\s+(\S+)x", row).groups() for row in rows]
            assert [p for p, _ in ratios] == ["p50", "p95", "p99"]
            assert all(float(value) > 0 for _, value in ratios)

    def test_speedup_computable(self, tiny):
        ratios = tiny.speedup("c3", "equalmax-model")
        assert set(ratios) == {50.0, 95.0, 99.0}
