"""Unit tests for ASCII chart rendering."""

import pytest

from repro.analysis import cdf_sketch, grouped_bar_chart


class TestBarChart:
    """One group's bars (the grouped renderer is the only bar chart left)."""

    def test_bars_scale_with_values(self):
        out = grouped_bar_chart({"g": {"a": 1.0, "b": 2.0}}, width=20)
        _header, line_a, line_b = out.splitlines()
        assert line_b.count("#") > line_a.count("#")
        assert line_b.count("#") == 20

    def test_title(self):
        out = grouped_bar_chart({"g": {"a": 1.0}}, title="T")
        assert out.splitlines()[0] == "T"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            grouped_bar_chart({})

    def test_nonpositive_peak_rejected(self):
        with pytest.raises(ValueError):
            grouped_bar_chart({"g": {"a": 0.0}})

    def test_tiny_values_get_minimum_bar(self):
        out = grouped_bar_chart({"g": {"a": 1e-9, "b": 1.0}})
        assert out.splitlines()[1].count("#") >= 1


class TestGroupedBarChart:
    def test_groups_rendered(self):
        out = grouped_bar_chart(
            {
                "p50": {"c3": 4.0, "brb": 1.3},
                "p99": {"c3": 14.0, "brb": 7.0},
            }
        )
        assert "-- p50 --" in out and "-- p99 --" in out
        assert out.count("c3") == 2

    def test_global_scale_shared(self):
        out = grouped_bar_chart(
            {"g1": {"x": 1.0}, "g2": {"x": 2.0}}, width=30
        )
        lines = [l for l in out.splitlines() if "#" in l]
        assert lines[1].count("#") == 30
        assert lines[0].count("#") == 15

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            grouped_bar_chart({})


class TestCdfSketch:
    def test_renders_grid(self):
        points = [(0.001 * (i + 1), (i + 1) / 10) for i in range(10)]
        out = cdf_sketch(points, rows=8, width=40)
        lines = out.splitlines()
        assert len(lines) == 8 + 2  # grid + axis + labels
        assert "*" in out

    def test_log_axis_labels(self):
        points = [(0.001, 0.5), (1.0, 1.0)]
        out = cdf_sketch(points)
        assert "10^" in out

    def test_linear_axis(self):
        points = [(1.0, 0.5), (2.0, 1.0)]
        out = cdf_sketch(points, log_x=False)
        assert "10^" not in out

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            cdf_sketch([(1.0, 1.0)])

    def test_log_requires_positive(self):
        with pytest.raises(ValueError):
            cdf_sketch([(0.0, 0.5), (1.0, 1.0)], log_x=True)
