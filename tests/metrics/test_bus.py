"""Unit tests for the Prometheus rendering and the bus-report fold."""

import re

from repro.metrics.bus import (
    escape_help_text,
    escape_label_value,
    merge_reports,
    prometheus_line,
    render_prometheus,
    render_stats,
)

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_COMMENT_RE = re.compile(rf"^# (HELP|TYPE) {_NAME} .+$")
_SAMPLE_RE = re.compile(
    rf"^({_NAME})(?:\{{{_NAME}=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\""
    rf"(?:,{_NAME}=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\")*\}})? "
    r"[0-9eE+\-.naif]+$"
)


def validate_exposition(text):
    """Assert ``text`` is well-formed Prometheus exposition format.

    Every line parses as a comment or a sample; every sample's family
    has a ``# TYPE`` line; all samples of a family are contiguous (the
    format forbids interleaving groups).
    """
    assert text.endswith("\n")
    typed = set()
    family_order = []
    for line in text.splitlines():
        if line.startswith("#"):
            match = _COMMENT_RE.match(line)
            assert match, f"malformed comment line: {line!r}"
            if match.group(1) == "TYPE":
                typed.add(line.split()[2])
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        family = match.group(1)
        if not family_order or family_order[-1] != family:
            family_order.append(family)
    assert set(family_order) <= typed, (
        f"families missing TYPE lines: {set(family_order) - typed}"
    )
    assert len(family_order) == len(set(family_order)), (
        f"interleaved metric families: {family_order}"
    )


class TestPrometheusRendering:
    def test_line_with_and_without_labels(self):
        assert prometheus_line("x_total", 3.0) == "x_total 3.0"
        line = prometheus_line("depth", 2.0, {"server": 1})
        assert line == 'depth{server="1"} 2.0'

    def test_render_sanitizes_and_prefixes_keys(self):
        text = render_prometheus({"p99 (ms)": 1.5})
        assert text.splitlines() == [
            "# HELP repro_p99__ms_ repro metric p99__ms_",
            "# TYPE repro_p99__ms_ gauge",
            "repro_p99__ms_ 1.5",
        ]
        assert text.endswith("\n")


class TestExpositionEscaping:
    def test_label_values_escape_the_three_special_characters(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        assert escape_label_value(7) == "7"

    def test_help_text_escapes_backslash_and_newline(self):
        assert escape_help_text("a\\b\nc") == "a\\\\b\\nc"

    def test_hostile_label_value_stays_one_well_formed_line(self):
        line = prometheus_line("m", 1.0, {"who": 'ev"il\\\n'})
        assert line == 'm{who="ev\\"il\\\\\\n"} 1.0'
        assert "\n" not in line


class TestExpositionFormat:
    """Satellite contract: exported pages parse as valid exposition text."""

    def test_render_prometheus_is_well_formed(self):
        validate_exposition(render_prometheus(
            {"p99 (ms)": 1.5, "served/rate": 2.0, "completed": 7.0},
            labels={"worker": 3},
        ))

    def test_render_prometheus_honors_help_overrides(self):
        text = render_prometheus(
            {"depth": 1.0}, help_texts={"depth": "queue depth\nper worker"}
        )
        assert "# HELP repro_depth queue depth\\nper worker" in text
        validate_exposition(text)


class TestRenderStats:
    """The one renderer of a ``stats`` frame: family names are its keys."""

    FRAME = {
        "t": "stats",
        "completed": 7,
        "connections": 2,
        "uptime_model_s": 1.5,
        "workers": [
            {"worker": 0, "completed": 3, "queued": 1, "lateness_total_s": 0.25},
            {"worker": 5, "completed": 4, "queued": 0, "lateness_total_s": 0.5},
        ],
        "client_bus": {
            "loadgen-2": {"seq": 4, "latency_p99_ms": 9.5, "queue_depths": [0.0]},
            "loadgen-1": {"seq": 9, "latency_p99_ms": 3.0, "completed": 33},
        },
    }

    def test_family_names_are_the_frame_keys(self):
        text = render_stats(self.FRAME)
        validate_exposition(text)
        assert "repro_serve_completed 7\n" in text
        assert 'repro_serve_worker_queued{worker="5"} 0\n' in text
        assert 'repro_client_latency_p99_ms{reporter="loadgen-2"} 9.5\n' in text
        # A field only some reporters carry is a family of those reporters.
        assert text.count("repro_client_completed{") == 1
        # Neither the frame's type, a worker's own id nor a list is a sample.
        assert "repro_serve_t" not in text
        assert "repro_serve_worker_worker" not in text
        assert "queue_depths" not in text

    def test_families_are_typed_once_and_totals_are_counters(self):
        types = [
            line.split()[2:]
            for line in render_stats(self.FRAME).splitlines()
            if line.startswith("# TYPE")
        ]
        names = [name for name, _ in types]
        assert len(names) == len(set(names))
        kinds = dict(types)
        assert kinds["repro_serve_completed"] == "counter"
        assert kinds["repro_serve_worker_lateness_total_s"] == "counter"
        assert kinds["repro_client_completed"] == "counter"
        assert kinds["repro_serve_connections"] == "gauge"
        assert kinds["repro_serve_worker_queued"] == "gauge"
        assert kinds["repro_client_latency_p99_ms"] == "gauge"

    def test_a_frame_without_workers_or_reporters_is_still_a_page(self):
        text = render_stats({"t": "stats", "completed": 0})
        validate_exposition(text)
        assert text.count("# TYPE") == 1


class TestMergeReports:
    def test_the_newest_seq_per_reporter_wins(self):
        merged = {}
        merge_reports(merged, {"a": {"seq": 5}, "b": {"seq": 1}})
        merge_reports(merged, {"a": {"seq": 7, "x": 1}})
        merge_reports(merged, {"a": {"seq": 6}})  # a stale generation
        assert merged == {"a": {"seq": 7, "x": 1}, "b": {"seq": 1}}

    def test_an_equal_seq_is_replaced(self):
        merged = {"a": {"seq": 2, "x": 1}}
        merge_reports(merged, {"a": {"seq": 2, "x": 2}})
        assert merged["a"]["x"] == 2
