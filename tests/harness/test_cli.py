"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--strategy", "warp-drive"])


class TestCommands:
    def test_strategies_lists_all(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        assert "c3" in out and "unifincr-credits" in out
        assert "*" in out  # figure-2 markers

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "task-oblivious" in out and "task-aware" in out
        assert "1.0" in out and "2.0" in out

    def test_run_small(self, capsys):
        assert main([
            "run", "--strategy", "oblivious-random", "--tasks", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "oblivious-random" in out
        assert "p99" in out

    def test_run_with_slowdown(self, capsys):
        assert main([
            "run", "--strategy", "oblivious-lor", "--tasks", "200",
            "--slow-server", "0",
        ]) == 0
        assert "slowdown_windows" in capsys.readouterr().out

    def test_run_scenario_straggler(self, capsys):
        assert main([
            "run", "--scenario", "straggler", "--strategy", "oblivious-lor",
            "--tasks", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "[straggler]" in out
        assert "fault: slowdown x4" in out
        assert "slowdown_windows" in out

    def test_run_scenario_overrides_compose(self, capsys):
        assert main([
            "run", "--scenario", "hotspot-skew", "--strategy",
            "oblivious-random", "--tasks", "200", "--load", "0.5",
        ]) == 0
        assert "load=50%" in capsys.readouterr().out

    def test_run_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "nope"])

    def test_scenarios_lists_registry(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("steady-state", "straggler", "recurring-gc",
                     "flash-crowd", "hotspot-skew", "heterogeneous-cluster"):
            assert name in out

    def test_scenarios_verbose_shows_faults(self, capsys):
        assert main(["scenarios", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "fault:" in out

    @pytest.mark.parametrize("command", ["attribution", "slowest", "diff"])
    @pytest.mark.parametrize(
        "content",
        [None, "", "not json\n", '{"format": "other"}\n'],
        ids=["missing", "empty", "not-json", "foreign"],
    )
    def test_trace_artifact_bad_file_is_a_usage_error(
        self, tmp_path, capsys, content, command
    ):
        path = tmp_path / "t.jsonl"
        if content is not None:
            path.write_text(content)
        assert main(["trace", command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "bad trace artifact" in err or "no trace groups" in err

    @pytest.mark.parametrize(
        "flag, value", [("--fanout", "0.5"), ("--tasks", "-3")]
    )
    def test_run_bad_value_is_a_bad_configuration(
        self, capsys, monkeypatch, flag, value
    ):
        """A workload value no config accepts exits 2 before any run."""

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr("repro.harness.parallel.run_experiment", no_run)
        assert main(["run", "--strategy", "c3", flag, value]) == 2
        assert "bad configuration" in capsys.readouterr().err

    def test_run_single_seed_honors_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["run", "--strategy", "oblivious-random", "--tasks", "150",
                "--cache", str(cache_dir)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second  # cached cell reproduces the run exactly
        assert any(cache_dir.rglob("*.pkl"))

    def test_run_multi_seed_with_jobs(self, capsys):
        assert main([
            "run", "--strategy", "oblivious-random", "--tasks", "150",
            "--seeds", "2", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "seeds 1..2" in out
        assert "p99 across seeds" in out

    def test_sweep_serial(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        assert main([
            "sweep", "--parameter", "load", "--values", "0.4,0.7",
            "--strategies", "oblivious-random,oblivious-lor",
            "--tasks", "150", "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "sweep over load" in out
        data = json.loads(out_path.read_text())
        assert data["values"] == [0.4, 0.7]
        assert set(data["points"]) == {"0.4", "0.7"}

    def test_sweep_parallel_with_cache_matches_serial(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        argv_tail = [
            "--parameter", "load", "--values", "0.5",
            "--strategies", "oblivious-random", "--tasks", "150",
        ]
        assert main(["sweep", *argv_tail, "--out", str(serial_out)]) == 0
        assert main([
            "sweep", *argv_tail, "--jobs", "2",
            "--cache", str(cache_dir), "--out", str(parallel_out),
        ]) == 0
        assert "cache: 0 hits, 1 misses, 1 stores" in capsys.readouterr().out
        assert json.loads(serial_out.read_text()) == json.loads(
            parallel_out.read_text()
        )
        # Third run: every cell served from cache.
        assert main([
            "sweep", *argv_tail, "--cache", str(cache_dir),
        ]) == 0
        assert "cache: 1 hits, 0 misses, 0 stores" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--parameter", "load", "--values", "0.5,-1"],
            ["--parameter", "mean_fanout", "--values", "4,0.5"],
            ["--scenario", "hotspot-skew", "--parameter", "zipf_skew",
             "--values", "0.9,0"],
            ["--parameter", "congestion_check_interval", "--values", "0.1,-1"],
        ],
        ids=["load", "mean_fanout", "scenario-zipf_skew",
             "congestion_check_interval"],
    )
    def test_sweep_bad_value_is_a_bad_configuration(self, argv, capsys, monkeypatch):
        """A swept value no config accepts exits 2 before any cell runs."""

        def no_run(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("repro.harness.parallel.run_experiment", no_run)
        assert main([
            "sweep", *argv, "--strategies", "c3", "--tasks", "300",
        ]) == 2
        assert "bad configuration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure2", "--tasks", "0"],
            ["figure2", "--seeds", "0", "--tasks", "300"],
            ["compare", "--scenario", "steady-state", "--strategy", "c3",
             "--tasks", "0"],
            ["firehose", "--multigets", "0"],
            ["ring", "--keys", "0"],
            ["run", "--seeds", "0", "--tasks", "300"],
        ],
        ids=["figure2-tasks", "figure2-seeds", "compare-tasks",
             "firehose-multigets", "ring-keys", "run-seeds"],
    )
    def test_bad_count_is_a_usage_error(self, argv, capsys):
        """A count below 1 exits 2 with a one-line message: no traceback,
        and no run under a silently corrected value."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["firehose", "--fanout", "0"],
            ["firehose", "--window", "0"],
            ["loadgen", "--seeds", "0"],
            ["compare", "--scenario", "steady-state", "--strategy", "c3",
             "--seeds", "0"],
        ],
        ids=["firehose-fanout", "firehose-window", "loadgen-seeds",
             "compare-seeds"],
    )
    def test_bad_count_fails_before_any_connection(self, argv, capsys, monkeypatch):
        """The other count flags share the same check, and it runs before
        the command resolves or dials an endpoint."""

        def no_dial(args):
            raise AssertionError("an endpoint was resolved")

        monkeypatch.setattr("repro.cli._endpoints_from", no_dial)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip() == f"{argv[-2]} must be at least 1"

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--port", "70000"],
            ["serve", "--port", "-1"],
            ["serve", "--procs", "2", "--port", "65535"],
            ["serve", "--port", "0", "--metrics-port", "70000"],
            ["watch", "--port", "70000"],
            ["watch", "--port", "0"],
            ["loadgen", "--tasks", "10", "--endpoints", "127.0.0.1:70000"],
            ["firehose", "--endpoints", "127.0.0.1:7411,127.0.0.1:70000"],
            ["firehose", "--endpoints", "127.0.0.1:0"],
        ],
        ids=["serve-port", "serve-negative-port", "serve-procs-past-the-top",
             "serve-metrics-port", "watch-port", "watch-port-zero",
             "loadgen-endpoints", "firehose-endpoints", "firehose-port-zero"],
    )
    def test_out_of_range_port_is_a_usage_error(self, argv, capsys):
        """A port outside 1..65535 (0..65535 where it is bound: 0 is
        ephemeral) exits 2 with a one-line message before any socket is
        touched, not with the socket layer's OverflowError traceback."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().count("\n") == 0
        assert "..65535" in err

    def test_sweep_scenario_base(self, capsys):
        assert main([
            "sweep", "--scenario", "hotspot-skew", "--parameter", "zipf_skew",
            "--values", "0.9,1.1", "--strategies", "oblivious-random",
            "--tasks", "150",
        ]) == 0
        assert "sweep over zipf_skew" in capsys.readouterr().out

    def test_figure2_tiny(self, tmp_path, capsys):
        out_path = tmp_path / "fig2.json"
        assert main([
            "figure2", "--tasks", "200", "--seeds", "1", "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "equalmax-credits" in out
        data = json.loads(out_path.read_text())
        assert set(data["strategies"]) == {
            "c3", "equalmax-credits", "equalmax-model",
            "unifincr-credits", "unifincr-model",
        }


class TestScenariosJson:
    def test_json_listing_is_machine_readable(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert isinstance(data, list) and len(data) >= 8
        by_name = {entry["name"]: entry for entry in data}
        assert "steady-state" in by_name and "straggler" in by_name
        straggler = by_name["straggler"]
        assert straggler["faults"][0]["kind"] == "slowdown"
        assert straggler["faults"][0]["factor"] == 4.0
        assert by_name["flash-crowd"]["config_overrides"]["load"] == 0.60

    def test_infinite_durations_stay_json_safe(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        hetero = next(e for e in data if e["name"] == "heterogeneous-cluster")
        assert hetero["faults"][0]["duration"] == "inf"


class TestCacheCommand:
    def _populate(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main([
            "run", "--strategy", "oblivious-random", "--tasks", "100",
            "--cache", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        return cache_dir

    def test_stats_reports_entries_and_bytes(self, tmp_path, capsys):
        cache_dir = self._populate(tmp_path, capsys)
        assert main(["cache", "stats", "--dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out
        assert "digest_prefix" in out

    def test_clear_then_stats_empty_and_idempotent(self, tmp_path, capsys):
        cache_dir = self._populate(tmp_path, capsys)
        assert main(["cache", "clear", "--dir", str(cache_dir)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "clear", "--dir", str(cache_dir)]) == 0
        assert "removed 0" in capsys.readouterr().out  # idempotent
        assert main(["cache", "stats", "--dir", str(cache_dir)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_stats_on_missing_dir_is_empty(self, tmp_path, capsys):
        assert main(["cache", "stats", "--dir", str(tmp_path / "nope")]) == 0
        assert "0 entries" in capsys.readouterr().out


class TestLiveCommands:
    def test_loadgen_refuses_unreachable_server(self, capsys):
        # Port 1 on loopback: nothing listens there.
        code = main([
            "loadgen", "--scenario", "steady-state", "--tasks", "10",
            "--port", "1",
        ])
        assert code == 1
        assert "loadgen failed" in capsys.readouterr().err

    def test_compare_rejects_unknown_strategy(self, capsys):
        assert main([
            "compare", "--strategy", "c3,warp-drive", "--tasks", "10",
        ]) == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_loadgen_rejects_model_strategies(self, capsys):
        assert main([
            "loadgen", "--strategy", "unifincr-model", "--tasks", "10",
        ]) == 2
        assert "unrealizable" in capsys.readouterr().err

    def test_compare_rejects_model_strategies_before_any_run(self, capsys):
        assert main([
            "compare", "--strategy", "c3,unifincr-model", "--tasks", "10",
        ]) == 2
        err = capsys.readouterr().err
        assert "unrealizable" in err
