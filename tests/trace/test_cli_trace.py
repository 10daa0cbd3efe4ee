"""CLI tests for the span-trace workflow: record, analyse, diff."""

import json

import pytest

from repro.cli import main


def record(path, strategy, extra=()):
    return main([
        "run", "--scenario", "hot-shard", "--strategy", strategy,
        "--tasks", "300", "--trace-out", str(path), *extra,
    ])


class TestRecordFlags:
    def test_trace_out_implies_full_sampling(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert record(path, "c3") == 0
        out = capsys.readouterr().out
        assert "span tree(s)" in out
        # 300 tasks minus 5% warmup, all sampled.
        meta = json.loads(path.read_text().splitlines()[0])
        assert meta["kind"] == "meta"
        assert meta["sample"] == 1.0
        assert meta["warmup_tasks"] == 15

    def test_explicit_sample_rate_is_respected(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert record(path, "c3", ("--trace-sample", "0.25")) == 0
        capsys.readouterr()
        meta = json.loads(path.read_text().splitlines()[0])
        assert meta["sample"] == 0.25

    def test_multi_seed_appends_per_seed_blocks(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert record(path, "c3", ("--seeds", "2")) == 0
        capsys.readouterr()
        metas = [
            json.loads(line) for line in path.read_text().splitlines()
            if json.loads(line)["kind"] == "meta"
        ]
        assert [m["seed"] for m in metas] == [1, 2]

    def test_bad_sample_rate_is_a_clean_config_error(self, capsys):
        assert main([
            "run", "--strategy", "c3", "--tasks", "50",
            "--trace-sample", "1.5",
        ]) == 2
        assert "trace_sample" in capsys.readouterr().err

    def test_run_trace_out_with_zero_sample_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        """An artifact that could hold no span tree is refused up front."""

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr("repro.harness.parallel.run_experiment", no_run)
        path = tmp_path / "t.jsonl"
        assert record(path, "c3", ("--trace-sample", "0")) == 2
        assert "--trace-out needs a --trace-sample above 0" in (
            capsys.readouterr().err
        )
        assert not path.exists()

    def test_loadgen_trace_out_with_zero_sample_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_connection(*args, **kwargs):
            raise AssertionError("a connection was attempted")

        monkeypatch.setattr("repro.loadgen.run_live_seeds", no_connection)
        path = tmp_path / "t.jsonl"
        assert main([
            "loadgen", "--strategy", "c3", "--tasks", "10", "--port", "1",
            "--trace-out", str(path), "--trace-sample", "0",
        ]) == 2
        assert "--trace-out needs a --trace-sample above 0" in (
            capsys.readouterr().err
        )
        assert not path.exists()


class TestAnalysisCommands:
    def make_artifacts(self, tmp_path, capsys):
        a = tmp_path / "c3.jsonl"
        b = tmp_path / "credits.jsonl"
        assert record(a, "c3") == 0
        assert record(b, "unifincr-credits") == 0
        capsys.readouterr()
        return a, b

    def test_attribution_table(self, tmp_path, capsys):
        a, b = self.make_artifacts(tmp_path, capsys)
        assert main(["trace", "attribution", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "c3 / hot-shard" in out
        assert "unifincr-credits / hot-shard" in out
        assert "queue_wait" in out
        assert "partition" in out

    def test_attribution_json_shares_sum_to_one(self, tmp_path, capsys):
        a, _ = self.make_artifacts(tmp_path, capsys)
        assert main(["trace", "attribution", str(a), "--json"]) == 0
        (result,) = json.loads(capsys.readouterr().out)
        assert result["strategy"] == "c3"
        assert sum(result["shares"].values()) == pytest.approx(1.0)

    def test_slowest_dump(self, tmp_path, capsys):
        a, _ = self.make_artifacts(tmp_path, capsys)
        assert main(["trace", "slowest", str(a), "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 slowest traces" in out
        assert "trace_id=0x" in out

    def test_diff_two_groups(self, tmp_path, capsys):
        a, b = self.make_artifacts(tmp_path, capsys)
        assert main(["trace", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "A=c3/hot-shard" in out
        assert "B=unifincr-credits/hot-shard" in out
        assert "B-A" in out

    def test_diff_with_selectors(self, tmp_path, capsys):
        a, b = self.make_artifacts(tmp_path, capsys)
        assert main([
            "trace", "diff", str(a), str(b),
            "--a", "unifincr-credits", "--b", "c3/hot-shard",
        ]) == 0
        assert "A=unifincr-credits" in capsys.readouterr().out

    def test_diff_refuses_ambiguous_input(self, tmp_path, capsys):
        a, _ = self.make_artifacts(tmp_path, capsys)
        assert main(["trace", "diff", str(a)]) == 2
        assert "exactly" in capsys.readouterr().err

    def test_realms_stay_separate_groups(self, tmp_path, capsys):
        """A simulated and a live artifact of one cell are two groups, so
        the sim-vs-live diff needs no selectors and an ambiguous selector
        names the realms it could mean."""
        sim, _ = self.make_artifacts(tmp_path, capsys)
        live = tmp_path / "live.jsonl"
        lines = sim.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["realm"] == "sim"
        live.write_text(
            "\n".join([json.dumps({**meta, "realm": "live"}), *lines[1:]]) + "\n"
        )
        assert main(["trace", "attribution", str(sim), str(live), "--json"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert len(results) == 2
        assert results[0]["n_traces"] == results[1]["n_traces"] == len(lines) - 1
        assert main(["trace", "diff", str(sim), str(live)]) == 0
        assert "realms: A=live  B=sim" in capsys.readouterr().out
        assert main([
            "trace", "diff", str(sim), str(live), "--a", "c3", "--b", "c3",
        ]) == 2
        assert "c3/hot-shard (live), c3/hot-shard (sim)" in capsys.readouterr().err

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["trace", "attribution", str(tmp_path / "nope.jsonl")]) == 2
        assert "bad trace artifact" in capsys.readouterr().err

    def test_corrupt_artifact_names_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "what"}\n', encoding="utf-8")
        assert main(["trace", "slowest", str(bad)]) == 2
        assert "bad.jsonl:1" in capsys.readouterr().err


class TestWatchFlags:
    def test_json_and_prometheus_are_mutually_exclusive(self, capsys):
        assert main([
            "watch", "--json", "--prometheus", "--count", "1",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_watch_refuses_unreachable_server(self, capsys):
        assert main(["watch", "--port", "1", "--count", "1"]) == 1
        assert "watch failed" in capsys.readouterr().err
