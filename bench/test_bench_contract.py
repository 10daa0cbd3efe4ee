"""The benchmark's contract with its driver.  Run: ``python -m pytest bench -q``
(tier-1's ``testpaths`` do not include this directory).

Drives ``run.py --quick`` -- tiny sizes, artifact flagged not comparable --
once per workload and trace mode, and checks that what it prints is what
``BENCHMARK.json`` declares, name for name.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_quick(workload, trace, tmp_path):
    out = tmp_path / "artifact.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1]), json.loads(out.read_text())


def test_contract_file_is_well_formed():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert CONTRACT["paths"] == ["bench"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        # Nothing is widened past 15% except set-up, which gets the largest
        # bound the driver allows, and the p99, whose ten-seed spread on the
        # open loop is 7-10% at the longest run the driver's time cap allows
        # (see README.md, "End-to-end metrics").
        widest = {"setup_s": 0.25, "task_p99_ms": 0.20}.get(metric["name"], 0.15)
        assert 0 < metric["bound"] <= widest
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    # 4 + 22 runs per workload within the cap; a run takes run_seconds plus
    # up to 6 s of import, set-up samples, spins and its last repeat's overrun
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * (CONTRACT["run_seconds"] + 6) <= 3420


def test_list_names_the_contract_workloads():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--list"],
        capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode == 0
    listed = [line for line in done.stdout.splitlines() if not line.startswith(" ")]
    assert listed == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_and_vice_versa(workload, trace, tmp_path):
    line, artifact = run_quick(workload, trace, tmp_path)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = line["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert artifact["comparable"] is False
    assert artifact["envelope"]["nproc"] >= 1
    if trace == 0:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in declared)
        assert {"before", "after"} == set(artifact["calibration_spins_per_s"])
        assert len(artifact["repeats"]) >= 3
        # raw host time rides beside calibrated time, name for name
        assert set(artifact["metrics_uncalibrated"]) == set(artifact["metrics"])
    else:
        # what does not apply is said so, not passed off as a measured zero
        zeros = {n for n, m in line["metrics"].items() if m["value"] == 0}
        assert set(artifact["not_applicable"]) <= zeros
