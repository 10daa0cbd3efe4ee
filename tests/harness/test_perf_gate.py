"""The perf-smoke checker gates work done per spin, not work counted."""

import importlib.util
import json
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[2] / "benchmarks" / "check_event_throughput.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_event_throughput", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def artifact(spins=1e7, micro=3e5, tasks=3000.0, events_per_task=58.0):
    """A measurement shaped like ``results/event_throughput.json``."""
    return {
        "calibration_spins_per_sec": spins,
        "micro": {"events_per_sec": micro, "normalized": micro / spins},
        "micro_callback": {"events_per_sec": micro, "normalized": micro / spins},
        "strategies": {
            "c3": {
                "tasks_per_sec": tasks,
                "events_per_sec": tasks * events_per_task,
                "normalized": tasks * events_per_task / spins,
            }
        },
    }


def check(gate, tmp_path, capsys, measured, current=None):
    measured_path = tmp_path / "measured.json"
    baseline_path = tmp_path / "baseline.json"
    measured_path.write_text(json.dumps(measured))
    baseline_path.write_text(json.dumps({"current": current or artifact()}))
    code = gate.main([str(measured_path), str(baseline_path)])
    return code, capsys.readouterr().out


def test_same_measurement_passes(gate, tmp_path, capsys):
    code, out = check(gate, tmp_path, capsys, artifact())
    assert code == 0 and "REGRESSED" not in out


def test_machine_speed_cancels(gate, tmp_path, capsys):
    slow_box = artifact(spins=5e6, micro=1.5e5, tasks=1500.0)
    code, out = check(gate, tmp_path, capsys, slow_box)
    assert code == 0 and "(1.00x)" in out


def test_slower_run_is_a_regression(gate, tmp_path, capsys):
    code, out = check(gate, tmp_path, capsys, artifact(tasks=2000.0))
    assert code == 1
    assert [line for line in out.splitlines() if "REGRESSED" in line][0].startswith("c3")


def test_micro_sections_stay_gated_on_events(gate, tmp_path, capsys):
    code, out = check(gate, tmp_path, capsys, artifact(micro=2e5))
    assert code == 1 and "micro " in out and "events/spin" in out


def test_faster_run_with_fewer_events_passes(gate, tmp_path, capsys):
    # +25% tasks/s on an engine that spends a third fewer calendar entries
    # per task: events/s *fell* (0.80x), the run got faster.
    faster = artifact(tasks=3750.0, events_per_task=37.0)
    events_per_spin = faster["strategies"]["c3"]["normalized"]
    assert events_per_spin < 0.8 * artifact()["strategies"]["c3"]["normalized"]
    code, out = check(gate, tmp_path, capsys, faster)
    assert code == 0 and "(1.25x)" in out and "tasks/spin" in out


def test_vanished_section_fails_with_a_pointer(gate, tmp_path, capsys):
    measured = artifact()
    del measured["strategies"]["c3"]
    code, out = check(gate, tmp_path, capsys, measured)
    assert code == 1 and "c3" in out and "--update-baseline" in out


def test_new_section_is_noted_not_gated(gate, tmp_path, capsys):
    measured = artifact()
    measured["strategies"]["brand-new"] = dict(measured["strategies"]["c3"])
    code, out = check(gate, tmp_path, capsys, measured)
    assert code == 0 and "brand-new" in out


def test_committed_baseline_is_gateable_without_a_rerecord(gate):
    """The committed ``current`` block already carries tasks/sec and spins."""
    baseline = json.loads((gate.RESULTS / "event_throughput_baseline.json").read_text())
    for section in gate._sections(baseline["current"]):
        assert gate._per_spin(baseline["current"], section) > 0, section
