"""CI perf-smoke gate: fail on a >20% simulation-throughput regression.

Usage::

    python benchmarks/check_event_throughput.py \
        [results/event_throughput.json] [results/event_throughput_baseline.json]

Compares the fresh measurement (see
``benchmarks/test_bench_event_throughput.py``) against the committed
baseline's ``current`` block, section by section, in *work done per
calibration spin*:

* ``micro`` / ``micro_callback`` -- **events** per spin.  The tickers are
  nothing but calendar entries, so events are the work.
* the ``strategies`` sections -- **tasks** per spin.  A full run's work is
  the tasks it simulates; how many calendar entries the engine spends per
  task is an implementation detail, and an engine change that needs fewer
  of them would read as a *regression* in events per spin while the run
  got faster.

Dividing by the spin rate cancels machine speed, so the gate is meaningful
on CI runners that are slower or faster than the machine that recorded the
baseline.  Exit code 1 when any section drops below 80% of the baseline.

To re-record the baseline after an intentional perf change::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_event_throughput.py -q --record
    python benchmarks/check_event_throughput.py --update-baseline
"""

import json
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / "results"
TOLERANCE = 0.8  # fail below 80% of baseline (a >20% regression)
#: Sections whose unit of work is the calendar entry; the rest run tasks.
MICRO = ("micro", "micro_callback")


def _per_spin(data, section):
    """Work per calibration spin: events (micro) or tasks (strategies)."""
    if section in MICRO:
        entry = data.get(section)
        return None if entry is None else entry.get("normalized")
    entry = data.get("strategies", {}).get(section)
    if entry is None or "tasks_per_sec" not in entry:
        return None
    return entry["tasks_per_sec"] / data["calibration_spins_per_sec"]


def _sections(data):
    sections = [s for s in MICRO if s in data]
    return sections + sorted(data.get("strategies", {}))


def update_baseline(measured_path, baseline_path):
    measured = json.loads(Path(measured_path).read_text())
    baseline = json.loads(Path(baseline_path).read_text())
    current = {
        "calibration_spins_per_sec": measured["calibration_spins_per_sec"],
        "micro": measured["micro"],
        "micro_callback": measured["micro_callback"],
        "strategies": measured["strategies"],
    }
    baseline["current"] = current
    Path(baseline_path).write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"baseline 'current' block updated from {measured_path}")
    return 0


def main(argv):
    args = [a for a in argv if not a.startswith("--")]
    measured_path = args[0] if args else RESULTS / "event_throughput.json"
    baseline_path = (
        args[1] if len(args) > 1 else RESULTS / "event_throughput_baseline.json"
    )
    if "--update-baseline" in argv:
        return update_baseline(measured_path, baseline_path)

    measured = json.loads(Path(measured_path).read_text())
    baseline = json.loads(Path(baseline_path).read_text())
    current = baseline.get("current")
    if current is None:
        print("baseline has no 'current' block; run with --update-baseline first")
        return 1

    failed = False
    for section in _sections(current):
        want = _per_spin(current, section)
        got = _per_spin(measured, section)
        if got is None:
            # A section the baseline gates vanished from the bench: that
            # is a config drift, not a perf result -- fail loudly with a
            # pointer instead of a KeyError stack trace.
            print(
                f"{section:20s} missing from the fresh measurement; "
                "re-record with --update-baseline if the bench's section "
                "list changed intentionally"
            )
            failed = True
            continue
        ratio = got / want if want else float("inf")
        status = "ok" if ratio >= TOLERANCE else "REGRESSED"
        unit = "events" if section in MICRO else "tasks"
        print(
            f"{section:20s} {unit}/spin {got:.3e} vs baseline {want:.3e} "
            f"({ratio:.2f}x)  {status}"
        )
        if ratio < TOLERANCE:
            failed = True
    ungated = [s for s in _sections(measured) if _per_spin(current, s) is None]
    if ungated:
        print(
            f"note: sections {ungated} are measured but not in the "
            "baseline; run --update-baseline to start gating them"
        )
    if failed:
        print(f"FAIL: simulation throughput regressed more than "
              f"{(1 - TOLERANCE) * 100:.0f}% against the committed baseline")
        return 1
    print("perf-smoke: no regression beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
