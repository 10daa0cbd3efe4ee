"""CI perf-smoke gate for the live wire path: fail on a >30% regression.

Usage::

    python benchmarks/check_live_throughput.py \
        [results/live_throughput.json] [results/live_throughput_baseline.json]

Compares the fresh ``benchmarks/test_bench_live_throughput.py`` grid
against the committed baseline's ``current`` block:

* per-cell **normalized** multigets/sec (multigets per calibration spin,
  which cancels machine speed) must stay above ``TOLERANCE`` of baseline.
  The headline-vs-sequential speedup is *not* gated here: its
  denominator is the ungated window-1 cell below (tier-1 still asserts
  the ratio is at least 10);
* the headline cell's ``writes_per_multiget`` must not grow past
  ``1/TOLERANCE`` of baseline -- write coalescing quietly breaking shows
  up here long before raw throughput does on a fast loopback.

The live path forks server processes and rides the scheduler, so it is
noisier than the in-process event-loop bench; the tolerance is looser
(0.7 vs the kernel gate's 0.8).  Exit code 1 on any regression.

To re-record the baseline after an intentional perf change::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_live_throughput.py -q --record
    python benchmarks/check_live_throughput.py --update-baseline
"""

import json
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / "results"
TOLERANCE = 0.7  # fail below 70% of baseline (a >30% regression)

#: Grid cells that are printed, never gated.  The fanout rider multiplies
#: per-multiget work eightfold (high variance by design).  The window-1
#: cell measures epoll's millisecond, not the wire path: with one op in
#: flight every round trip sleeps out a timer the selector rounds up to
#: 1 ms, and whether a reply happens to beat the rounding moves the cell
#: 260-740 multigets/s run to run -- a spread no tolerance holds
#: (docs/performance.md, Stage E; the rounding is accepted, Stage G).
UNGATED_CELLS = frozenset({"binary-pooled-2proc-fanout8", "binary-seq-1proc"})


def _cells(data):
    return sorted(data.get("cells", {}))


def update_baseline(measured_path, baseline_path):
    measured = json.loads(Path(measured_path).read_text())
    if Path(baseline_path).exists():
        baseline = json.loads(Path(baseline_path).read_text())
    else:
        baseline = {}
    baseline["current"] = {
        "calibration_spins_per_sec": measured["calibration_spins_per_sec"],
        "config": measured["config"],
        "cells": measured["cells"],
        "ratios": measured["ratios"],
    }
    Path(baseline_path).write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"baseline 'current' block updated from {measured_path}")
    return 0


def main(argv):
    args = [a for a in argv if not a.startswith("--")]
    measured_path = args[0] if args else RESULTS / "live_throughput.json"
    baseline_path = (
        args[1] if len(args) > 1 else RESULTS / "live_throughput_baseline.json"
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
    for cell in _cells(current):
        want = current["cells"][cell].get("normalized")
        got = measured.get("cells", {}).get(cell, {}).get("normalized")
        if cell in UNGATED_CELLS:
            if got is not None and want:
                print(
                    f"{cell:28s} normalized {got:.6f} vs baseline {want:.6f} "
                    f"({got / want:.2f}x)  ungated"
                )
            continue
        if got is None:
            # A cell the baseline gates vanished from the grid: config
            # drift, not a perf result -- fail loudly with a pointer.
            print(
                f"{cell:28s} missing from the fresh measurement; "
                "re-record with --update-baseline if the grid changed "
                "intentionally"
            )
            failed = True
            continue
        ratio = got / want if want else float("inf")
        status = "ok" if ratio >= TOLERANCE else "REGRESSED"
        print(
            f"{cell:28s} normalized {got:.6f} vs baseline {want:.6f} "
            f"({ratio:.2f}x)  {status}"
        )
        if ratio < TOLERANCE:
            failed = True

    headline = current.get("ratios", {}).get("headline_cell")
    want_wpm = current.get("cells", {}).get(headline, {}).get("writes_per_multiget")
    got_wpm = (
        measured.get("cells", {}).get(headline, {}).get("writes_per_multiget")
    )
    if want_wpm and got_wpm is not None:
        # More syscalls per multiget = coalescing regressed.  The floor
        # keeps the check meaningful when the baseline is near-perfectly
        # coalesced (a hundredth of a write per multiget).
        limit = max(want_wpm / TOLERANCE, 0.1)
        status = "ok" if got_wpm <= limit else "REGRESSED"
        print(
            f"{'writes_per_multiget':28s} {got_wpm:.4f} vs baseline "
            f"{want_wpm:.4f} (limit {limit:.4f})  {status}"
        )
        if got_wpm > limit:
            failed = True

    ungated = [
        c
        for c in _cells(measured)
        if c not in UNGATED_CELLS and c not in current.get("cells", {})
    ]
    if ungated:
        print(
            f"note: cells {ungated} are measured but not in the baseline; "
            "run --update-baseline to start gating them"
        )
    if failed:
        print(
            f"FAIL: live throughput regressed more than "
            f"{(1 - TOLERANCE) * 100:.0f}% against the committed baseline"
        )
        return 1
    print("live perf-smoke: no regression beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
