#!/usr/bin/env python3
"""One perf benchmark for both realms.  See ``bench/README.md``.

    python3 bench/run.py --workload sim-steady-brb --seed 1
    python3 bench/run.py --workload live-openloop-brb --trace 1 --out f.json
    python3 bench/run.py --all | --list | --selfcheck

End-to-end metrics are measured with tracing off; ``--trace 1`` makes the
separate runs that give the per-layer numbers.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import typing as _t
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
if not (_SRC / "repro").is_dir():
    sys.exit(f"bench/run.py measures the checkout it lives in, and {_SRC}/repro is missing")
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_SRC))

from noise import Meter, calibration_spin, envelope, spread  # noqa: E402

# The import of the system under test is part of set-up time.
with Meter() as _import_meter:
    from workloads import WORKLOADS, Run, Workload  # noqa: E402
IMPORT_RAW_S = _import_meter.wall_s
IMPORT_S = IMPORT_RAW_S * _import_meter.scale

BENCHMARK_JSON = _HERE.parent / "BENCHMARK.json"
#: Set-up is sampled this many times per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
MIN_REPEATS = 3
#: Run length when ``--seconds`` is not given (BENCHMARK.json's
#: ``run_seconds`` is shorter: the driver's total time is capped).
DEFAULT_SECONDS = 30
#: The before/after calibration spins may differ by this much.
SPIN_DRIFT_LIMIT = 0.10


def load_contract() -> _t.Dict[str, _t.Any]:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def _quick(workload: Workload) -> None:
    """Tiny sizes for the contract test; the artifact is not comparable."""
    workload.n = max(workload.n // 20, 100)
    workload.n_setup = max(workload.n_setup // 10, 50)
    workload.n_traced = max(workload.n_traced // 10, 100)
    workload.n_profiled = max(workload.n_profiled // 10, 100)


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def measure_end_to_end(
    workload: Workload, seed: int, seconds: float
) -> _t.Dict[str, _t.Any]:
    """Set-up samples, then timed repeats for ``seconds``; tracing off."""
    spin_before = calibration_spin()
    failures: _t.List[str] = []
    # Set-up: the same small run three times on the same seed, so simulated
    # time must come out bit for bit the same in all three.
    setups, setups_raw, setup_digests = [], [], set()
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        run = workload.run(seed, workload.n_setup)
        elapsed = time.perf_counter() - started
        paced = run.wall_s if run.paced else 0.0
        setups.append(IMPORT_S + (elapsed - paced) * run.scale + paced)
        setups_raw.append(IMPORT_RAW_S + elapsed)
        setup_digests.add(workload.digest(run))
    if len(setup_digests) > 1:
        failures.append(
            f"{SETUP_SAMPLES} runs of seed {seed} gave different task latency "
            f"digests: {sorted(setup_digests)}"
        )

    runs: _t.List[Run] = []
    counts: _t.List[_t.Dict[str, float]] = []
    repeats: _t.List[_t.Dict[str, _t.Any]] = []
    started = time.perf_counter()
    last = 0.0
    while len(runs) < MIN_REPEATS or (
        time.perf_counter() - started + 0.5 * last <= seconds
    ):
        repeat_started = time.perf_counter()
        # Each repeat draws its own arrivals: a tail percentile moves with
        # the draw (C3's 20k-task simulated p99 by 19% over seeds 11-20, a
        # 2.5k-task live p99 by 16%), and the median over repeats averages
        # over that as well as over host noise.
        repeat_seed = seed * 100 + len(runs)
        run = workload.run(repeat_seed, workload.n)
        failures += [
            f"repeat {len(runs)}: {f}" for f in workload.check(run, workload.n)
        ]
        runs.append(run)
        counts.append(workload.boundary_counts(run))
        repeats.append(
            {
                "seed": repeat_seed,
                "wall_s": run.wall_s,
                "spin_s": run.spin_s,
                "task_latency_digest": workload.digest(run),
                **counts[-1],
            }
        )
        last = time.perf_counter() - repeat_started
    spin_after = calibration_spin()

    def over_repeats(calibrated: bool) -> _t.Dict[str, _t.Any]:
        per_repeat = [run.end_to_end(calibrated) for run in runs]
        metrics = {n: spread([r[n] for r in per_repeat]) for n in per_repeat[0]}
        metrics["setup_s"] = spread(setups if calibrated else setups_raw)
        # Peak RSS only ever grows: the value is the one after the last repeat.
        metrics["peak_rss_mb"] = spread([runs[-1].rss_mb])
        return metrics

    p999 = [run.p999_ms for run in runs if run.p999_ms is not None]
    boundary = {name: statistics.median(c[name] for c in counts) for name in counts[0]}
    failures += workload.check_run(boundary)
    return {
        "metrics": over_repeats(calibrated=True),
        "metrics_uncalibrated": over_repeats(calibrated=False),
        "boundary": boundary,
        "task_p999_ms": statistics.median(p999) if p999 else None,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "failures": failures,
        "repeats": repeats,
        "calibration_spins_per_s": {"before": spin_before, "after": spin_after},
    }


def noisy_reasons(
    report: _t.Mapping[str, _t.Any], bounds: _t.Mapping[str, float]
) -> _t.List[str]:
    """Why this run should not be recorded as a reference, if anything."""
    reasons = []
    spins = report["calibration_spins_per_s"]
    drift = abs(spins["after"] / spins["before"] - 1.0)
    if drift > SPIN_DRIFT_LIMIT:
        reasons.append(f"calibration spin moved {drift:.0%} during the run")
    for name, stats in report["metrics"].items():
        # Host-time metrics only: over repeats that each draw their own
        # arrivals, a model-time p99 spreads with the draw, not with the box.
        host_time = report["metrics_uncalibrated"][name]["median"] != stats["median"]
        if host_time and name != "setup_s" and stats["iqr_frac"] > bounds[name]:
            reasons.append(
                f"{name}: interquartile range {stats['iqr_frac']:.1%} of the "
                f"median exceeds its bound {bounds[name]:.0%}"
            )
    return reasons


def run_workload(args: argparse.Namespace, name: str) -> _t.Dict[str, _t.Any]:
    """Measure one workload and return its artifact (also printed)."""
    contract = load_contract()
    workload = WORKLOADS[name]
    artifact: _t.Dict[str, _t.Any] = {
        "workload": name,
        "why": workload.why,
        "loop": workload.loop,
        "seed": args.seed,
        "traced": bool(args.trace),
        "comparable": not args.quick,
        "envelope": envelope(),
    }
    if args.trace:
        import tracing

        names = [m["name"] for m in contract["per_layer"]]
        artifact.update(
            tracing.measure_per_layer(workload, args.seed, names, quick=args.quick),
            attempted=workload.n_traced,
            failed=0,
            noisy=[],
        )
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    else:
        report = measure_end_to_end(workload, args.seed, args.seconds)
        bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
        artifact.update(report, noisy=noisy_reasons(report, bounds))
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
        units.update({m["name"]: m["unit"] for m in contract["per_layer"]})
    artifact["correct"] = not artifact["failures"] and artifact["failed"] == 0
    artifact["units"] = units
    print_table(artifact)
    return artifact


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def print_table(artifact: _t.Mapping[str, _t.Any]) -> None:
    units = artifact["units"]
    tag = "" if artifact["comparable"] else "  [--quick: NOT comparable]"
    print(f"== {artifact['workload']}  seed {artifact['seed']}{tag}")
    print(f"   {artifact['loop']}")
    not_applicable = set(artifact.get("not_applicable", ()))
    for name, stats in artifact["metrics"].items():
        if name in not_applicable:
            print(f"  {name:38s} {'n/a':>14s}")
            continue
        line = f"  {name:38s} {stats['median']:14.6g} {units[name]:8s}"
        if stats.get("n", 1) > 1:
            line += f" q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n={stats['n']}"
        raw = artifact.get("metrics_uncalibrated", {}).get(name)
        if raw is not None and raw["median"] != stats["median"]:
            line += (
                f"  iqr {stats['iqr_frac']:.1%}"
                f"  | raw host time {raw['median']:.6g} iqr {raw['iqr_frac']:.1%}"
            )
        print(line)
    if artifact.get("task_p999_ms") is not None:
        print(f"  {'task_p999_ms (>=10 samples beyond)':38s} "
              f"{artifact['task_p999_ms']:14.6g} ms")
    for name, value in artifact.get("boundary", {}).items():
        print(f"  {name:38s} {value:14.6g} {units[name]:8s}")
    print(f"  attempted {artifact['attempted']}  failed {artifact['failed']}")
    for reason in artifact["noisy"]:
        print(f"  NOISY: {reason}")
    for failure in artifact["failures"]:
        print(f"  CHECK FAILED: {failure}")


def result_line(artifact: _t.Mapping[str, _t.Any]) -> str:
    """The driver's contract: one JSON object, exactly these four keys."""
    units = artifact["units"]
    return json.dumps(
        {
            "correct": bool(artifact["correct"]),
            "attempted": int(artifact["attempted"]),
            "failed": int(artifact["failed"]),
            "metrics": {
                name: {"value": stats["median"], "unit": units[name]}
                for name, stats in artifact["metrics"].items()
            },
        }
    )


def selfcheck(args: argparse.Namespace) -> int:
    """Every workload twice back to back: does the benchmark agree with
    itself within its own bounds?  Shown in calibrated and in raw host
    time, so that what the calibration buys is on the page."""
    contract = load_contract()
    args.trace = 0  # the bounds are on the end-to-end metrics
    blocks = {"cal": "metrics", "raw": "metrics_uncalibrated"}
    disagree = dict.fromkeys(blocks, 0)
    digests_differ = False
    for name in WORKLOADS:
        one, two = run_workload(args, name), run_workload(args, name)
        print(f"-- selfcheck {name}")
        # the time budget may cut one run a repeat short: compare the common ones
        pairs = list(zip(one["repeats"], two["repeats"]))
        if any(a["task_latency_digest"] != b["task_latency_digest"] for a, b in pairs):
            digests_differ = True
            print("  simulated latency digests differ between the two runs  DISAGREES")
        for metric in contract["end_to_end"]:
            line = f"  {metric['name']:18s}"
            for label, block in blocks.items():
                a = one[block][metric["name"]]["median"]
                b = two[block][metric["name"]]["median"]
                worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                ok = abs(worse) <= metric["bound"]
                disagree[label] += not ok
                line += (
                    f"  {label} {a:10.5g} -> {b:10.5g} "
                    f"{worse:+7.2%} {'ok' if ok else 'DISAGREES'}"
                )
            print(f"{line}  (bound {metric['bound']:.0%})")
    print(
        f"-- selfcheck: {disagree['cal']} disagreements in calibrated time, "
        f"{disagree['raw']} in raw host time"
    )
    return 1 if disagree["cal"] or digests_differ else 0


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=sorted(WORKLOADS))
    what.add_argument("--all", action="store_true", help="every workload in turn")
    what.add_argument("--list", action="store_true", help="name the workloads")
    what.add_argument("--selfcheck", action="store_true",
                      help="run every workload twice and compare with the bounds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the timed repeats measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the per-layer (traced) runs instead")
    parser.add_argument("--out", help="write the full artifact (JSON) here")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes; artifact flagged not comparable")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when a workload is marked noisy")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = min(args.seconds, 1.0)
        for workload in WORKLOADS.values():
            _quick(workload)

    if args.list:
        for workload in WORKLOADS.values():
            print(f"{workload.name}\n    {workload.loop}\n    {workload.why}")
        return 0
    if args.selfcheck:
        return selfcheck(args)

    names = list(WORKLOADS) if args.all else [args.workload]
    artifacts = [run_workload(args, name) for name in names]
    failures = [f for a in artifacts for f in a["failures"]]
    if args.all and not args.trace:
        # The paper's ordering, on one trace and seed.
        p99 = {a["workload"]: a["metrics"]["task_p99_ms"]["median"] for a in artifacts}
        if not p99["sim-steady-brb"] < p99["sim-steady-c3"]:
            failures.append(
                f"BRB p99 {p99['sim-steady-brb']:.3f} ms is not below C3 p99 "
                f"{p99['sim-steady-c3']:.3f} ms on the same trace"
            )
            print(f"CHECK FAILED: {failures[-1]}")
    if args.out:
        Path(args.out).write_text(
            json.dumps(artifacts if args.all else artifacts[0], indent=2, default=str),
            encoding="utf-8",
        )
    for artifact in artifacts:
        print(result_line(artifact))
    noisy = any(a["noisy"] for a in artifacts)
    return 1 if failures or any(a["failed"] for a in artifacts) or (
        args.strict and noisy
    ) else 0


if __name__ == "__main__":
    sys.exit(main())
