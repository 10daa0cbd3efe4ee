"""Self-healing evaluation: SLO remediation on vs off, same seeds.

For each faulted scenario we run its ``monitor`` baseline (metrics bus
and breach detector streaming, policy never acts -- so both modes carry
the identical observation load) against the ``slo`` mode (full loop:
detect, boost the hottest partition, unboost on clear).

What the numbers show at bench scale (12k tasks x 3 seeds, C3):

* ``hot-shard`` -- the headline win.  Spreading the hot partition's
  replicas cuts the windowed-p99 breach count roughly in half and the
  measured p99 by ~4x; every seed improves on both axes.
* ``flash-crowd`` -- roughly neutral: surges clear before the hysteresis
  confirms a breach at most seeds, and the actions that do fire neither
  help nor hurt.
* ``crash-restart`` -- neutral by design: the crash fault driver already
  re-homes routing around the downed server, so boosting its partition
  adds little.  The check here is "first, do no harm".

Artifacts: ``results/remediation.json`` + ``results/remediation.txt``.
"""

from conftest import bench_jobs, bench_scale, save_report

from repro.harness import run_grid
from repro.scenarios import get_scenario

#: Scenarios paired with how strongly remediation must win there.
SCENARIOS = ("hot-shard", "flash-crowd", "crash-restart")
MODES = ("monitor", "slo")
SLO_P99_MS = 10.0
STRATEGY = "c3"


def _run_pairs(n_tasks, seeds):
    grid = [
        {
            mode: get_scenario(scenario).build_config(
                strategy=STRATEGY,
                n_tasks=n_tasks,
                remediation=mode,
                slo_p99_ms=SLO_P99_MS,
            )
            for mode in MODES
        }
        for scenario in SCENARIOS
    ]
    return {
        (scenario, mode): runs
        for scenario, by_mode in zip(SCENARIOS, run_grid(grid, seeds, bench_jobs()))
        for mode, runs in by_mode.items()
    }


def _cell(runs):
    return {
        "p99_ms": [round(r.summary().p99 * 1000.0, 4) for r in runs],
        "breach_windows": [r.extras["slo_breach_windows"] for r in runs],
        "windows_evaluated": [r.extras["slo_windows_evaluated"] for r in runs],
        "actions": [r.extras["remediation_actions"] for r in runs],
        "bus_snapshots": [r.extras["bus_snapshots"] for r in runs],
    }


def test_remediation():
    n_tasks, seeds = bench_scale()
    runs = _run_pairs(n_tasks, seeds)

    data = {
        "strategy": STRATEGY,
        "slo_p99_ms": SLO_P99_MS,
        "n_tasks": n_tasks,
        "seeds": list(seeds),
        "scenarios": {
            scenario: {mode: _cell(runs[(scenario, mode)]) for mode in MODES}
            for scenario in SCENARIOS
        },
    }

    lines = [
        f"SLO remediation on vs off -- {STRATEGY}, {n_tasks} tasks x "
        f"{len(seeds)} seeds, target p99 {SLO_P99_MS:.0f} ms (model time)",
        "",
        f"{'scenario':<16} {'mode':<8} {'p99 ms (per seed)':<28} "
        f"{'breach windows':<16} {'actions'}",
    ]
    for scenario in SCENARIOS:
        for mode in MODES:
            cell = data["scenarios"][scenario][mode]
            lines.append(
                f"{scenario:<16} {mode:<8} "
                f"{'/'.join(f'{v:.1f}' for v in cell['p99_ms']):<28} "
                f"{'/'.join(f'{v:.0f}' for v in cell['breach_windows']):<16} "
                f"{'/'.join(f'{v:.0f}' for v in cell['actions'])}"
            )
    report = "\n".join(lines)
    print("\n" + report)
    save_report("remediation", report, data=data)

    # -- the acceptance comparison ---------------------------------------
    # Monitor mode must observe without acting, in every cell.
    for (scenario, mode), cell_runs in runs.items():
        for r in cell_runs:
            assert r.tasks_completed == n_tasks, (scenario, mode)
            assert r.extras["bus_snapshots"] > 0, (scenario, mode)
            if mode == "monitor":
                assert r.extras["remediation_actions"] == 0.0, scenario

    # Hot shard: remediation wins on both axes at every seed.
    for mon, slo in zip(runs[("hot-shard", "monitor")], runs[("hot-shard", "slo")]):
        assert slo.extras["remediation_actions"] >= 1.0
        assert slo.extras["slo_breach_windows"] < mon.extras["slo_breach_windows"]
        assert slo.summary().p99 < mon.summary().p99

    # The neutral scenarios: first, do no harm (10% p99 headroom for the
    # re-timed event schedule, one extra breach window of slack).
    for scenario in ("flash-crowd", "crash-restart"):
        for mon, slo in zip(runs[(scenario, "monitor")], runs[(scenario, "slo")]):
            assert slo.summary().p99 <= mon.summary().p99 * 1.10, scenario
            assert (
                slo.extras["slo_breach_windows"]
                <= mon.extras["slo_breach_windows"] + 1
            ), scenario
