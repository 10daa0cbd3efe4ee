"""Live loopback benchmark: wall-clock p50/p99 per strategy.

Records the sim<->live differential ``repro compare`` prints
(:func:`repro.loadgen.run_compare`): each strategy runs the scenario once
through the simulation and once against a fresh in-process loopback
:class:`~repro.serve.LiveServer`.  This is the acceptance benchmark for
the live serving subsystem: every strategy must complete its full
multiget count, and BRB's credits realization must keep its tail at or
below the C3 baseline *on real concurrency*, mirroring the simulated
ordering.

Scale: 1500 multigets -- a few seconds of wall time per strategy -- at
the serve default time scale (25; larger = more timer headroom, longer
wall time).
"""

from conftest import bench_jobs, save_report

from repro.loadgen import run_compare

STRATEGIES = ("c3", "unifincr-credits", "equalmax-credits")
N_TASKS = 1500


def test_live_loopback():
    report = run_compare(
        "steady-state", STRATEGIES, n_tasks=N_TASKS, seeds=(1,), jobs=bench_jobs()
    )
    text = report.render()
    print("\n" + text)
    save_report("live_loopback", text, report.to_dict())

    for strategy in STRATEGIES:
        for run in report.live.strategies[strategy].runs:
            assert run.tasks_completed == N_TASKS, (
                f"{strategy}: live run lost tasks "
                f"({run.tasks_completed}/{N_TASKS})"
            )
        assert 0 < report.p99_ms("live", strategy) < float("inf")
    # The paper's ordering must carry over to real concurrency: BRB's
    # realizable credits tail no worse than the C3 baseline.
    assert report.p99_ms("live", "unifincr-credits") <= report.p99_ms(
        "live", "c3"
    ), "live run inverted the BRB vs C3 tail ordering"
