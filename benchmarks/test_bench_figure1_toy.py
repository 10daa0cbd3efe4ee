"""Figure 1: the worked example (task-oblivious vs task-aware schedule).

Paper claim: with servers S1=[A,E], S2=[B,C], S3=[D] and tasks T1=[A,B,C],
T2=[D,E], a task-oblivious schedule completes T2 in 2 time units while the
task-aware (optimal) schedule completes it in 1; T1 takes 2 either way.
"""

from conftest import save_report

from repro.harness import figure1_toy, render_figure1


def test_figure1_schedules():
    oblivious = figure1_toy(task_aware=False)
    aware_unif = figure1_toy(task_aware=True, assigner_name="unifincr")
    aware_eqmx = figure1_toy(task_aware=True, assigner_name="equalmax")

    # The paper's exact numbers (unit service times).
    assert oblivious.t1_completion == 2.0
    assert oblivious.t2_completion == 2.0
    for aware in (aware_unif, aware_eqmx):
        assert aware.t1_completion == 2.0
        assert aware.t2_completion == 1.0

    report = render_figure1(oblivious, aware_unif, aware_eqmx)
    print("\n" + report)
    save_report(
        "figure1_toy",
        report,
        data={
            "oblivious": {"t1": oblivious.t1_completion, "t2": oblivious.t2_completion},
            "unifincr": {"t1": aware_unif.t1_completion, "t2": aware_unif.t2_completion},
            "equalmax": {"t1": aware_eqmx.t1_completion, "t2": aware_eqmx.t2_completion},
        },
    )
