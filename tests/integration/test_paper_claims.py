"""Small-scale shape checks of the paper's claims.

The recorded-scale claims are the ``figure2`` and ``ablation_priorities``
entries of ``repro.artifacts``; these tests run a medium workload of their
own (4,000 tasks over 20,000 keys, one seed) and check the *orderings*
that must hold for the reproduction to be meaningful:

* the ideal model is the fastest realization at every reported percentile;
* BRB (both priority algorithms, credits realization) beats task-oblivious
  FIFO-with-C3 at the median;
* task-aware priorities beat FIFO priorities under the identical credits
  machinery (isolating the contribution of task-awareness itself).
"""

import pytest

from repro.harness import ExperimentConfig, run_experiment

MEDIUM = dict(n_tasks=4000, n_keys=20_000)


@pytest.fixture(scope="module")
def runs():
    strategies = (
        "c3",
        "equalmax-credits",
        "unifincr-credits",
        "equalmax-model",
        "unifincr-model",
        "fifo-credits",
    )
    out = {}
    for name in strategies:
        cfg = ExperimentConfig(strategy=name, **MEDIUM)
        out[name] = run_experiment(cfg, seed=1).summary((50.0, 95.0, 99.0))
    return out


class TestOrderings:
    @pytest.mark.parametrize("algo", ["equalmax", "unifincr"])
    @pytest.mark.parametrize("p", [50.0, 95.0, 99.0])
    def test_model_is_lower_bound(self, runs, algo, p):
        assert runs[f"{algo}-model"].percentile(p) <= runs[f"{algo}-credits"].percentile(p) * 1.05

    @pytest.mark.parametrize("algo", ["equalmax", "unifincr"])
    def test_brb_beats_c3_at_median(self, runs, algo):
        assert runs[f"{algo}-credits"].median < runs["c3"].median

    @pytest.mark.parametrize("algo", ["equalmax", "unifincr"])
    def test_model_beats_c3_everywhere(self, runs, algo):
        for p in (50.0, 95.0, 99.0):
            assert runs[f"{algo}-model"].percentile(p) < runs["c3"].percentile(p)

    def test_task_awareness_beats_fifo_priorities(self, runs):
        """EqualMax under credits < FIFO under credits at the median --
        the gain is from task-aware priorities, not the credits plumbing."""
        assert runs["equalmax-credits"].median < runs["fifo-credits"].median

    def test_percentiles_monotone_within_each_run(self, runs):
        for summary in runs.values():
            assert summary.percentile(50.0) <= summary.percentile(95.0)
            assert summary.percentile(95.0) <= summary.percentile(99.0)

    def test_latency_floor_sane(self, runs):
        """Medians sit above the physical floor (2x network + 1 service)."""
        floor = 2 * 50e-6 + 1.0 / 3500.0 * 0.2
        for summary in runs.values():
            assert summary.median > floor
