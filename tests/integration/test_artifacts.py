"""The artifact table: every ``results/`` file has one entry, and every
entry's claims hold against the current code.

Each entry runs once here at one small constant scale (:data:`TASKS` x
:data:`SEEDS`); ``repro record`` runs the same entries and the same claims
at the recorded scale.  Entries with a fixed grid (``live_loopback``,
``trace_attribution``, ``seed_stability``'s floor) run their recorded grid.
"""

import json
from pathlib import Path

import pytest

from repro.artifacts import ARTIFACTS, Recording
from repro.cli import main

RESULTS = Path(__file__).resolve().parents[2] / "results"

#: The tier-1 scale: every claim is checked, in seconds per entry.
TASKS = 3000
SEEDS = (1,)


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_entry_claims_hold(name):
    recording = ARTIFACTS[name](TASKS, SEEDS, 1)
    assert recording.text
    json.dumps(recording.data)
    assert recording.claims, f"{name} makes no claim"
    recording.check()


def test_every_results_file_has_an_entry():
    assert set(ARTIFACTS) == {path.stem for path in RESULTS.glob("*.txt")}


def test_record_figure1_writes_the_committed_files(tmp_path, monkeypatch):
    """``repro record`` is the one producer of ``results/``: recording the
    deterministic toy reproduces the committed files byte for byte."""
    monkeypatch.chdir(tmp_path)
    assert main(["record", "figure1_toy"]) == 0
    for suffix in (".txt", ".json"):
        name = "figure1_toy" + suffix
        assert (tmp_path / "results" / name).read_bytes() == (RESULTS / name).read_bytes()


def test_a_failed_claim_exits_1_and_names_it(tmp_path, capsys, monkeypatch):
    """The report is still written, so the failure can be read, and every
    failed claim is named with the values it read."""

    def broken(n_tasks, seeds, jobs):
        recording = Recording("a report", {"p99_ms": 9.0})
        recording.claim(True, "a claim that holds")
        recording.claim(False, "p99 under the bound", p99_ms=9.0, bound_ms=5.0)
        recording.claim(False, "c3 is worst", worst="unifincr-credits")
        return recording

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(ARTIFACTS, "figure1_toy", broken)
    assert main(["record", "figure1_toy"]) == 1
    err = capsys.readouterr().err
    assert "figure1_toy: p99 under the bound (p99_ms=9, bound_ms=5)" in err
    assert "c3 is worst (worst=unifincr-credits)" in err
    assert "a claim that holds" not in err
    assert (tmp_path / "results" / "figure1_toy.txt").read_text() == "a report\n"

