"""Documentation lint: docstrings, link integrity, CLI-reference sync, surface.

Five guarantees, run in CI's ``docs`` job:

* every module, public class and public function in
  ``src/repro/placement/`` carries a docstring (the layer the docs book
  leans on hardest);
* every relative link in ``docs/*.md`` (and the README) resolves to a
  real file, every ``*.md`` named under ``src/``, ``benchmarks/`` or
  ``docs/`` exists, and every ``repro <command>`` mentioned in the docs
  is a real subcommand of the live parser;
* ``docs/cli.md`` matches what ``repro docs-cli`` renders from the
  argparse tree -- the CLI reference cannot drift;
* every public top-level name under ``src/repro`` is read somewhere other
  than its own module, ``__init__`` re-exports and ``tests/`` (or is
  allowlisted with a reason) -- the surface cannot silently regrow;
* every ``REPRO_*`` environment variable the code reads is one CI sets or
  the README / docs book names -- a knob nobody can find is a constant.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, render_cli_docs

REPO = Path(__file__).resolve().parents[2]
DOCS = REPO / "docs"
PLACEMENT = REPO / "src" / "repro" / "placement"

DOC_FILES = sorted(DOCS.glob("*.md"))
LINKED_FILES = DOC_FILES + [REPO / "README.md", REPO / "PAPER.md"]


def _public_defs(tree):
    """(name, node) for every public class/function, methods included."""
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and not node.name.startswith("_"):
            yield node


class TestPlacementDocstrings:
    @pytest.mark.parametrize(
        "path", sorted(PLACEMENT.glob("*.py")), ids=lambda p: p.name
    )
    def test_module_and_public_defs_documented(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert ast.get_docstring(tree), f"{path.name}: missing module docstring"
        missing = [
            f"{path.name}:{node.lineno} {node.name}"
            for node in _public_defs(tree)
            if not ast.get_docstring(node)
        ]
        assert not missing, "missing docstrings:\n  " + "\n  ".join(missing)


LINK = re.compile(r"\[[^\]]*\]\(([^)]+)\)")


class TestDocLinks:
    def test_docs_book_exists(self):
        names = {p.name for p in DOC_FILES}
        assert {
            "architecture.md",
            "scenarios.md",
            "results.md",
            "cli.md",
            "performance.md",
        } <= names

    @pytest.mark.parametrize(
        "path", LINKED_FILES, ids=lambda p: p.relative_to(REPO).as_posix()
    )
    def test_relative_links_resolve(self, path):
        broken = []
        for target in LINK.findall(path.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"{path.name}: broken links {broken}"

    def test_referenced_cli_commands_exist(self):
        """Every `repro <cmd>` in backticked doc text is a real command."""
        parser = build_parser()
        known = set()
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                known |= set(action.choices)
        mention = re.compile(r"`(?:python -m )?repro ([a-z][a-z0-9-]*)")
        unknown = []
        for path in LINKED_FILES:
            for cmd in mention.findall(path.read_text(encoding="utf-8")):
                if cmd not in known:
                    unknown.append(f"{path.name}: repro {cmd}")
        assert not unknown, "docs mention unknown commands:\n  " + "\n  ".join(
            unknown
        )

    def test_referenced_source_paths_exist(self):
        """Every `src/...` path mentioned in the docs book exists."""
        path_ref = re.compile(r"`(src/[\w/.-]+)`")
        missing = []
        for path in DOC_FILES:
            for ref in path_ref.findall(path.read_text(encoding="utf-8")):
                if not (REPO / ref).exists():
                    missing.append(f"{path.name}: {ref}")
        assert not missing, "docs reference missing paths:\n  " + "\n  ".join(
            missing
        )

    def test_referenced_test_and_bench_paths_exist(self):
        """`tests/...` and `benchmarks/...` paths in the docs resolve too.

        The performance book leans on these (bench modules, the perf
        gate script, the differential suites); a rename must not leave
        the book pointing at nothing.
        """
        path_ref = re.compile(r"`((?:tests|benchmarks|results)/[\w/.-]+)`")
        missing = []
        for path in DOC_FILES:
            for ref in path_ref.findall(path.read_text(encoding="utf-8")):
                base = ref.split("::", 1)[0]
                if not (REPO / base).exists():
                    missing.append(f"{path.name}: {ref}")
        assert not missing, "docs reference missing paths:\n  " + "\n  ".join(
            missing
        )

    def test_named_markdown_files_exist(self):
        """Every ``*.md`` named in ``src/``, ``benchmarks/`` or ``docs/``
        exists: at the repo root, beside the file naming it, or in ``docs/``."""
        md_ref = re.compile(r"[\w./-]+\.md\b")
        missing = []
        for root in ("src", "benchmarks", "docs"):
            for path in sorted((REPO / root).rglob("*")):
                if path.suffix not in (".py", ".md"):
                    continue
                for ref in md_ref.findall(path.read_text(encoding="utf-8")):
                    if not any(
                        (base / ref).exists() for base in (REPO, path.parent, DOCS)
                    ):
                        missing.append(f"{path.relative_to(REPO)}: {ref}")
        assert not missing, "missing markdown files named:\n  " + "\n  ".join(
            missing
        )


class TestScenarioCatalog:
    def test_every_registered_scenario_cataloged(self):
        from repro.scenarios import scenario_names

        text = (DOCS / "scenarios.md").read_text(encoding="utf-8")
        missing = [n for n in scenario_names() if f"`{n}`" not in text]
        assert not missing, f"scenarios missing from docs/scenarios.md: {missing}"


class TestPerformanceBook:
    """The performance book must stay wired to the things it documents."""

    def test_mentions_profile_command_and_artifacts(self):
        text = (DOCS / "performance.md").read_text(encoding="utf-8")
        assert "`repro profile" in text or "repro profile" in text
        assert "results/event_throughput.json" in text
        assert "event_throughput_baseline.json" in text

    def test_perf_gate_script_exists_and_matches_doc(self):
        text = (DOCS / "performance.md").read_text(encoding="utf-8")
        gate = REPO / "benchmarks" / "check_event_throughput.py"
        assert gate.exists()
        assert "check_event_throughput.py" in text

    def test_committed_baseline_has_both_engines(self):
        import json

        baseline = json.loads(
            (REPO / "results" / "event_throughput_baseline.json").read_text()
        )
        assert "pre_pr" in baseline and "current" in baseline
        assert baseline["calibration_spins_per_sec"] > 0
        assert "micro" in baseline["pre_pr"]
        # The 'current' block is what the perf-smoke gate reads: every
        # gated section must exist and carry a normalized rate, or the
        # gate fails with a confusing message instead of this assert.
        current = baseline["current"]
        assert current["calibration_spins_per_sec"] > 0
        for section in ("micro", "micro_callback"):
            assert current[section]["normalized"] > 0, section
        for strategy, entry in current["strategies"].items():
            assert entry["normalized"] > 0, strategy
            assert entry["tasks_per_sec"] > 0, strategy

    def test_documented_speedup_claim_holds_in_baseline(self):
        """The book's >=2x headline must match the committed baseline.

        Deliberately asserted against the *baseline* file (which only
        changes via the explicit ``--update-baseline`` workflow), not
        ``results/event_throughput.json`` — the bench regenerates the
        latter with machine-dependent numbers, and a slower laptop must
        not make the unit-test suite fail.
        """
        import json

        baseline = json.loads(
            (REPO / "results" / "event_throughput_baseline.json").read_text()
        )
        pre = baseline["pre_pr"]["micro"]["events_per_sec"]
        pre_norm = pre / baseline["calibration_spins_per_sec"]
        cur = baseline["current"]["micro"]["normalized"]
        assert cur / pre_norm >= 2.0, (
            "the committed baseline no longer records the >=2x micro "
            "speedup the performance book claims"
        )


class TestCliReference:
    def test_cli_md_is_in_sync(self):
        committed = (DOCS / "cli.md").read_text(encoding="utf-8")
        assert committed == render_cli_docs(), (
            "docs/cli.md is stale; regenerate with "
            "`repro docs-cli --out docs/cli.md`"
        )

    def test_every_subcommand_documented(self):
        text = (DOCS / "cli.md").read_text(encoding="utf-8")
        parser = build_parser()
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                for name in action.choices:
                    assert f"## `repro {name}`" in text, f"{name} undocumented"


#: Public names with no reader outside their module, and why each stays.
SURFACE_ALLOWLIST = {
    "bootstrap_ci": "ROADMAP's first open item asks for bootstrap intervals",
    "unregister_strategy": "registry contract: third-party builders clean up",
    "unregister_scenario": "registry contract: third-party scenarios clean up",
    "RESERVED_KINDS": "span kinds the trace format reserves for later use",
    "PAPER_CLUSTER": "test fixture: the paper's cluster by name",
    "DeterministicArrivals": "test fixture: arrivals without a random draw",
    "FixedFanout": "test fixture: a constant fan-out",
    "UniformPopularity": "test fixture: popularity without a Zipf table",
    "FixedValueSize": "test fixture: a constant value size",
    "UniformValueSize": "test fixture: bounded value sizes",
    "calibrated_lognormal": "LogNormalFanout's docstring sends users to it",
}


def _top_level_names(tree):
    """Public names a module binds at top level; a name bound to a
    ``register_*(...)`` call is read by its registry and not reported."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            call = node.value.func if isinstance(node.value, ast.Call) else None
            if isinstance(call, ast.Name) and call.id.startswith("register_"):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if not n.startswith("_"))


class TestPublicSurface:
    """The surface cannot silently regrow: a public top-level name under
    ``src/repro`` needs a reader that is not its own test."""

    def test_every_public_name_has_a_reader(self):
        src = REPO / "src" / "repro"
        readers = {
            path: path.read_text(encoding="utf-8")
            for root in ("src", "bench", "benchmarks", "examples", "docs", ".github")
            for path in (REPO / root).rglob("*")
            if path.suffix in (".py", ".md", ".yml") and path.name != "__init__.py"
        }
        for name in ("README.md", "DESIGN.md"):
            readers[REPO / name] = (REPO / name).read_text(encoding="utf-8")
        unread = []
        for path in sorted(src.rglob("*.py")):
            if path.name in ("__init__.py", "__main__.py"):
                continue
            tree = ast.parse(readers[path])
            loaded = {
                node.id
                for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            for name in _top_level_names(tree):
                if name in loaded or name in SURFACE_ALLOWLIST:
                    continue
                word = re.compile(rf"\b{re.escape(name)}\b")
                if not any(
                    word.search(text)
                    for other, text in readers.items()
                    if other != path
                ):
                    unread.append(f"{path.relative_to(REPO)}: {name}")
        assert not unread, (
            "public names only their own module (and tests) mention -- use "
            "them, delete them, or allowlist them with a reason:\n  "
            + "\n  ".join(unread)
        )

    def test_allowlist_is_not_stale(self):
        src = REPO / "src" / "repro"
        defined = {
            name
            for path in src.rglob("*.py")
            for name in _top_level_names(ast.parse(path.read_text(encoding="utf-8")))
        }
        assert set(SURFACE_ALLOWLIST) <= defined


class TestEnvironmentKnobs:
    """The env-var twin of :class:`TestPublicSurface`: a ``REPRO_*``
    variable read under ``src/``, ``benchmarks/`` or ``tests/`` that no CI
    step sets and no user-facing page names is a constant with extra steps."""

    def test_every_variable_read_is_set_by_ci_or_documented(self):
        variable = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
        read = {}
        for root in ("src", "benchmarks", "tests"):
            for path in sorted((REPO / root).rglob("*.py")):
                for name in variable.findall(path.read_text(encoding="utf-8")):
                    read.setdefault(name, path.relative_to(REPO))
        assert len(read) >= 5  # the scan found the knobs there are
        known = "".join(
            path.read_text(encoding="utf-8")
            for path in [REPO / ".github" / "workflows" / "ci.yml", REPO / "README.md"]
            + DOC_FILES
        )
        orphans = [
            f"{name} ({path})" for name, path in sorted(read.items()) if name not in known
        ]
        assert not orphans, (
            "environment variables nothing sets and no page names -- make each "
            "a constant, or document it:\n  " + "\n  ".join(orphans)
        )
