"""Documentation lint: docstrings, link integrity, CLI-reference sync, surface.

Seven guarantees, run in CI's ``docs`` job:

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
* every strategy in ``KNOWN_STRATEGIES`` is named by a benchmark, a
  recorded result, an example, CI, a scenario or the config -- a strategy
  only tests run is an extension point with no user;
* every ``REPRO_*`` environment variable the code reads is one CI sets or
  the README / docs book names -- a knob nobody can find is a constant;
* every field of ``ExperimentConfig`` and ``ClusterSpec`` is given a value
  by some caller outside ``tests/`` (or is allowlisted with a reason) -- a
  field only tests set is a constant too.
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

        The performance book leans on these (bench modules, the
        differential suites); a rename must not leave the book pointing
        at nothing.
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
        from repro.scenarios import SCENARIOS

        text = (DOCS / "scenarios.md").read_text(encoding="utf-8")
        missing = [n for n in SCENARIOS if f"`{n}`" not in text]
        assert not missing, f"scenarios missing from docs/scenarios.md: {missing}"


class TestPerformanceBook:
    """The performance book must stay wired to the things it documents."""

    def test_mentions_profile_command_and_artifacts(self):
        text = (DOCS / "performance.md").read_text(encoding="utf-8")
        assert "repro profile" in text
        assert "bench/run.py" in text
        assert "BENCHMARK.json" in text

    def test_no_doc_names_a_second_perf_system(self):
        """Perf is measured by ``bench/`` alone, judged parent-vs-change:
        no doc or CI file points at a throughput gate script or a
        committed throughput baseline."""
        gate = re.compile(r"check_\w+_throughput\b|\w+_throughput_\w*baseline\.json")
        files = [REPO / "README.md", REPO / "DESIGN.md"] + [
            p
            for root in (DOCS, REPO / ".github")
            for p in sorted(root.rglob("*"))
            if p.is_file()
        ]
        named = [
            f"{p.relative_to(REPO)}: {m}"
            for p in files
            for m in gate.findall(p.read_text(encoding="utf-8"))
        ]
        assert not named, "second perf system named:\n  " + "\n  ".join(named)


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
}


def _top_level_names(tree):
    """Public names a module binds at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
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


#: Where a strategy name counts as used: what runs, records, shows or
#: checks experiments outside ``tests/``, plus the scenario and config tables.
STRATEGY_READERS = (
    "bench",
    "benchmarks",
    "results",
    "examples",
    ".github",
    "src/repro/scenarios",
    "src/repro/harness/config.py",
)


class TestStrategyCatalogue:
    """The strategy twin of :class:`TestPublicSurface`: a strategy in
    ``KNOWN_STRATEGIES`` that no benchmark, recorded result, example, CI
    step, scenario or config names is kept alive by its own tests only."""

    def test_every_strategy_is_named_outside_tests(self):
        from repro.harness import KNOWN_STRATEGIES

        texts = [
            path.read_text(encoding="utf-8")
            for root in map(REPO.joinpath, STRATEGY_READERS)
            for path in ([root] if root.is_file() else sorted(root.rglob("*")))
            if path.is_file() and path.suffix in (".py", ".json", ".txt", ".yml", ".md")
        ]
        unnamed = [
            name
            for name in KNOWN_STRATEGIES
            if not any(f'"{name}"' in text or f"'{name}'" in text for text in texts)
        ]
        assert not unnamed, (
            "strategies only tests name -- give each a user or delete it: "
            + ", ".join(unnamed)
        )


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


#: Config fields no non-test caller sets, each kept on purpose.
CONFIG_KNOB_ALLOWLIST = {
    "per_core_rate": "part of the hello-ack shape check; removing it changes the handshake",
    "n_clients": "only the single-client builder property test sets it; left for later",
}


def _passes_through(name, value):
    """``x=x`` / ``x=<obj>.x``: forwarding a value, not choosing one --
    except ``args.x``, which is what the CLI's user chose."""
    if isinstance(value, ast.Name):
        return value.id == name
    return (
        isinstance(value, ast.Attribute)
        and value.attr == name
        and not (isinstance(value.value, ast.Name) and value.value.id == "args")
    )


def _string(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _config_setters(field_names, own_module):
    """The fields some code in ``src/`` (outside ``own_module``), ``bench/``
    or ``benchmarks/`` sets: by a call keyword, a dict key (literal or
    ``d["x"] = ...``) or a sweep ``parameter=`` string, unless it only
    passes the value through."""
    paths = [p for p in (REPO / "src").rglob("*.py") if p != own_module]
    paths += (REPO / "bench").rglob("*.py")
    paths += (REPO / "benchmarks").rglob("*.py")
    setters = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                pairs = [(kw.arg, kw.value) for kw in node.keywords if kw.arg]
            elif isinstance(node, ast.Dict):
                pairs = [(_string(k), v) for k, v in zip(node.keys, node.values)]
            elif isinstance(node, ast.Assign):
                pairs = [
                    (_string(t.slice), node.value)
                    for t in node.targets
                    if isinstance(t, ast.Subscript)
                ]
            else:
                continue
            for name, value in pairs:
                if name == "parameter" and _string(value):
                    name = _string(value).rsplit(".", 1)[-1]
                elif _passes_through(name, value):
                    continue
                if name in field_names:
                    setters.add(name)
    return setters


def _unset_config_fields():
    """``{"Class.field": field}`` for every config field without a setter."""
    import dataclasses

    from repro.cluster import topology
    from repro.harness import config

    unset = {}
    for cls, module in (
        (config.ExperimentConfig, config),
        (topology.ClusterSpec, topology),
    ):
        fields = {f.name for f in dataclasses.fields(cls)}
        setters = _config_setters(fields, Path(module.__file__).resolve())
        unset.update((f"{cls.__name__}.{n}", n) for n in fields - setters)
    return unset


class TestConfigKnobs:
    """The config twin of :class:`TestEnvironmentKnobs`: an
    ``ExperimentConfig`` / ``ClusterSpec`` field that only tests ever set
    doubles the configurations to cover for a value nothing runs."""

    def test_every_field_is_set_by_a_non_test_caller_or_allowlisted(self):
        unset = sorted(
            qualified
            for qualified, name in _unset_config_fields().items()
            if name not in CONFIG_KNOB_ALLOWLIST
        )
        assert not unset, (
            "config fields only tests set -- make each a constant, or "
            "allowlist it with a reason:\n  " + "\n  ".join(unset)
        )

    def test_allowlist_is_not_stale(self):
        """Every allowlisted name is a field that still has no setter."""
        assert set(CONFIG_KNOB_ALLOWLIST) <= set(_unset_config_fields().values())
