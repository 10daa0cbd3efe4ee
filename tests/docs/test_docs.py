"""Documentation lint: docstrings, link integrity, CLI-reference sync, surface.

Eleven guarantees, run in CI's ``docs`` job:

* every module, public class and public function in
  ``src/repro/placement/`` carries a docstring (the layer the docs book
  leans on hardest);
* every relative link in ``docs/*.md`` (and the README) resolves to a
  real file, every ``*.md`` named under ``src/``, ``benchmarks/`` or
  ``docs/`` exists, and every ``repro <command>`` mentioned in the docs
  is a real subcommand of the live parser;
* ``docs/cli.md`` matches what ``repro docs-cli`` renders from the
  argparse tree -- the CLI reference cannot drift;
* every subcommand is run by a tier-1 test or a CI step -- a command
  nothing runs cannot silently rot;
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
  field only tests set is a constant too;
* every default a tuning constructor keeps (C3, hedging, credits, the
  servers, the rings, the firehose, ...) or a ``@dataclass`` field under
  ``src/`` carries is set by some caller outside ``tests/`` -- a default
  only tests override is a constant as well;
* every file in ``examples/`` is run by CI's ``docs`` job;
* every ``results/`` artifact has a row in ``docs/results.md``'s
  inventory, which names the command that writes it.
"""

import ast
import collections
import importlib
import inspect
import os
import pstats
import re
import shlex
import subprocess
import sys
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
        assert "python -m cProfile -s tottime -m repro run" in text
        assert "python -m cProfile -o" in text
        assert "bench/run.py" in text
        assert "BENCHMARK.json" in text

    def test_documented_profile_commands_run(self, tmp_path):
        """The ``python -m cProfile`` console block runs as written, at 300
        tasks and with its stats file under ``tmp_path``."""
        text = (DOCS / "performance.md").read_text(encoding="utf-8")
        section = text.split("### `python -m cProfile`", 1)[1]
        block = section.split("```console", 1)[1].split("```", 1)[0]
        commands = [
            line[2:] for line in block.splitlines() if line.startswith("$ ")
        ]
        assert len(commands) == 3
        stats = tmp_path / "run.prof"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        outputs = []
        for command in commands:
            command = command.replace("/tmp/run.prof", str(stats))
            command = re.sub(r"--tasks \d+", "--tasks 300", command)
            argv = shlex.split(command)
            assert argv[0] == "python"
            done = subprocess.run(
                [sys.executable, *argv[1:]], env=env, cwd=tmp_path,
                capture_output=True, text=True, timeout=120,
            )  # fmt: skip
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        for out in (outputs[0], outputs[2]):
            assert "function calls" in out
            assert "ncalls" in out and "tottime" in out
        profiled = pstats.Stats(str(stats)).stats
        assert any(
            Path(filename).is_relative_to(REPO / "src" / "repro")
            for filename, _, _ in profiled
        )

    def test_no_doc_names_a_second_perf_system(self):
        """Perf is measured by ``bench/`` alone, judged parent-vs-change:
        no doc or CI file points at a throughput gate script, a
        committed throughput baseline or a profiling subcommand of our own."""
        gate = re.compile(
            r"check_\w+_throughput\b|\w+_throughput_\w*baseline\.json|repro profile\b"
        )
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


def _argv_heads(tree):
    """The command words of every list literal: its leading string
    constants, after ``"repro"`` where the list spawns ``-m repro``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.List):
            words = [_string(elt) for elt in node.elts]
            if "repro" in words:
                words = words[words.index("repro") + 1:]
            if None in words:
                words = words[: words.index(None)]
            yield tuple(words[:2])


class TestSubcommandCoverage:
    """The CLI twin of :class:`TestStrategyCatalogue`: a subcommand that no
    tier-1 test runs and no CI step runs is a command nothing checks."""

    def test_every_subcommand_is_run_by_a_test_or_ci(self):
        from repro.cli import _subcommands

        heads = {
            head
            for path in sorted((REPO / "tests").rglob("test_*.py"))
            for head in _argv_heads(ast.parse(path.read_text(encoding="utf-8")))
        }
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
        for line in ci.splitlines():
            if not line.strip().startswith(("- name:", "name:")):
                heads.update(
                    re.findall(r"\brepro ([a-z][a-z0-9-]*)(?: ([a-z][a-z0-9-]*))?", line)
                )
        heads |= {head[:1] for head in heads}
        commands = _subcommands(build_parser())
        wanted = [(name,) for name in commands] + [
            (name, sub) for name, p in commands.items() for sub in _subcommands(p)
        ]
        unrun = [" ".join(w) for w in wanted if w not in heads]
        assert len(wanted) >= 15  # the walk found the commands there are
        assert not unrun, (
            "subcommands no tier-1 test and no CI step runs -- test them, "
            "run them in CI, or delete them: " + ", ".join(unrun)
        )


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
    "src/repro/artifacts.py",
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
        assert len(read) >= 2  # the scan found the knobs there are
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


#: One value some code hands to a name (see :class:`_Program`).
_Handed = collections.namedtuple("_Handed", "callee name value scope positional")


def _params(function):
    """``function``'s parameter names in order (``self``/``cls`` dropped,
    keyword-only ones last) and the set of those with a default."""
    args = function.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    defaulted = set(positional[len(positional) - len(args.defaults):])
    defaulted |= {
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    }
    return positional + [a.arg for a in args.kwonlyargs], defaulted


def _is_dataclass(cls):
    """Whether ``cls`` is decorated ``@dataclass`` and left it to generate
    ``__init__``.  The ``@slots_dataclass`` per-request records are not
    included: their defaulted fields are life-cycle slots the service path
    writes after construction, not values a caller chooses."""
    for decorator in cls.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        func = call.func if call else decorator
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "dataclass":
            return not any(
                kw.arg == "init" and _constant(kw.value) is False
                for kw in (call.keywords if call else ())
            )
    return False


def _constant(node):
    return node.value if isinstance(node, ast.Constant) else None


def _dataclass_init(cls):
    """The ``__init__`` a ``@dataclass`` generates, as a function node: one
    parameter per field in order, ClassVars and ``init=False`` fields left
    out, a default where the field has one."""
    params, defaults = [ast.arg("self")], []
    for item in cls.body:
        if not isinstance(item, ast.AnnAssign) or not isinstance(item.target, ast.Name):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and ast.unparse(value.func).endswith("field"):
            options = {kw.arg: kw.value for kw in value.keywords}
            if _constant(options.get("init", ast.Constant(True))) is False:
                continue
            if not {"default", "default_factory"} & set(options):
                value = None
        params.append(ast.arg(item.target.id))
        if value is not None:
            defaults.append(value)
    arguments = ast.arguments(
        posonlyargs=[], args=params, vararg=None, kwonlyargs=[],
        kw_defaults=[], kwarg=None, defaults=defaults,
    )
    return ast.FunctionDef(
        name="__init__", args=arguments, body=[], decorator_list=[]
    )


class _Program:
    """Every value the program files hand to a name, and the functions
    they define -- the one AST finder behind both knob guards.

    ``values`` holds a :class:`_Handed` ``(callee, name, value, scope,
    positional)`` for each call argument (keywords; positional ones
    named by the callee's parameters, where the files define the callee
    once; ``**kw`` as name ``"**"``), each dict key (literal or
    ``d["x"] = ...``, callee ``None``) and each sweep ``parameter=``
    string.  ``callee`` is the called name, with ``cls(...)`` and
    ``type(self)(...)`` resolved to the enclosing class and its
    subclasses; ``scope`` is ``(enclosing class, enclosing functions,
    innermost first)``.  ``defs`` maps a callable's name (a class's for
    its ``__init__``, generated for a ``@dataclass``) to its one
    definition: ``(node, class name)``; ``dataclasses`` names the classes
    whose ``__init__`` is generated.
    """

    def __init__(self, paths):
        trees = [ast.parse(p.read_text(encoding="utf-8")) for p in paths]
        found = {}
        self.bases = {}
        self.dataclasses = set()
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.bases[node.name] = {
                        b.id for b in node.bases if isinstance(b, ast.Name)
                    }
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            key = node.name if item.name == "__init__" else item.name
                            found.setdefault(key, []).append((item, node.name))
                    if _is_dataclass(node):
                        self.dataclasses.add(node.name)
                        init = (_dataclass_init(node), node.name)
                        found.setdefault(node.name, []).append(init)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.setdefault(node.name, []).append((node, None))
        # A method is also walked as a plain function: keep the classed one.
        self.defs = {
            key: next((d for d in defs if d[1]), defs[0])
            for key, defs in found.items()
            if len({id(d[0]) for d in defs}) == 1
        }
        self.values = []
        for tree in trees:
            self._walk(tree, None, ())

    def _family(self, cls):
        """``cls`` and every class the files derive from it."""
        family = {cls}
        grown = True
        while grown:
            grown = False
            for name, bases in self.bases.items():
                if name not in family and bases & family:
                    family.add(name)
                    grown = True
        return family

    def _callees(self, func, cls):
        if isinstance(func, ast.Name):
            return self._family(cls) if func.id == "cls" and cls else {func.id}
        if isinstance(func, ast.Attribute):
            return {func.attr}
        if (
            isinstance(func, ast.Call)
            and isinstance(func.func, ast.Name)
            and func.func.id == "type"
            and cls
        ):
            return self._family(cls)
        return set()

    def _walk(self, node, cls, functions):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._walk(child, child.name, ())
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk(child, cls, (child,) + functions)
                continue
            self._record(child, (cls, functions))
            self._walk(child, cls, functions)

    def _record(self, node, scope):
        add = self.values.append
        if isinstance(node, ast.Call):
            for callee in self._callees(node.func, scope[0]) or {None}:
                for kw in node.keywords:
                    add(_Handed(callee, kw.arg or "**", kw.value, scope, False))
                definition = self.defs.get(callee)
                if definition is None:
                    continue
                names = _params(definition[0])[0]
                for name, value in zip(names, node.args):
                    if isinstance(value, ast.Starred):
                        break
                    add(_Handed(callee, name, value, scope, True))
            for kw in node.keywords:
                if kw.arg == "parameter" and _string(kw.value):
                    name = _string(kw.value).rsplit(".", 1)[-1]
                    add(_Handed(None, name, ast.Constant(None), scope, False))
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if _string(key):
                    add(_Handed(None, _string(key), value, scope, False))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and _string(target.slice):
                    add(_Handed(None, _string(target.slice), node.value, scope, False))

    # -- constructor knobs ------------------------------------------------
    def sets(self, callee, name, _seen=frozenset()):
        """Whether some call outside ``callee``'s own body passes ``name``
        a value that is not just the forward of a default nobody sets."""
        if (callee, name) in _seen:
            return False
        seen = _seen | {(callee, name)}
        own = self.defs.get(callee, (None,))[0]
        for handed in self.values:
            if handed.callee != callee or handed.name not in (name, "**"):
                continue
            cls, functions = handed.scope
            if own is not None and own in functions:
                continue
            if handed.name == "**":
                source = self._forwarded_from(handed.value, cls, functions, "**")
                if source and self.sets(source, name, seen):
                    return True
                continue
            source = self._forwarded_from(handed.value, cls, functions, name)
            if source is None or self.sets(source, name, seen):
                return True
        return False

    def _forwarded_from(self, value, cls, functions, name):
        """The callable whose *defaulted* parameter ``value`` forwards
        (``x=x``, ``x=self.x``, ``**kw``), or None when ``value`` is a
        choice: a literal, an expression, or a required parameter."""
        if isinstance(value, ast.Name):
            for function in functions:
                names, defaulted = _params(function)
                if name == "**" and function.args.kwarg is not None:
                    if function.args.kwarg.arg == value.id:
                        return self._key(function, cls)
                if value.id in names:
                    if value.id == name and value.id in defaulted:
                        return self._key(function, cls)
                    return None
            return None
        if (
            isinstance(value, ast.Attribute)
            and value.attr == name
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and cls in self.defs
        ):
            if name in _params(self.defs[cls][0])[1]:
                return cls
        return None

    @staticmethod
    def _key(function, cls):
        return cls if function.name == "__init__" and cls else function.name


def _program(roots, skip=None):
    """A :class:`_Program` over every ``.py`` under ``roots`` but ``skip``."""
    return _Program(
        path
        for root in roots
        for path in sorted((REPO / root).rglob("*.py"))
        if path != skip
    )


def _config_setters(field_names, own_module):
    """The fields some code in ``src/`` (outside ``own_module``), ``bench/``
    or ``benchmarks/`` sets: by a call keyword, a dict key (literal or
    ``d["x"] = ...``) or a sweep ``parameter=`` string, unless it only
    passes the value through."""
    program = _program(("src", "bench", "benchmarks"), skip=own_module)
    return {
        handed.name
        for handed in program.values
        if handed.name in field_names
        and not handed.positional
        and not _passes_through(handed.name, handed.value)
    }


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


#: Where the tuning values of both sides of the paper's comparison live:
#: ``(module, callable)``.  Each default these keep must be one a caller
#: outside ``tests/`` sets; a value nothing sets is a module constant.
KNOB_CALLABLES = (
    ("repro.baselines.c3", "C3Strategy"),
    ("repro.baselines.c3", "C3Record"),
    ("repro.baselines.hedging", "HedgedStrategy"),
    ("repro.core.credits", "CreditsController"),
    ("repro.core.credits", "CreditGate"),
    ("repro.core.credits", "equal_initial_shares"),
    ("repro.cluster.server", "BackendServer"),
    ("repro.serve.server", "LiveServer"),
    ("repro.serve.server", "LiveServer.from_config"),
    ("repro.serve.workers", "LiveWorker"),
    ("repro.trace.recorder", "TraceRecorder"),
    ("repro.placement.ring", "RingPlacement"),
    ("repro.placement.ring", "ConsistentHashRing"),
    ("repro.sim.engine", "Environment"),
    ("repro.workload.calibration", "calibrate_service_model"),
    ("repro.workload.popularity", "ZipfPopularity"),
    ("repro.loadgen.firehose", "run_firehose"),
)


#: Dataclasses whose fields :class:`TestConfigKnobs` checks instead.
CONFIG_DATACLASSES = frozenset({"ExperimentConfig", "ClusterSpec"})


def _unset_constructor_defaults():
    """``"callable(parameter)"`` for every defaulted parameter of
    :data:`KNOB_CALLABLES`, and ``"Class.field"`` for every defaulted
    field of a ``@dataclass`` under ``src/`` (but
    :data:`CONFIG_DATACLASSES`), that no caller in ``src/``, ``bench/``,
    ``benchmarks/`` or ``examples/`` sets."""
    program = _program(("src", "bench", "benchmarks", "examples"))
    dataclasses = _program(("src",)).dataclasses - CONFIG_DATACLASSES
    unset = []
    for cls in sorted(dataclasses):
        assert cls in program.defs, f"dataclass {cls} is not defined once"
        names, defaulted = _params(program.defs[cls][0])
        unset += [
            f"{cls}.{name}"
            for name in names
            if name in defaulted and not program.sets(cls, name)
        ]
    for module, qualname in KNOB_CALLABLES:
        target = importlib.import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part)
        callee = qualname.rsplit(".", 1)[-1]
        assert callee in program.defs, f"{qualname} is not defined once"
        unset += [
            f"{qualname}({name})"
            for name, parameter in inspect.signature(target).parameters.items()
            if parameter.default is not inspect.Parameter.empty
            and not program.sets(callee, name)
        ]
    return unset


class TestConstructorKnobs:
    """The constructor twin of :class:`TestConfigKnobs`: a default no run,
    scenario, bench workload or example overrides is a tuning value with
    a second spelling (the parameter) that only tests use.  A keyword, a
    positional argument and a forward (``x=x``, ``x=self.x``, ``**kw``)
    of a value some caller sets all count; a ``@dataclass`` field is a
    parameter of the ``__init__`` the decorator generates."""

    def test_every_default_is_set_by_a_non_test_caller(self):
        unset = _unset_constructor_defaults()
        assert not unset, (
            "defaults only tests override -- make each a module constant next "
            "to the code that reads it:\n  " + "\n  ".join(unset)
        )

    def test_the_finder_follows_forwards(self, tmp_path):
        """Each way of handing a value on is followed to where it is
        chosen: positional, ``cls(...)``, ``x=x``, ``x=self.x`` and
        ``**kw``; a forward of a default nobody sets sets nothing."""
        source = tmp_path / "program.py"
        source.write_text(
            "class Server:\n"
            "    def __init__(self, port=0, queue=10, seed=1, cores=2): ...\n"
            "    @classmethod\n"
            "    def make(cls, port=0, queue=10):\n"
            "        return cls(port=port, queue=queue)\n"
            "class Pool:\n"
            "    def __init__(self, seed, cores=4):\n"
            "        self.seed, self.cores = seed, cores\n"
            "    def grow(self):\n"
            "        Server(seed=self.seed, cores=self.cores)\n"
            "def serve(**options):\n"
            "    Server.make(**options)\n"
            "serve(port=5)\n"
            "Pool(3)\n"
        )
        program = _Program([source])
        assert program.sets("Server", "port")  # make's cls(...) <- serve's **
        assert program.sets("Server", "seed")  # self.seed <- required seed
        assert program.sets("Pool", "seed")  # positional
        assert not program.sets("Server", "queue")  # make's default, unset
        assert not program.sets("Server", "cores")  # Pool's default, unset

    def test_the_finder_reads_dataclass_fields(self, tmp_path):
        """A ``@dataclass`` is called through the ``__init__`` it generates:
        fields by keyword or position, ClassVars and ``init=False`` fields
        not parameters at all."""
        source = tmp_path / "program.py"
        source.write_text(
            "import dataclasses, typing\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class Window:\n"
            "    kind: typing.ClassVar[str] = 'w'\n"
            "    size: float\n"
            "    step: float = 1.0\n"
            "    slack: int = 0\n"
            "    cache: dict = dataclasses.field(default_factory=dict, init=False)\n"
            "    tag: str = dataclasses.field(default='x')\n"
            "Window(2.0, 0.5)\n"
        )
        program = _Program([source])
        assert program.dataclasses == {"Window"}
        names, defaulted = _params(program.defs["Window"][0])
        assert names == ["size", "step", "slack", "tag"]
        assert defaulted == {"step", "slack", "tag"}
        assert program.sets("Window", "step")  # positional
        assert not program.sets("Window", "slack")


class TestExamplesRun:
    """Every file in ``examples/`` is run by CI's ``docs`` job: an example
    nothing runs can break without anyone noticing."""

    def test_every_example_is_in_the_ci_loop(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
        loop = re.search(r"for example in (.*?); do", ci, re.S)
        assert loop, "the docs job's examples loop is gone"
        entries = shlex.split(loop.group(1).replace("\\\n", " "))
        run = {shlex.split(entry)[0] for entry in entries}
        examples = {path.name for path in (REPO / "examples").glob("*.py")}
        assert len(examples) >= 5
        assert examples <= run, (
            "examples CI does not run: " + ", ".join(sorted(examples - run))
        )
        assert run <= examples, (
            "CI runs examples that are gone: " + ", ".join(sorted(run - examples))
        )


class TestResultsInventory:
    """Every recorded artifact is in ``docs/results.md``'s inventory: a
    file in ``results/`` whose producer nobody can find cannot be
    re-derived."""

    def test_every_artifact_has_an_inventory_row(self):
        from repro.artifacts import ARTIFACTS

        text = (DOCS / "results.md").read_text(encoding="utf-8")
        inventory = text[text.index("## Artifact inventory"):]
        assert len(ARTIFACTS) >= 15
        missing = [
            stem
            for stem in ARTIFACTS
            if f"| `{stem}.{{txt,json}}` | `repro record {stem}` |" not in inventory
        ]
        assert not missing, (
            "results/ artifacts docs/results.md does not inventory: "
            + ", ".join(missing)
        )
