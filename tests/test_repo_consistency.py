"""Repository-hygiene tests: docs, benches, and registry stay in sync.

A reproduction's value depends on its index staying truthful: every
experiment id must have a bench target, appear in DESIGN.md, and be
covered by the report generator.  These tests fail the suite when a new
experiment is added without wiring it everywhere.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.harness.registry import _MODULES, all_experiment_ids

REPO = Path(__file__).resolve().parent.parent


class TestExperimentWiring:
    def test_every_experiment_has_a_bench_file(self):
        bench_dir = REPO / "benchmarks"
        bench_sources = " ".join(
            p.read_text(encoding="utf-8") for p in bench_dir.glob("bench_e*.py")
        )
        for eid in all_experiment_ids():
            assert f'"{eid}"' in bench_sources, f"{eid} has no bench target"

    def test_every_experiment_in_design_md(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        for eid in all_experiment_ids():
            assert re.search(rf"\b{eid}\b", design), f"{eid} missing from DESIGN.md"

    def test_module_names_match_ids(self):
        for eid, module in _MODULES.items():
            num = int(eid[1:])
            assert f"e{num:02d}_" in module, (eid, module)

    def test_experiments_md_exists_and_covers_paper_ids(self):
        exp = REPO / "EXPERIMENTS.md"
        assert exp.exists(), "run `python -m repro.harness.report` to generate"
        text = exp.read_text(encoding="utf-8")
        for i in range(1, 13):  # paper experiments must be in the report
            assert f"### E{i} " in text or f"### E{i}—" in text or (
                f"### E{i} —" in text
            ), f"E{i} section missing from EXPERIMENTS.md"


class TestDocsPresence:
    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_doc_exists_nonempty(self, name):
        path = REPO / name
        assert path.exists() and path.stat().st_size > 500, name

    def test_examples_present_and_referenced(self):
        examples = sorted((REPO / "examples").glob("*.py"))
        assert len(examples) >= 5
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        # The quickstart at minimum must be discoverable from the README.
        assert "examples" in readme

    def test_examples_compile_and_have_main(self):
        for path in sorted((REPO / "examples").glob("*.py")):
            source = path.read_text(encoding="utf-8")
            compile(source, str(path), "exec")  # syntax gate
            assert '__name__ == "__main__"' in source, path.name
            assert source.lstrip().startswith(("#!", '"""', "#")), path.name

    def test_quickstart_example_runs(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, str(REPO / "examples" / "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "consensus: red" in proc.stdout

    def test_design_records_substitutions_and_findings(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        assert "Substitutions" in design
        assert "Reproduction findings" in design
        assert "Lemma 6" in design  # the headline soundness finding


class TestPackagingSurface:
    def test_public_api_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_alls_resolve(self):
        import importlib

        for pkg in (
            "repro.graphs",
            "repro.core",
            "repro.dual",
            "repro.baselines",
            "repro.analysis",
            "repro.extensions",
            "repro.harness",
            "repro.io",
            "repro.sweeps",
            "repro.util",
        ):
            module = importlib.import_module(pkg)
            for name in getattr(module, "__all__", []):
                assert getattr(module, name, None) is not None, (pkg, name)


# -- import resolution, by AST only ------------------------------------
#
# Scripts outside ``src/`` (examples, benchmarks, the perfbench harness)
# import library names that no unit test imports for them; a deletion
# in ``src/`` must not leave one of them pointing at nothing.  Nothing
# here imports or runs the scripts: every name is resolved by parsing
# the ``src/repro`` source it names.

SRC = REPO / "src"


def _module_file(dotted: str) -> Path | None:
    base = SRC.joinpath(*dotted.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _top_level(body):
    """Statements bound at module/class level, through ``if``/``try``."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            for branch in (node.body, node.orelse, getattr(node, "finalbody", [])):
                yield from _top_level(branch)
            for handler in getattr(node, "handlers", []):
                yield from _top_level(handler.body)


def _binding(body, name: str):
    """The statement in *body* that binds *name*, or ``None``."""
    for node in _top_level(body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                return node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if any(
                    isinstance(t, ast.Name) and t.id == name
                    for t in ast.walk(target)
                ):
                    return node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if (alias.asname or alias.name.split(".")[0]) == name:
                    return node
    return None


def _resolve(dotted: str, name: str):
    """The definition *name* reaches in module *dotted*, following
    ``from … import`` re-exports; a module counts as its own
    definition.  ``None`` when it does not resolve."""
    path = _module_file(dotted)
    if path is None:
        return None
    node = _binding(ast.parse(path.read_text(encoding="utf-8")).body, name)
    if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        alias = next(a for a in node.names if (a.asname or a.name) == name)
        return _resolve(node.module, alias.name)
    if node is None and _module_file(f"{dotted}.{name}") is not None:
        return _module_file(f"{dotted}.{name}")
    return node


def _unresolved_imports(source: str) -> list[str]:
    """Every ``repro`` import in *source* that names nothing at HEAD."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module == "repro" or (node.module or "").startswith("repro.")
        ):
            if _module_file(node.module) is None:
                missing.append(node.module)
                continue
            missing += [
                f"{node.module}.{a.name}"
                for a in node.names
                if a.name != "*" and _resolve(node.module, a.name) is None
            ]
        elif isinstance(node, ast.Import):
            missing += [
                a.name
                for a in node.names
                if a.name.split(".")[0] == "repro" and _module_file(a.name) is None
            ]
    return missing


def _script_sources() -> list[Path]:
    return sorted(
        p
        for folder in ("examples", "benchmarks", "perfbench")
        for p in (REPO / folder).rglob("*.py")
    )


def _wrap_targets(source: str) -> list[tuple[str, list[str], int]]:
    """``(module, [attr path], line)`` for every ``tracer.wrap_function``
    / ``wrap_method`` call whose target is a module alias bound by
    ``import repro.… as alias`` (loops over discovered subclasses name a
    variable, not a module, and guard themselves)."""
    tree = ast.parse(source)
    aliases = {
        a.asname: a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.asname and a.name.startswith("repro.")
    }
    targets = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("wrap_function", "wrap_method")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            continue
        chain, owner = [node.args[1].value], node.args[0]
        while isinstance(owner, ast.Attribute):
            chain.insert(0, owner.attr)
            owner = owner.value
        if isinstance(owner, ast.Name) and owner.id in aliases:
            targets.append((aliases[owner.id], chain, node.lineno))
    return targets


def _resolve_attr_path(dotted: str, chain: list[str]) -> bool:
    node = _resolve(dotted, chain[0])
    for attr in chain[1:]:
        if not isinstance(node, ast.ClassDef):
            return False
        node = _binding(node.body, attr)
    return node is not None


class TestImportResolution:
    @pytest.mark.parametrize(
        "path", _script_sources(), ids=lambda p: str(p.relative_to(REPO))
    )
    def test_script_imports_resolve(self, path):
        assert _unresolved_imports(path.read_text(encoding="utf-8")) == []

    def test_perfbench_wrap_targets_resolve(self):
        source = (REPO / "perfbench" / "layers.py").read_text(encoding="utf-8")
        targets = _wrap_targets(source)
        assert len(targets) >= 15  # every fixed layer boundary was found
        bad = [t for t in targets if not _resolve_attr_path(t[0], t[1])]
        assert bad == []

    def test_the_guard_sees_a_dangling_name(self):
        source = (
            "from repro.core.ensemble import run_ensemble, no_such_name\n"
            "import repro.core.no_such_module\n"
            "def f():\n"
            "    from repro.sweeps import SweepSpec, gone\n"
        )
        assert _unresolved_imports(source) == [
            "repro.core.ensemble.no_such_name",
            "repro.core.no_such_module",
            "repro.sweeps.gone",
        ]
        assert _resolve_attr_path("repro.sweeps.cache", ["SweepCache", "get"])
        assert not _resolve_attr_path("repro.sweeps.cache", ["SweepCache", "nope"])
        assert not _resolve_attr_path("repro.core.ensemble", ["count_chain_step"])
