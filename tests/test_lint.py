"""The `repro lint` invariant checker (ISSUE 8).

Three layers:

* per-rule-family positives and negatives against the seeded fixture
  modules in ``tests/lint_fixtures/`` — every family must fire exactly
  where a violation was planted and stay silent on the idiomatic
  control;
* engine behaviour — baseline round-trip, waiving, staleness, parse
  failures, and the CLI's exit-code contract;
* the tier-1 gate: ``src/`` must be finding-free modulo the checked-in
  baseline (which this suite also pins to *empty*, so grandfathering a
  new violation is a reviewed diff, never an accident).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.io.cli import main as cli_main
from repro.lint import (
    BASELINE_SCHEMA,
    apply_baseline,
    load_baseline,
    render_findings,
    rule_catalog,
    run_lint,
    write_baseline,
)

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "lint_fixtures"

RULE_FAMILIES = (
    "rng",
    "determinism",
    "lock-discipline",
    "sqlite-thread",
    "registry",
)


def lint_fixture(subdir: str):
    """Findings for one fixture directory, keyed relative to fixtures root."""
    return run_lint([FIXTURES / subdir], root=FIXTURES)


def fired(findings):
    """``{(rule, path, line), ...}`` for exact-location assertions."""
    return {(f.rule, f.path, f.line) for f in findings}


# -- rule families: positive + negative per family ---------------------


class TestRngRule:
    def test_fires_on_direct_construction(self):
        findings = lint_fixture("rng_bad")
        hits = fired(findings)
        mod = "rng_bad/harness_mod.py"
        assert ("RNG001", mod, 8) in hits  # np.random.Generator + PCG64
        assert ("RNG001", mod, 9) in hits  # from-import default_rng
        assert ("RNG001", mod, 10) in hits  # np.random.seed
        # line 8 carries both the Generator and the PCG64 construction
        assert len(findings) == 4
        assert {f.rule for f in findings} == {"RNG001"}

    def test_silent_on_rng_module_and_consumers(self):
        assert lint_fixture("rng_clean") == []


class TestDeterminismRule:
    def test_fires_in_core_scope(self):
        hits = fired(lint_fixture("det_bad"))
        mod = "det_bad/core/clockwork.py"
        assert ("DET001", mod, 10) in hits  # time.time
        assert ("DET001", mod, 11) in hits  # datetime.now
        assert ("DET001", mod, 12) in hits  # os.urandom
        assert ("DET002", mod, 14) in hits  # for over set literal
        assert ("DET002", mod, 16) in hits  # comprehension over set()
        assert ("DET003", mod, 17) in hits  # json.dumps, no sort_keys
        assert ("DET003", mod, 18) in hits  # sort_keys=False
        assert len(hits) == 7

    def test_silent_on_pure_idioms_and_out_of_scope_clocks(self):
        assert lint_fixture("det_clean") == []


class TestLockRule:
    def test_fires_on_unguarded_access(self):
        hits = fired(lint_fixture("lock_bad"))
        mod = "lock_bad/batcher_mod.py"
        assert ("LCK001", mod, 16) in hits  # module global read lock-free
        assert ("LCK001", mod, 31) in hits  # self._flights read lock-free
        assert ("LCK001", mod, 34) in hits  # self._count write lock-free
        assert len(hits) == 3

    def test_silent_on_disciplined_code(self):
        # Includes the caller-holds-the-lock helper pattern (runner.py's
        # _build_host_cached) and init-only config attributes.
        assert lint_fixture("lock_clean") == []


class TestSqliteRule:
    def test_fires_on_undisciplined_owner(self):
        findings = lint_fixture("sql_bad")
        hits = fired(findings)
        mod = "sql_bad/store_mod.py"
        assert ("SQL003", mod, 6) in hits  # no get_ident assert
        assert ("SQL002", mod, 12) in hits  # direct handle use in get()
        assert ("SQL001", mod, 19) in hits  # foreign touch
        assert len(hits) == 3
        assert all(f.hint for f in findings)

    def test_silent_on_workqueue_shape(self):
        assert lint_fixture("sql_clean") == []


class TestRegistryRule:
    def test_fires_on_incomplete_registry(self):
        findings = lint_fixture("registry_bad")
        mod = "registry_bad/spec_mod.py"
        by_rule = {f.rule: f for f in findings}
        assert set(by_rule) == {"REG001", "REG002", "REG003"}
        assert "fix_ghost" in by_rule["REG001"].message
        assert "fix_ghost" in by_rule["REG002"].message
        assert "FixAlpha" in by_rule["REG003"].message
        assert "step_batch" in by_rule["REG003"].message
        assert all(f.path == mod for f in findings)

    def test_silent_on_complete_registry(self):
        # Covers dict-valued branches and step_batch resolution through
        # an abstract base + an inheriting subclass.
        assert lint_fixture("registry_clean") == []


# -- engine + CLI behaviour --------------------------------------------


class TestEngine:
    def test_parse_failure_is_a_finding_not_a_crash(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        findings = run_lint([tmp_path], root=tmp_path)
        assert [f.rule for f in findings] == ["PARSE"]
        assert findings[0].path == "broken.py"

    def test_baseline_round_trip_and_waiving(self, tmp_path):
        findings = lint_fixture("rng_bad")
        assert findings
        baseline_path = tmp_path / "baseline.json"
        write_baseline(findings, baseline_path)
        baseline = load_baseline(baseline_path)
        new, waived, stale = apply_baseline(findings, baseline)
        assert new == [] and stale == []
        assert len(waived) == len(findings)

    def test_stale_baseline_entries_are_reported(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(lint_fixture("rng_bad"), baseline_path)
        new, waived, stale = apply_baseline([], load_baseline(baseline_path))
        assert new == [] and waived == []
        assert stale and all(e["rule"] == "RNG001" for e in stale)

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": "nope", "findings": []}))
        with pytest.raises(ValueError, match="not a lint baseline"):
            load_baseline(path)
        path.write_text(json.dumps({"schema": BASELINE_SCHEMA, "findings": [{}]}))
        with pytest.raises(ValueError, match="rule/path/message"):
            load_baseline(path)

    def test_render_carries_location_rule_and_hint(self):
        findings = lint_fixture("sql_bad")
        text = render_findings(findings)
        assert "sql_bad/store_mod.py:19: SQL001" in text
        assert "hint:" in text
        assert "hint:" not in render_findings(findings, hints=False)

    def test_rule_catalog_covers_every_family(self):
        assert [e["family"] for e in rule_catalog()] == list(RULE_FAMILIES)


class TestCli:
    def test_exit_zero_on_clean_tree(self, monkeypatch, capsys):
        monkeypatch.chdir(FIXTURES)
        assert cli_main(["lint", "det_clean"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_violations(self, monkeypatch, capsys):
        monkeypatch.chdir(FIXTURES)
        assert cli_main(["lint", "rng_bad"]) == 1
        assert "RNG001" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, monkeypatch, capsys):
        monkeypatch.chdir(FIXTURES)
        assert cli_main(["lint", "no_such_dir"]) == 2

    def test_json_format(self, monkeypatch, capsys):
        monkeypatch.chdir(FIXTURES)
        assert cli_main(["lint", "sql_bad", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {
            "SQL001",
            "SQL002",
            "SQL003",
        }

    def test_baseline_waives_and_write_baseline(self, monkeypatch, capsys, tmp_path):
        monkeypatch.chdir(FIXTURES)
        baseline = tmp_path / "b.json"
        assert (
            cli_main(
                ["lint", "rng_bad", "--write-baseline", "--baseline", str(baseline)]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            cli_main(["lint", "rng_bad", "--baseline", str(baseline)]) == 0
        )
        assert "waived by baseline" in capsys.readouterr().out


# -- the tier-1 gate ----------------------------------------------------


class TestSourceTreeIsClean:
    def test_checked_in_baseline_is_empty(self):
        baseline = load_baseline(REPO / "lint-baseline.json")
        assert baseline == [], (
            "lint-baseline.json must stay empty: fix the violation or "
            "grandfather it in an explicitly reviewed diff"
        )

    def test_src_has_no_findings(self):
        findings = run_lint([REPO / "src"], root=REPO)
        new, _, _ = apply_baseline(
            findings, load_baseline(REPO / "lint-baseline.json")
        )
        assert new == [], "\n" + render_findings(new)
