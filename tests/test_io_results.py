"""Tests for JSON result serialisation and the CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.experiments import ConsensusEnsemble
from repro.core.ensemble import run_ensemble
from repro.graphs.implicit import CompleteGraph
from repro.harness.base import ExperimentResult
from repro.io.results import (
    ensemble_to_dict,
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
)


def _sample_result() -> ExperimentResult:
    return ExperimentResult(
        experiment_id="EX",
        title="t",
        paper_claim="c",
        columns=["a", "b"],
        rows=[{"a": np.int64(1), "b": np.float64(2.5)}, {"a": 3, "b": True}],
        summary=["s1", "s2"],
        verdict="v",
        passed=True,
        extras={"arr": np.array([1, 2, 3]), "nested": {"x": np.float32(1.5)}},
    )


class TestRoundTrip:
    def test_dict_round_trip(self):
        original = _sample_result()
        payload = result_to_dict(original)
        json.dumps(payload)  # must be JSON-native already
        restored = result_from_dict(payload)
        assert restored.experiment_id == original.experiment_id
        assert restored.passed == original.passed
        assert restored.rows[0]["a"] == 1
        assert restored.extras["arr"] == [1, 2, 3]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "results.json"
        save_results([_sample_result(), _sample_result()], path)
        loaded = load_results(path)
        assert len(loaded) == 2
        assert loaded[0].verdict == "v"

    def test_schema_checked(self, tmp_path):
        with pytest.raises(ValueError, match="schema"):
            result_from_dict({"schema": "other"})
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "nope"}')
        with pytest.raises(ValueError, match="schema"):
            load_results(path)

    def test_unserialisable_extras_stringified(self):
        res = _sample_result()
        res.extras["obj"] = object()
        payload = result_to_dict(res)
        json.dumps(payload)
        assert "unserialisable" in payload["extras"]["obj"]

    def test_real_experiment_round_trips(self, tmp_path):
        from repro.harness.registry import run_experiment

        res = run_experiment("E7", quick=True, seed=0)
        path = tmp_path / "e7.json"
        save_results([res], path)
        back = load_results(path)[0]
        assert back.passed
        assert back.table_markdown() == res.table_markdown()


def _ensemble(graph, *, trials, **kw) -> ConsensusEnsemble:
    return ConsensusEnsemble.from_ensemble_result(
        run_ensemble(graph, replicas=trials, record_trajectories=False, **kw)
    )


class TestEnsembleDict:
    def test_fields(self):
        ens = _ensemble(CompleteGraph(256), trials=4, delta=0.2, seed=1)
        d = ensemble_to_dict(ens)
        json.dumps(d)
        assert d["trials"] == 4
        assert d["red_wins"] == 4
        assert len(d["steps"]) == 4

    def test_nan_mean_becomes_null(self):
        ens = _ensemble(
            CompleteGraph(2048), trials=2, delta=0.01, seed=2, max_steps=1
        )
        d = ensemble_to_dict(ens)
        assert d["mean_steps"] is None

    def test_ensemble_round_trip(self):
        from repro.io.results import ensemble_from_dict

        ens = _ensemble(CompleteGraph(256), trials=4, delta=0.2, seed=1)
        back = ensemble_from_dict(json.loads(json.dumps(ensemble_to_dict(ens))))
        assert back.trials == ens.trials
        assert back.unconverged == ens.unconverged
        assert (back.steps == ens.steps).all()
        assert (back.winners == ens.winners).all()
        # Derived statistics recompute identically from the arrays.
        assert back.red_wins == ens.red_wins
        assert back.mean_steps == ens.mean_steps
        assert back.max_steps == ens.max_steps
        # And the inverse is exact: re-serialising gives the same dict.
        assert ensemble_to_dict(back) == ensemble_to_dict(ens)

    def test_ensemble_from_dict_rejects_foreign_schema(self):
        from repro.io.results import ensemble_from_dict

        with pytest.raises(ValueError, match="schema"):
            ensemble_from_dict({"schema": "other/1"})


class TestCli:
    def test_list(self, capsys):
        from repro.io.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E12" in out

    def test_run_and_save(self, tmp_path, capsys):
        from repro.io.cli import main

        archive = tmp_path / "out.json"
        code = main(["run", "E7", "--save", str(archive)])
        assert code == 0
        assert "SHAPE MATCH" in capsys.readouterr().out
        assert load_results(archive)[0].experiment_id == "E7"

    def test_demo(self, capsys):
        from repro.io.cli import main

        assert main(["demo", "--n", "2000", "--delta", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "consensus: red" in out

    def test_version_flag(self, capsys):
        from repro.io.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro 1.8.0" in capsys.readouterr().out

    def test_run_exit_code_on_failure(self, monkeypatch):
        from repro.io import cli

        failing = ExperimentResult(
            experiment_id="E7",
            title="t",
            paper_claim="c",
            columns=["a"],
            rows=[{"a": 1}],
            summary=[],
            verdict="bad",
            passed=False,
        )
        monkeypatch.setattr(
            "repro.harness.registry.run_experiment",
            lambda eid, **kwargs: failing,
        )
        assert cli.main(["run", "E7"]) == 1
