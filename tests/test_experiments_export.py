"""Experiment row export (CSV)."""

import csv
import json

import pytest

from repro.experiments.cli import main
from repro.experiments.export import rows_to_csv
from repro.util.exceptions import ConfigurationError


class TestCsv:
    def test_roundtrip(self, tmp_path):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5, "c": "x"}]
        path = rows_to_csv(rows, str(tmp_path / "out.csv"))
        with open(path) as fh:
            back = list(csv.DictReader(fh))
        assert back[0]["a"] == "1"
        assert back[1]["c"] == "x"
        assert back[0]["c"] == ""  # missing key -> empty cell

    def test_list_fields_json_encoded(self, tmp_path):
        rows = [{"hist": [1, 2, 3]}]
        path = rows_to_csv(rows, str(tmp_path / "h.csv"))
        with open(path) as fh:
            back = list(csv.DictReader(fh))
        assert json.loads(back[0]["hist"]) == [1, 2, 3]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            rows_to_csv([], str(tmp_path / "x.csv"))


class TestExportExperiment:
    def test_cli_export_flag(self, tmp_path, capsys):
        rc = main(
            [
                "table2",
                "--preset", "quick",
                "--num-nodes", "80",
                "--datasets", "facebook",
                "--trials", "1",
                "--export", str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "table2.csv").exists()

    def test_cli_export_runs_the_experiment_once(self, tmp_path, monkeypatch):
        from repro.experiments import fig2_hops

        entered = []
        run = fig2_hops.run
        monkeypatch.setattr(fig2_hops, "run", lambda *a, **k: entered.append(1) or run(*a, **k))
        base = ["fig2", "--preset", "quick", "--num-nodes", "80", "--datasets", "facebook",
                "--systems", "select", "--trials", "1"]  # fmt: skip
        lookups = []
        for extra in ([], ["--export", str(tmp_path / "rows")]):
            out = tmp_path / f"telemetry{len(extra)}"
            assert main(base + ["--telemetry", str(out)] + extra) == 0
            with open(out / "report.json") as fh:
                lookups.append(json.load(fh)["metrics"]["counters"]["lookup.events"])
        assert entered == [1, 1]  # one run per invocation, exported or not
        assert lookups[0] == lookups[1] > 0
        with open(tmp_path / "rows" / "fig2.csv") as fh:
            assert list(csv.DictReader(fh))
