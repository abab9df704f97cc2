"""Tests for result export plus fast smoke runs of the remaining
experiment drivers (the heavy versions live in ``benchmarks/``)."""

import csv
import functools
import json

import pytest

from repro.bench.export import export, export_csv, export_json
from repro.bench import experiments
from repro.cli import main

ROWS = [
    {"policy": "AM-TCO", "tco_savings_pct": 43.9, "faults": 468},
    {"policy": "TMO*", "tco_savings_pct": 26.0, "faults": 638},
]


class TestExport:
    def test_json_roundtrip(self, tmp_path):
        path = export_json(ROWS, tmp_path / "rows.json")
        assert json.loads(path.read_text()) == ROWS

    def test_csv_header_union(self, tmp_path):
        rows = [{"a": 1}, {"a": 2, "b": "x"}]
        path = export_csv(rows, tmp_path / "rows.csv")
        with path.open() as handle:
            parsed = list(csv.DictReader(handle))
        assert parsed[0]["a"] == "1" and parsed[0]["b"] == ""
        assert parsed[1]["b"] == "x"

    def test_dispatch_by_suffix(self, tmp_path):
        assert export(ROWS, tmp_path / "r.json").suffix == ".json"
        assert export(ROWS, tmp_path / "r.csv").suffix == ".csv"
        with pytest.raises(ValueError, match="unsupported"):
            export(ROWS, tmp_path / "r.xlsx")

    def test_numpy_values_normalised(self, tmp_path):
        import numpy as np

        rows = [{"x": np.int64(3), "y": np.array([1, 2])}]
        path = export_json(rows, tmp_path / "np.json")
        assert json.loads(path.read_text()) == [{"x": 3, "y": [1, 2]}]

    def test_empty_csv(self, tmp_path):
        path = export_csv([], tmp_path / "empty.csv")
        assert path.read_text() == ""

    def test_cli_out_flag(self, tmp_path, capsys):
        out = tmp_path / "tab01.json"
        assert main(["run", "tab01", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 63
        assert "results written" in capsys.readouterr().out


class TestDriverSmoke:
    """Tiny-window runs of drivers not otherwise covered in tests/."""

    def test_fig10_smoke(self):
        rows = experiments.fig10_knob_sweep(
            alphas=(0.3, 0.7), thresholds=(25.0,), windows=3, seed=0
        )
        assert len(rows) == 2 + 4  # 2 AM points + 4 baselines at one pct
        am = [r for r in rows if r["config"].startswith("AM(")]
        assert am[0]["tco_savings_pct"] > am[1]["tco_savings_pct"]

    def test_fig11_smoke(self):
        rows = experiments.fig11_tail_latency(
            policies=("tmo", "am-perf"), windows=3, seed=0
        )
        by_policy = {r["policy"]: r for r in rows}
        assert by_policy["AM-perf"]["p999_norm"] <= by_policy["TMO*"]["p999_norm"]

    def test_fig12_smoke(self):
        rows = experiments.fig12_spectrum_placement(windows=3, seed=0)
        assert len(rows) == 6
        assert {r["config"] for r in rows} == {
            "WF-C", "WF-M", "WF-A", "AM-C", "AM-M", "AM-A",
        }

    def test_fig14_smoke(self):
        rows = experiments.fig14_tax(windows=3, seed=0)
        configs = {r["config"] for r in rows}
        assert {"baseline", "only-profiling", "AM-TCO-Local"} <= configs
        by_config = {r["config"]: r for r in rows}
        assert by_config["baseline"]["tax_pct_of_app"] == 0
        assert by_config["only-profiling"]["solver_ms"] == 0

    def test_sla_smoke(self):
        rows = experiments.exp_sla(targets=(0.05,), windows=5, seed=0)
        assert len(rows) == 1
        assert rows[0]["tco_savings_pct"] > 0

    def test_extended_baselines_smoke(self):
        rows = experiments.exp_extended_baselines(windows=3, seed=0)
        assert {r["policy"] for r in rows} == {
            "HeMem*", "TPP*(NVMM)", "MEMTIS*(NVMM)", "AM-TCO",
        }


@pytest.mark.parametrize(
    "name, forwarded",
    [
        ("tab01", {}),
        ("fig02", {"seed": 1}),
        ("fig08", {"windows": 3, "seed": 1}),
    ],
)
def test_cli_forwards_only_the_flags_a_driver_takes(
    name, forwarded, monkeypatch, capsys
):
    """``run`` passes --windows/--seed only to drivers whose signature
    has them: the tables take neither, Fig. 2 only a seed."""
    from repro import cli

    driver, description = cli.EXPERIMENTS[name]
    calls = []

    @functools.wraps(driver)
    def spy(**kwargs):
        calls.append(kwargs)
        return driver(**kwargs)

    monkeypatch.setitem(cli.EXPERIMENTS, name, (spy, description))
    assert main(["run", name, "--windows", "3", "--seed", "1"]) == 0
    assert calls == [forwarded]
    assert capsys.readouterr().out.strip()
