"""Smoke tests: the experiment scripts run end to end on tiny sizes."""

import csv
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *map(str, args)])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_rate_curve(tmp_path, monkeypatch):
    out = tmp_path / "rate.csv"
    run_script(monkeypatch, "rate_curve.py", "--sizes", 100, "--reps", 2, "--out", out)
    rows = read_rows(out)
    assert len(rows) == 1
    assert set(rows[0]) == {"n", "mean_excess_risk", "se", "tuned_excess_bound"}
    assert int(rows[0]["n"]) == 100


def test_pessimism_payoff(tmp_path, monkeypatch):
    out = tmp_path / "payoff.csv"
    run_script(monkeypatch, "pessimism_payoff.py", "--reps", 5, "--out", out)
    rows = read_rows(out)
    assert set(rows[0]) == {"beta", "mean_excess_risk"}
    assert [r["beta"] for r in rows] == ["0.0", "0.001", "0.01", "0.1", "1.0", "10.0", "grid-by-exact-risk"]
    assert all(float(r["mean_excess_risk"]) >= -1e-12 for r in rows)

