"""The scaling tool's rule for a resolved row, on recorded runs."""

import importlib
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def scaling(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("scaling")


def test_noise_row_of_bench_29_is_unresolved(scaling):
    # update at 16,000 steps: the change, which left the agent alone, is
    # faster in 4 of 5 pairs with medians apart by more than the parent's
    # spread
    rows = json.loads((ROOT / "BENCH_29.json").read_text())["rows"]
    row, = [r for r in rows if r["row"] == "update" and r["jobs"] == 16000]
    parent, change = row["seconds"]["parent"], row["seconds"]["change"]
    assert sum(c < p for p, c in zip(parent, change)) == 4
    assert not scaling.resolved(parent, change)


def test_separated_runs_are_resolved(scaling):
    first = [1.00, 1.02, 0.99, 1.01, 1.03]
    assert scaling.resolved(first, [x * 0.8 for x in first])
    assert scaling.resolved(first, [x * 1.2 for x in first])
    # faster in every pair, but by less than the first's quartiles
    assert not scaling.resolved(first, [x - 0.001 for x in first])
