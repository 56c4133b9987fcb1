"""The shared driver of the per-layer harnesses, ``tools/harness.py``.

``_run_child`` is replaced by a fake that records its calls, so no
interpreter is started: the test checks the order in which the driver runs
the two checkouts, that it pools a cell's samples over the rounds, and the
rows it writes.
"""

import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import harness

    return harness


def test_rounds_alternate_and_pool(harness, monkeypatch, tmp_path):
    parent = tmp_path / "parent"
    calls = []

    def fake_run_child(script, src, cell):
        column = "parent" if src == parent / "src" else "change"
        calls.append((column, cell))
        k = sum(1 for c in calls if c == (column, cell))  # this call's round + 1
        return {"x_us": [10.0 * k if column == "parent" else 5.0 * k]}

    monkeypatch.setattr(harness, "_run_child", fake_run_child)
    monkeypatch.setattr(harness, "ROUNDS", 4)
    cells = [{"case": "a"}, {"case": "b", "K": 2}]
    out = tmp_path / "bench.json"
    code = harness.main(
        cells, lambda cell: {}, script="bench_fake.py", doc="Fake harness.",
        out="unused.json", header={"what": "fake"},
        argv=["--parent", str(parent), "--out", str(out)],
    )
    assert code == 0
    assert calls == [
        ("parent", 0), ("change", 0), ("change", 1), ("parent", 1),  # round 0
        ("change", 0), ("parent", 0), ("parent", 1), ("change", 1),  # round 1
    ] * 2

    report = json.loads(out.read_text())
    assert report["what"] == "fake" and report["columns"] == ["parent", "change"]
    assert report["samples_per_cell"] == {"x_us": 4}
    # parent pools [10, 20, 30, 40] and change [5, 10, 15, 20]; the quartiles
    # are statistics.quantiles' default (exclusive) method
    assert report["rows"] == [
        {**cell, "metric": "x_us",
         "parent": {"median": 25.0, "q1": 12.5, "q3": 37.5},
         "change": {"median": 12.5, "q1": 6.25, "q3": 18.75},
         "change_over_parent": 0.5}
        for cell in cells
    ]


def test_summary_keeps_four_significant_digits(harness):
    assert harness._summary([0.051234, 0.052346, 0.053456]) == {
        "median": 0.05235, "q1": 0.05123, "q3": 0.05346,
    }


def test_child_mode_reports_its_alflb(harness, capsys):
    seen = []

    def measure(cell):
        seen.append(cell)
        return {"x_us": [1.0, 2.0]}

    cells = [{"case": "a"}, {"case": "b"}]
    assert harness.main(
        cells, measure, script="bench_fake.py", doc="Fake harness.",
        out="unused.json", header={}, argv=["--measure", "1"],
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert seen == [{"case": "b"}]
    assert out["samples"] == {"x_us": [1.0, 2.0]}
    assert out["alflb"] == sys.modules["alflb"].__file__
