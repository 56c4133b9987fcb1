"""The driver that the per-layer harnesses ``tools/bench_*.py`` share.

A harness gives a table of cells, each a dict of the keys that identify it
in the report, and ``measure(cell) -> {metric: samples}``, which times one
cell with the alflb on ``sys.path``.  ``main`` runs each cell in a fresh
interpreter with ``PYTHONPATH=<checkout>/src``, so no cell inherits the
allocator state another left behind, and checks that the child imported
``alflb`` from that checkout.  With ``--parent CHECKOUT`` it times that
checkout beside this one, ``ROUNDS`` times per checkout, the two in
alternating order, so slow drifts of the host fall on both columns alike.
It pools each cell's samples over the rounds and writes one row per cell
and metric: the cell's keys, ``metric``, the median and quartiles of each
column, and the ratio of the medians, change over parent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROUNDS = 5
HERE = Path(__file__).resolve().parent.parent


def _run_child(script: Path, src: Path, cell: int) -> dict[str, list[float]]:
    """The samples of ``cell``, measured by ``script`` in a fresh interpreter
    that imports alflb from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, str(script), "--measure", str(cell)],
        env=env, check=True, capture_output=True, text=True,
    )
    out = json.loads(proc.stdout)
    if not Path(out["alflb"]).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"{src}: the child imported {out['alflb']}")
    return out["samples"]


def _summary(values: list[float]) -> dict[str, float]:
    """Median and quartiles to 4 significant digits, so that seconds keep the
    resolution of microseconds."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {key: float(f"{v:.4g}") for key, v in
            (("median", median), ("q1", q1), ("q3", q3))}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(cells: list[dict], measure, *, script: str, doc: str, out: str,
         header: dict, argv=None) -> int:
    """Run the harness ``script`` (described by ``doc``) over ``cells`` and
    write the report, with ``header``'s entries first, to ``--out`` (default
    ``out``)."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, default=None,
                    help="a second checkout to time beside this one")
    ap.add_argument("--out", type=Path, default=Path(out))
    ap.add_argument("--measure", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure is not None:
        samples = measure(cells[args.measure])
        import alflb

        json.dump({"alflb": alflb.__file__, "samples": samples}, sys.stdout)
        return 0

    sources = {"change": HERE / "src"}
    if args.parent is not None:
        sources = {"parent": args.parent.resolve() / "src", **sources}
    samples = {column: [{} for _ in cells] for column in sources}
    for r in range(ROUNDS):
        for cell in range(len(cells)):
            order = list(sources) if (r + cell) % 2 == 0 else list(reversed(sources))
            for column in order:
                for metric, values in _run_child(Path(script), sources[column], cell).items():
                    samples[column][cell].setdefault(metric, []).extend(values)

    import numpy as np

    rows = []
    for cell, keys in enumerate(cells):
        for metric in samples["change"][cell]:
            row = {**keys, "metric": metric}
            for column in sources:
                row[column] = _summary(samples[column][cell][metric])
            if "parent" in row:
                row["change_over_parent"] = round(
                    row["change"]["median"] / row["parent"]["median"], 3
                )
            rows.append(row)
    report = {
        **header,
        "samples_per_cell": {metric: len(values) for cell in samples["change"]
                             for metric, values in cell.items()},
        "machine": {
            "cpu": _cpu_model(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
        },
        "columns": list(sources),
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=2, ensure_ascii=False) + "\n")
    for row in rows:
        print(row)
    return 0
