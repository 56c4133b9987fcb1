"""Per-row cost of the fixed-score trace ``deterministic.simulate_fixed_scores``.

Times ``simulate_fixed_scores`` and, beside it, a bare pass over the blocks
of ``deterministic.iterate`` (the routing and dual update without the
trace's bookkeeping) at a fixed set of (T, E, K) shapes, and writes the
median and quartiles of microseconds per iteration row to a JSON file.  With
``--parent CHECKOUT`` the same harness also times the alflb under
``CHECKOUT/src``, so the file holds a before/after pair from one machine.
Each function and case is timed in a fresh interpreter, so no cell inherits
the allocator state another left behind, ``ROUNDS`` times per checkout, the
two checkouts in alternating order, so slow drifts of the host fall on both
columns alike.

    python tools/bench_simulate.py --parent ../alflb-parent --out BENCH_simulate.json

The affinities are the row-softmax of standard normal scores (seed 0) and
the schedule is the sign schedule with u = 1e-3, as in the benchmark's trace
configs.  This is not part of the test suite or of ``perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# (T, E, K, iterations): the small_lab trace shapes at its 150 iterations, a
# K = 3 shape, and the two large_trace shapes, where every block is one row
CASES = [
    (40, 4, 1, 150), (80, 8, 1, 150), (200, 16, 1, 150), (37, 7, 3, 150),
    (4096, 64, 1, 20), (2048, 64, 8, 20),
]
FUNCTIONS = ("simulate_fixed_scores", "iterate")
CELLS = [(case, name) for case in range(len(CASES)) for name in FUNCTIONS]
RUNS_PER_ROUND = 10
ROUNDS = 5  # RUNS_PER_ROUND * ROUNDS samples per cell
HERE = Path(__file__).resolve().parent.parent


def measure(cell: int) -> list[float]:
    """µs per iteration row of ``CELLS[cell]``, one sample per run, for the
    alflb on ``sys.path``."""
    import numpy as np

    from alflb.balancer import ScheduleKind, StepSchedule
    from alflb.deterministic import iterate, simulate_fixed_scores
    from alflb.router import RawScoreMatrix, softmax_affinities

    case, name = CELLS[cell]
    T, E, K, N = CASES[case]
    raw = RawScoreMatrix(np.random.default_rng(0).standard_normal((T, E)))
    gamma = softmax_affinities(raw)
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1e-3)
    fn = {
        "simulate_fixed_scores": lambda: simulate_fixed_scores(gamma, sched, N, K),
        "iterate": lambda: sum(1 for _ in iterate(gamma, sched, K, iterations=N)),
    }[name]
    fn()  # warm-up
    samples = []
    for _ in range(RUNS_PER_ROUND):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / N * 1e6)
    return samples


def _run_child(src: Path, cell: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", str(cell)],
        env=env, check=True, capture_output=True, text=True,
    )
    out = json.loads(proc.stdout)
    if not Path(out["deterministic"]).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"{src}: the child imported {out['deterministic']}")
    return out["samples"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, default=None,
                    help="a second checkout to time beside this one")
    ap.add_argument("--out", type=Path, default=Path("BENCH_simulate.json"))
    ap.add_argument("--measure", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure is not None:
        from alflb import deterministic

        json.dump({"deterministic": deterministic.__file__,
                   "samples": measure(args.measure)}, sys.stdout)
        return 0

    sources = {"change": HERE / "src"}
    if args.parent is not None:
        sources = {"parent": args.parent.resolve() / "src", **sources}
    samples = {column: [[] for _ in CELLS] for column in sources}
    for r in range(ROUNDS):
        for cell in range(len(CELLS)):
            order = list(sources) if (r + cell) % 2 == 0 else list(reversed(sources))
            for column in order:
                samples[column][cell] += _run_child(sources[column], cell)

    import numpy as np

    rows = []
    for cell, (case, name) in enumerate(CELLS):
        T, E, K, N = CASES[case]
        row = {"function": name, "T": T, "E": E, "K": K, "iterations": N}
        for column in sources:
            row[column] = _summary(samples[column][cell])
        if "parent" in row:
            row["change_over_parent"] = round(
                row["change"]["median"] / row["parent"]["median"], 3
            )
        rows.append(row)
    report = {
        "what": "µs per iteration row of deterministic.simulate_fixed_scores "
                "and of a bare pass over deterministic.iterate's blocks, sign "
                "schedule u = 1e-3, softmax of standard normal scores",
        "samples_per_cell": RUNS_PER_ROUND * ROUNDS,
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


if __name__ == "__main__":
    sys.exit(main())
