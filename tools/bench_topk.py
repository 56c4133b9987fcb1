"""Per-call cost of the Top-K kernel ``router.topk``.

Times ``router.topk`` at a fixed set of (T, E, K) shapes, at the batched
shapes of a regret round and of a moment check block, and on tied scores at
(2048, 64, 8), and writes the median and quartiles of microseconds per call
to a JSON file.  With ``--parent CHECKOUT`` the same harness also times the
alflb under ``CHECKOUT/src``, so the file holds a before/after pair from one
machine.  Each case is timed in a fresh interpreter, so no case inherits the
allocator state another case left behind, ``ROUNDS`` times per checkout, the
two checkouts in alternating order, so slow drifts of the host fall on both
columns alike.

    python tools/bench_topk.py --parent ../alflb-parent --out BENCH_topk.json

The scores are standard normal draws (seed 0), so rows do not tie, except in
the tied case: scores on the 1/8 grid from -1 to 1 (seed 0), where about
three rows in four tie at the K-th score and take ``topk``'s tie fix-up.  No
benchmark workload routes tied scores today (their affinities are softmaxes
of normal draws), so that case puts the cost of the tie path on record only.
This is not part of the test suite or of ``perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from bench_simulate import _summary

# (leading axes..., T, E, K) for router.topk
TOPK_SHAPES = [
    (64, 8, 2), (64, 8, 3), (200, 16, 3), (200, 16, 8),
    (512, 64, 8), (2048, 64, 2), (2048, 64, 8), (4096, 64, 1),
]
# the regret round of acceptance criterion 8: 32 replicas, T = 64, E = 8, K = 2
REGRET_SHAPE = (32, 64, 8, 2)
# one moment-check block: MOMENT_BATCH = 512 replicas, T = 24, E = 3, K = 2
MOMENT_SHAPE = (512, 24, 3, 2)
# (shape, scores): "normal" draws or "tied" 1/8-grid values
CASES = (
    [(s, "normal") for s in TOPK_SHAPES + [REGRET_SHAPE, MOMENT_SHAPE]]
    + [((2048, 64, 8), "tied")]
)
CALLS_PER_RUN = 20
RUNS_PER_ROUND = 10
ROUNDS = 5  # RUNS_PER_ROUND * ROUNDS samples per cell
HERE = Path(__file__).resolve().parent.parent


def measure(case: int) -> list[float]:
    """µs per call of ``CASES[case]``, one sample per run, for the alflb on
    ``sys.path``."""
    import numpy as np

    from alflb import router

    (*dims, K), kind = CASES[case]
    rng = np.random.default_rng(0)
    if kind == "tied":
        scores = rng.integers(-8, 9, dims) / 8
    else:
        scores = rng.standard_normal(dims)
    router.topk(scores, K)  # warm-up
    samples = []
    for _ in range(RUNS_PER_ROUND):
        t0 = time.perf_counter()
        for _ in range(CALLS_PER_RUN):
            router.topk(scores, K)
        samples.append((time.perf_counter() - t0) / CALLS_PER_RUN * 1e6)
    return samples


def _run_child(src: Path, case: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", str(case)],
        env=env, check=True, capture_output=True, text=True,
    )
    out = json.loads(proc.stdout)
    if not Path(out["router"]).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"{src}: the child imported {out['router']}")
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, default=None,
                    help="a second checkout to time beside this one")
    ap.add_argument("--out", type=Path, default=Path("BENCH_topk.json"))
    ap.add_argument("--measure", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure is not None:
        from alflb import router

        json.dump({"router": router.__file__, "samples": measure(args.measure)},
                  sys.stdout)
        return 0

    sources = {"change": HERE / "src"}
    if args.parent is not None:
        sources = {"parent": args.parent.resolve() / "src", **sources}
    samples = {column: [[] for _ in CASES] for column in sources}
    for r in range(ROUNDS):
        for case in range(len(CASES)):
            order = list(sources) if (r + case) % 2 == 0 else list(reversed(sources))
            for column in order:
                samples[column][case] += _run_child(sources[column], case)

    import numpy as np

    rows = []
    for case, ((*dims, K), kind) in enumerate(CASES):
        row = {"shape": dims, "K": K, "scores": kind}
        for column in sources:
            row[column] = _summary(samples[column][case])
        if "parent" in row:
            row["change_over_parent"] = round(
                row["change"]["median"] / row["parent"]["median"], 3
            )
        rows.append(row)
    report = {
        "what": "µs per call of router.topk on standard normal scores, and "
                "on tied 1/8-grid scores",
        "samples_per_cell": RUNS_PER_ROUND * ROUNDS,
        "calls_per_sample": CALLS_PER_RUN,
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
