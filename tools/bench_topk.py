"""Per-call cost of the Top-K kernel ``router.topk``.

Times ``router.topk`` at a fixed set of (T, E, K) shapes, at the batched
shapes of a regret round and of a moment check block, and on tied scores at
(2048, 64, 8), in µs per call, through the shared driver of
``tools/harness.py`` (``--parent CHECKOUT`` times a second checkout beside
this one).

    python tools/bench_topk.py --parent ../alflb-parent --out BENCH_topk.json

The scores are standard normal draws (seed 0), so rows do not tie, except in
the tied case: scores on the 1/8 grid from -1 to 1 (seed 0), where about
three rows in four tie at the K-th score, so ``topk`` picks their cells by a
stable argsort of each tied row.  No benchmark workload routes a tied row
today (their affinities are softmaxes of normal draws), so that case puts the
cost of the tie path on record only.
This is not part of the test suite or of ``perfbench``.
"""

from __future__ import annotations

import sys
import time

import harness

# (leading axes..., T, E, K) for router.topk
TOPK_SHAPES = [
    (64, 8, 2), (64, 8, 3), (200, 16, 3), (200, 16, 8),
    (512, 64, 8), (2048, 64, 2), (2048, 64, 8), (4096, 64, 1),
]
# the regret round of acceptance criterion 8: 32 replicas, T = 64, E = 8, K = 2
REGRET_SHAPE = (32, 64, 8, 2)
# one moment-check block: MOMENT_BATCH = 512 replicas, T = 24, E = 3, K = 2
MOMENT_SHAPE = (512, 24, 3, 2)
# scores: "normal" draws or "tied" 1/8-grid values
CELLS = (
    [{"shape": list(dims), "K": K, "scores": "normal"}
     for *dims, K in TOPK_SHAPES + [REGRET_SHAPE, MOMENT_SHAPE]]
    + [{"shape": [2048, 64], "K": 8, "scores": "tied"}]
)
CALLS_PER_RUN = 20
RUNS_PER_ROUND = 10


def measure(cell: dict) -> dict[str, list[float]]:
    """µs per call of ``router.topk`` on ``cell``, one sample per run."""
    import numpy as np

    from alflb import router

    dims, K = cell["shape"], cell["K"]
    rng = np.random.default_rng(0)
    if cell["scores"] == "tied":
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
    return {"us_per_call": samples}


if __name__ == "__main__":
    sys.exit(harness.main(
        CELLS, measure, script=__file__, doc=__doc__, out="BENCH_topk.json",
        header={
            "what": "µs per call of router.topk on standard normal scores, "
                    "and on tied 1/8-grid scores",
            "calls_per_sample": CALLS_PER_RUN,
        },
    ))
