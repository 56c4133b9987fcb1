"""Per-row cost of the fixed-score trace ``deterministic.simulate_fixed_scores``.

Times ``simulate_fixed_scores`` and, beside it, a bare pass over the blocks
of ``deterministic.iterate`` (the routing and dual update without the
trace's bookkeeping) at a fixed set of (T, E, K) shapes, in µs per iteration
row, through the shared driver of ``tools/harness.py`` (``--parent
CHECKOUT`` times a second checkout beside this one).  Each cell also counts
``token_rows_routed``, the token-rows per iteration row that ``iterate``
hands to its Top-K kernel, on one untimed pass with ``deterministic.topk``
wrapped; T means every token of every row is routed.  ``peak_matrices`` is
the tracemalloc peak of one more untimed call above its entry, in units of
one (T, E) float64 matrix, 8*T*E bytes; ``gamma_peak_matrices`` is the same
figure for building the CLI's affinities, ``cli._seeded_affinities``.  Both
are taken after a first call, so one-off allocations do not count; at small
shapes fixed per-call objects still dominate them.

    python tools/bench_simulate.py --parent ../alflb-parent --out BENCH_simulate.json

The affinities are the row-softmax of standard normal scores (seed 0) and
the schedule is the sign schedule with each cell's u: 1e-3 as in the
benchmark's trace configs, or 1e-6 as in its plateau configs, where routing
changes a few times in 2,500 iterations.  This is not part of the test suite
or of ``perfbench``.
"""

from __future__ import annotations

import sys
import time

import harness

# (T, E, K, iterations, u): the small_lab trace shapes at its 150 iterations,
# a K = 3 shape, the two large_trace shapes at its 100 iterations, where
# every block is one row, and two plateaus, the small_lab one and a K = 3 one
CASES = [
    (40, 4, 1, 150, 1e-3), (80, 8, 1, 150, 1e-3), (200, 16, 1, 150, 1e-3),
    (37, 7, 3, 150, 1e-3), (4096, 64, 1, 100, 1e-3), (2048, 64, 8, 100, 1e-3),
    (64, 4, 1, 2500, 1e-6), (64, 8, 3, 2500, 1e-6),
]
FUNCTIONS = ("simulate_fixed_scores", "iterate")
CELLS = [
    {"function": name, "T": T, "E": E, "K": K, "iterations": N, "u": u}
    for T, E, K, N, u in CASES for name in FUNCTIONS
]
RUNS_PER_ROUND = 10


def _peak_matrices(call, T: int, E: int) -> float:
    """The tracemalloc peak of ``call()`` above its entry, in (T, E) float64
    matrices."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (8 * T * E)
    finally:
        tracemalloc.stop()


def measure(cell: dict) -> dict[str, list[float]]:
    """µs per iteration row of ``cell``, one sample per run, the token-rows
    per iteration row routed by its untimed warm-up pass, and the peak
    working sets of one untimed call and of building the affinities."""
    import numpy as np

    from alflb import deterministic
    from alflb.balancer import ScheduleKind, StepSchedule
    from alflb.cli import _seeded_affinities
    from alflb.core import ProblemDims
    from alflb.deterministic import iterate, simulate_fixed_scores
    from alflb.router import RawScoreMatrix, softmax_affinities

    T, E, K, N = cell["T"], cell["E"], cell["K"], cell["iterations"]
    raw = RawScoreMatrix(np.random.default_rng(0).standard_normal((T, E)))
    gamma = softmax_affinities(raw)
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, cell["u"])
    fn = {
        "simulate_fixed_scores": lambda: simulate_fixed_scores(gamma, sched, N, K),
        "iterate": lambda: sum(1 for _ in iterate(gamma, sched, K, iterations=N)),
    }[cell["function"]]
    routed, topk = [], deterministic.topk

    def counting(shifted, K, **kwargs):
        routed.append(shifted.size // shifted.shape[-1])
        return topk(shifted, K, **kwargs)

    deterministic.topk = counting
    fn()  # warm-up, counting the token-rows routed
    deterministic.topk = topk
    peak = _peak_matrices(fn, T, E)
    dims = ProblemDims(T=T, E=E, K=K)
    _seeded_affinities(dims, 0)  # warm-up
    gamma_peak = _peak_matrices(lambda: _seeded_affinities(dims, 0), T, E)
    samples = []
    for _ in range(RUNS_PER_ROUND):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / N * 1e6)
    return {"us_per_row": samples, "token_rows_routed": [sum(routed) / N],
            "peak_matrices": [peak], "gamma_peak_matrices": [gamma_peak]}


if __name__ == "__main__":
    sys.exit(harness.main(
        CELLS, measure, script=__file__, doc=__doc__, out="BENCH_simulate.json",
        header={
            "what": "µs per iteration row of deterministic.simulate_fixed_scores "
                    "and of a bare pass over deterministic.iterate's blocks, "
                    "sign schedule at each cell's u, softmax of standard normal "
                    "scores; token_rows_routed: token-rows per iteration row "
                    "that iterate hands to its Top-K kernel; peak_matrices and "
                    "gamma_peak_matrices: tracemalloc peak of one call, and of "
                    "building the CLI's affinities, in (T, E) float64 matrices",
        },
    ))
