"""Peak working set of the fixed-score lab at the benchmark's large shapes.

One (T, E) float64 array, 8*T*E bytes, is the unit ("a matrix").  Beyond
the affinities, a routing holds at most the shifted scores and, for K > 1,
their sorted copy; building the affinities holds at most the raw scores and
the probabilities.  Each figure is a tracemalloc peak above the call's entry,
taken after a first call so that one-off allocations do not count.  Each
bound lies between the figure of code that copies the scores for the K = 1
margin, keeps the sorted copy beside the chosen-cell mask for K > 1 and
keeps every softmax temporary alive, and the figure of code that does none
of these.
"""

import tracemalloc

import numpy as np
import pytest

from alflb.balancer import ScheduleKind, StepSchedule
from alflb.cli import _seeded_affinities
from alflb.core import ProblemDims
from alflb.deterministic import simulate_fixed_scores
from alflb.router import topk


def _peak_matrices(call, T, E) -> float:
    """The tracemalloc peak of a second ``call()`` above its entry, in (T, E)
    float64 matrices; the first call takes the one-off allocations."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (8 * T * E)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "T,E,K,bound",
    [(4096, 64, 1, 0.25), (2048, 64, 8, 1.1)],
    ids=["4096x64_K1", "2048x64_K8"],
)
def test_topk_margin_holds_at_most_its_sorted_copy(T, E, K, bound):
    s = _seeded_affinities(ProblemDims(T=T, E=E, K=K), 1) + np.linspace(0.0, 0.1, E)
    peak = _peak_matrices(lambda: topk(s, K, margin=True), T, E)
    assert peak <= bound, f"topk(K={K}, margin) peaked at {peak:.3f} matrices"


def test_affinities_hold_at_most_two_matrices():
    T, E = 4096, 64
    dims = ProblemDims(T=T, E=E, K=1)
    peak = _peak_matrices(lambda: _seeded_affinities(dims, 1), T, E)
    assert peak <= 2.5, f"_seeded_affinities peaked at {peak:.3f} matrices"


def test_one_row_trace_holds_at_most_the_shifted_scores():
    T, E = 4096, 64
    gamma = _seeded_affinities(ProblemDims(T=T, E=E, K=1), 1)
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1e-3)
    peak = _peak_matrices(lambda: simulate_fixed_scores(gamma, sched, 20, 1), T, E)
    assert peak <= 1.25, f"simulate_fixed_scores peaked at {peak:.3f} matrices"
