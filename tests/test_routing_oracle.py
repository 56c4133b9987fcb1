"""The raw-array Top-K kernel and iteration loop against the container-based
reference in ``reference_routing``.  Every comparison is exact: discrete
outputs are equal and float outputs are bitwise equal.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_routing as ref
from alflb.balancer import ScheduleKind, StepSchedule
from alflb.core import AffinityMatrix, BiasVector, ProblemDims, RandomSource
from alflb.deterministic import check_balance_convergence, simulate_fixed_scores, ubar
from alflb.router import RawScoreMatrix, softmax_affinities, topk

# Shapes of the criterion-1/2/4 trace suite and of the criterion-3 sweep.
RUN_DIMS = [(40, 4), (80, 8), (200, 16), (120, 6), (64, 8), (96, 12), (160, 16)]
BALANCE_DIMS = [
    (16, 4), (32, 8), (24, 6), (64, 8), (48, 6),
    (8, 2), (36, 6), (40, 8), (64, 4), (56, 8),
]
SCHEDULE_U = {
    ScheduleKind.DEEPSEEK_SIGN: 0.001,
    ScheduleKind.INVERSE_N: 1.0,
    ScheduleKind.INVERSE_SQRT_N: 0.02,
    ScheduleKind.CONSTANT: 0.01,
}


def _seeded_affinities(T, E, seed):
    rng = RandomSource(seed, stream=1).generator()
    return softmax_affinities(RawScoreMatrix(rng.standard_normal((T, E))))


def _grid_affinities(T, E, seed):
    """Affinities on the 1/8 grid, so that routing ties are frequent."""
    rng = np.random.default_rng(seed)
    return AffinityMatrix(ProblemDims(T=T, E=E, K=1), rng.integers(1, 8, (T, E)) / 8)


@st.composite
def _grid_scores(draw):
    T = draw(st.integers(1, 12))
    E = draw(st.integers(2, 8))
    cells = st.lists(st.integers(1, 7), min_size=T * E, max_size=T * E)
    gamma = np.array(draw(cells), dtype=np.float64).reshape(T, E) / 8
    bias = np.array(draw(st.lists(st.integers(-8, 8), min_size=E, max_size=E))) / 8
    return gamma, bias


@given(_grid_scores())
@settings(max_examples=200, deadline=None)
def test_topk_matches_reference_on_tied_grid(scores):
    gamma, bias = scores
    T, E = gamma.shape
    affinities = AffinityMatrix(ProblemDims(T=T, E=E, K=1), gamma)
    for K in range(1, E + 1):
        want = ref.route_topk(affinities, BiasVector(bias), K)
        chosen, row_tie = topk(gamma + bias[None, :], K)
        assert chosen.dtype == np.int64 and chosen.shape == (T, K)
        np.testing.assert_array_equal(chosen, want.assigned_experts)
        np.testing.assert_array_equal(row_tie, want.row_tie)


def _bits(record):
    """A switch record or Lagrangian value with its floats as exact hex."""
    return tuple(
        v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(record)
    )


def _assert_traces_equal(got, want):
    assert got.L == want.L
    assert len(got.steps) == len(want.steps)
    for a, b in zip(got.steps, want.steps):
        assert a.n == b.n
        np.testing.assert_array_equal(a.loads, b.loads)
        assert a.loads.dtype == b.loads.dtype
        assert a.p.tobytes() == b.p.tobytes()
        np.testing.assert_array_equal(a.designations, b.designations)
        assert a.tie_flag == b.tie_flag
        assert [_bits(r) for r in a.switches] == [_bits(r) for r in b.switches]
        assert _bits(a.lagrangian) == _bits(b.lagrangian)


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("zero_sum", [False, True])
@pytest.mark.parametrize("kind", list(ScheduleKind))
def test_simulate_matches_reference_loop(kind, zero_sum, K):
    sched = StepSchedule(kind, SCHEDULE_U[kind])
    for s, (T, E) in enumerate(RUN_DIMS):
        gamma = _seeded_affinities(T, E, 1000 + s)
        got = simulate_fixed_scores(gamma, sched, 60, K=K, zero_sum=zero_sum)
        want = ref.simulate_fixed_scores(gamma, sched, 60, K=K, zero_sum=zero_sum)
        _assert_traces_equal(got, want)


@pytest.mark.parametrize("K", [1, 3])
def test_simulate_matches_reference_loop_with_ties(K):
    gamma = _grid_affinities(24, 4, seed=5)
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1 / 16)
    got = simulate_fixed_scores(gamma, sched, 80, K=K)
    want = ref.simulate_fixed_scores(gamma, sched, 80, K=K)
    assert any(step.tie_flag for step in want.steps)
    _assert_traces_equal(got, want)


def _assert_reports_equal(got, want):
    np.testing.assert_array_equal(got.entered_iteration, want.entered_iteration)
    assert got.iterations_run == want.iterations_run
    assert got.stayed == want.stayed
    assert got.max_load_step == want.max_load_step
    assert got.any_tie == want.any_tie


@pytest.mark.parametrize("T,E", BALANCE_DIMS)
def test_balance_check_matches_reference(T, E):
    for seed in (3000, 3100, 3200):
        gamma = _seeded_affinities(T, E, seed + T)
        u = 0.9 * ubar(gamma)
        _assert_reports_equal(
            check_balance_convergence(gamma, u),
            ref.check_balance_convergence(gamma, u),
        )


def test_balance_check_matches_reference_on_slow_instance():
    # The slowest criterion-3 instance: u ~ 7.5e-8 and routing that changes
    # only a few times, cut at 20,000 iterations.
    gamma = _seeded_affinities(64, 4, 3058)
    u = 0.9 * ubar(gamma)
    got = check_balance_convergence(gamma, u, budget=20_000)
    want = ref.check_balance_convergence(gamma, u, budget=20_000)
    assert want.iterations_run == 20_000
    _assert_reports_equal(got, want)


def test_balance_check_matches_reference_with_ties():
    gamma = _grid_affinities(16, 4, seed=9)
    got = check_balance_convergence(gamma, 1 / 16, budget=300, settle_iterations=50)
    want = ref.check_balance_convergence(gamma, 1 / 16, budget=300, settle_iterations=50)
    assert want.any_tie
    _assert_reports_equal(got, want)


def _arrays(obj):
    """Every numpy array reachable from a step, with the arrays they view."""
    if isinstance(obj, np.ndarray):
        while obj is not None:
            yield obj
            obj = obj.base if isinstance(obj.base, np.ndarray) else None
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


def test_trace_steps_hold_only_per_expert_arrays():
    T, E = 512, 16
    gamma = _seeded_affinities(T, E, 21)
    trace = simulate_fixed_scores(gamma, StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1e-3), 50)
    assert len(trace.steps) == 50
    for step in trace.steps:
        arrays = list(_arrays(step))
        assert arrays and max(a.size for a in arrays) <= E
        assert not any(a.flags.writeable for a in arrays)
