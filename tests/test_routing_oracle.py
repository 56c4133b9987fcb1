"""The raw-array Top-K kernel, iteration loop and trace audit against the
container-based reference in ``reference_routing``.  Discrete outputs are
equal and float outputs bitwise equal.  The reference lists each token's
experts in decreasing score order and ``topk`` in ascending expert index, so
``chosen`` is compared with the reference's sorted along its last axis.  The
exceptions to bitwise equality are the trace's Lagrangian column and the
identity residuals built from it: the lab gathers the routed scores
(``router.lagrangian``) where the reference sums a dense selection matrix, so
the two round differently, within ``LAGRANGIAN_TOL * (1 + |value|)``.  The
column equals ``router.lagrangian`` on the reference's own rows, taken in
index order, bit for bit, and the trace's Lagrangian column and switch table
equal, bit for bit, what a loop over ``iterate``'s blocks computes from the
biases and experts it yields.
"""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_routing as ref
from alflb import deterministic
from alflb.balancer import ScheduleKind, StepSchedule, project_zero_sum
from alflb.core import BiasVector, ProblemDims
from alflb.deterministic import (
    BLOCK_SCORES,
    audit_trace,
    check_balance_convergence,
    designations,
    iterate,
    simulate_fixed_scores,
    ubar,
)
from alflb.router import lagrangian, topk
from conftest import random_affinities

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
# The gathered Lagrangian against the dense sum, relative to 1 + |value|:
# the largest gap over these schedules, K in {1, 3}, at 300 iterations on
# RUN_DIMS, is 4.4e-16.
LAGRANGIAN_TOL = 1e-13



def _grid_affinities(T, E, seed):
    """Affinities on the 1/8 grid, so that routing ties are frequent."""
    rng = np.random.default_rng(seed)
    return rng.integers(1, 8, (T, E)) / 8


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
    for K in range(1, E + 1):
        want = ref.route_topk(gamma, BiasVector(bias), K)
        chosen, row_tie = topk(gamma + bias[None, :], K)
        assert chosen.dtype == np.int64 and chosen.shape == (T, K)
        np.testing.assert_array_equal(chosen, np.sort(want.assigned_experts, axis=-1))
        np.testing.assert_array_equal(row_tie, want.row_tie)
        # a batch of score matrices is routed matrix by matrix
        flipped = ref.route_topk(gamma, BiasVector(-bias), K)
        chosen, row_tie = topk(np.stack((gamma + bias, gamma - bias)), K)
        assert chosen.shape == (2, T, K) and row_tie.shape == (2, T)
        for c, t, w in zip(chosen, row_tie, (want, flipped)):
            np.testing.assert_array_equal(c, np.sort(w.assigned_experts, axis=-1))
            np.testing.assert_array_equal(t, w.row_tie)
        _assert_margins_match(gamma + bias[None, :], K)


def _topk_cases():
    """(id, scores, K) inputs for ``topk`` against the stable argsort: 1/8-grid
    scores, so that boundary ties occur, up to E = 64."""
    rng = np.random.default_rng(14)

    def grid(*shape):
        return rng.integers(-8, 9, shape) / 8

    cases = [
        (f"grid_E{E}_K{K}", grid(256, E), K)
        for E in (8, 16, 33, 64)
        for K in (2, 8)
    ]
    cases += [(f"grid_E{E}_K1", grid(256, E), 1) for E in (2, 7, 64)]
    signed_zeros = rng.choice([-0.0, 0.0, -0.125, 0.125], (256, 16))
    cases += [(f"signed_zeros_K{K}", signed_zeros, K) for K in (2, 8)]
    cases += [(f"two_batch_axes_K{K}", grid(3, 4, 64, 16), K) for K in (2, 8)]
    wide = grid(256, 128)
    cases += [("strided_view", wide[:, ::2], 8), ("transposed_view", wide[:64].T, 8)]
    cases += [(f"K_equals_E{E}", grid(64, E), E) for E in (1, 2, 9, 64)]
    return [pytest.param(scores, K, id=name) for name, scores, K in cases]


@pytest.mark.parametrize("scores,K", _topk_cases())
def test_topk_matches_reference_on_wide_shapes(scores, K):
    # read-only, so that topk may not even write a cell and restore it
    scores = scores.view()
    scores.flags.writeable = False
    before = scores.copy()
    chosen, row_tie = topk(scores, K)
    want_chosen, want_tie = ref.topk_argsort(scores, K)
    assert chosen.dtype == np.int64 and row_tie.dtype == bool
    assert chosen.shape == scores.shape[:-1] + (K,)
    assert row_tie.shape == scores.shape[:-1]
    np.testing.assert_array_equal(chosen, np.sort(want_chosen, axis=-1))
    np.testing.assert_array_equal(row_tie, want_tie)
    # the boundary ties the grid is for occur wherever a boundary exists
    assert want_tie.any() == (K < scores.shape[-1])
    _assert_margins_match(scores, K)
    assert scores.tobytes() == before.tobytes()


def _assert_margins_match(scores, K):
    """``topk`` with ``margin``: the sets and tie flags it gives without,
    and the K-th largest score minus the (K+1)-th, as a descending sort
    orders them (+inf when K = E), 0 exactly on a tie; for K = 1 also on
    each row reversed, which moves its first maximum."""
    for s in (scores, scores[..., ::-1]) if K == 1 else (scores,):
        chosen, row_tie = topk(s, K)
        got_chosen, got_tie, gap = topk(s, K, margin=True)
        np.testing.assert_array_equal(got_chosen, chosen)
        np.testing.assert_array_equal(got_tie, row_tie)
        assert gap.dtype == np.float64 and gap.shape == row_tie.shape
        E = s.shape[-1]
        if K < E:
            ranked = -np.sort(-s, axis=-1)
            np.testing.assert_array_equal(gap, ranked[..., K - 1] - ranked[..., K])
        else:
            assert (gap == np.inf).all()
        np.testing.assert_array_equal(gap == 0, row_tie)


@pytest.mark.parametrize("E", [2, 3, 8, 64])
@pytest.mark.parametrize("grid", [True, False], ids=["tied", "normal"])
def test_topk_lists_experts_in_ascending_index(grid, E):
    rng = np.random.default_rng(E)
    if grid:
        scores = rng.integers(-8, 9, (128, E)) / 8
    else:
        scores = rng.standard_normal((128, E))
    for K in sorted({2, E - 1, E}):
        chosen, _ = topk(scores, K)
        assert (np.diff(chosen, axis=-1) > 0).all()


def _switch_bits(token, from_expert, to_expert, benefit, gap_prev):
    """One switch with its floats as exact hex."""
    return (
        int(token), int(from_expert), int(to_expert),
        float(benefit).hex(), float(gap_prev).hex(),
    )


def _assert_traces_equal(gamma, got, want):
    """The trace table, row by row, against the reference's steps on the
    affinities ``gamma``."""
    assert got.L == want.L
    assert len(got.lagrangian) == len(want.steps)
    assert got.loads.dtype == want.steps[0].loads.dtype
    for m, b in enumerate(want.steps):
        assert b.n == m + 1
        np.testing.assert_array_equal(got.loads[m], b.loads)
        assert got.p[m].tobytes() == b.p.tobytes()
        np.testing.assert_array_equal(designations(got.loads[m], got.L), b.designations)
        assert got.tie[m] == b.tie_flag
        in_row = got.switches[:, 0] == m
        assert [
            _switch_bits(*sw[1:], bf, gp)
            for sw, bf, gp in zip(
                got.switches[in_row], got.benefit[in_row], got.gap_prev[in_row]
            )
        ] == [
            _switch_bits(
                r.token, r.from_expert, r.to_expert, r.benefit, r.score_gap_prev
            )
            for r in b.switches
        ]
        value = b.lagrangian.value
        assert abs(got.lagrangian[m] - value) <= LAGRANGIAN_TOL * (1 + abs(value))
        # the reference's experts in index order, as the lab adds them
        in_index_order = np.sort(b.outcome.assigned_experts, axis=-1)
        routed = lagrangian(gamma, in_index_order, b.p, got.L)
        assert float(got.lagrangian[m]).hex() == float(routed).hex()


def _per_block_bookkeeping(gamma, sched, iterations, K=1):
    """The trace's Lagrangian column and switch table as a loop over
    ``iterate``'s blocks computes them: per block, the chosen cells of the
    shifted scores gamma + p of the yielded biases summed, and the
    assignment diffed against the row before the block, each switch's
    benefit and earlier gap read off the shifted scores of its row and of
    the row before."""
    L = ProblemDims(T=gamma.shape[0], E=gamma.shape[1], K=K).target_load
    lag, switches, benefit, gap_prev = [], [np.empty((0, 4), np.int64)], [], []
    prev = None  # the assignment and shifted scores of the row before a block
    for n, p, chosen, _, _ in iterate(gamma, sched, K, iterations=iterations):
        shifted = gamma + p[:, None, :]
        routed = np.take_along_axis(shifted, chosen, axis=-1)
        lag.append(routed.sum(axis=(-2, -1)) - L * p.sum(axis=-1))
        if K != 1:
            continue
        a, s = chosen[:, :, 0], shifted
        if prev is None:
            prev = a[0], s[0]
        a, s = np.concatenate((prev[0][None], a)), np.concatenate((prev[1][None], s))
        r, i = np.nonzero(a[1:] != a[:-1])
        old, new = a[r, i], a[r + 1, i]
        switches.append(np.column_stack((n[r] - 1, i, old, new)))
        benefit.append(s[r + 1, i, new] - s[r + 1, i, old])
        gap_prev.append(s[r, i, new] - s[r, i, old])
        prev = a[-1], s[-1]
    return (
        np.concatenate(lag), np.concatenate(switches),
        np.concatenate(benefit or [np.empty(0)]),
        np.concatenate(gap_prev or [np.empty(0)]),
    )


def _assert_bookkeeping_equal(gamma, sched, iterations, K=1):
    """``simulate_fixed_scores``' Lagrangian column, switch table, benefits
    and earlier gaps equal the per-block computation bit for bit; returns
    the trace."""
    trace = simulate_fixed_scores(gamma, sched, iterations, K=K)
    lag, switches, benefit, gap_prev = _per_block_bookkeeping(gamma, sched, iterations, K)
    assert trace.lagrangian.tobytes() == lag.tobytes()
    assert trace.switches.dtype == np.int64 and trace.switches.shape == switches.shape
    np.testing.assert_array_equal(trace.switches, switches)
    assert trace.benefit.tobytes() == benefit.tobytes()
    assert trace.gap_prev.tobytes() == gap_prev.tobytes()
    return trace


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("kind", list(ScheduleKind))
def test_simulate_matches_reference_loop(kind, K):
    sched = StepSchedule(kind, SCHEDULE_U[kind])
    for s, (T, E) in enumerate(RUN_DIMS):
        gamma = random_affinities(T, E, 1000 + s)
        got = _assert_bookkeeping_equal(gamma, sched, 60, K=K)
        want = ref.simulate_fixed_scores(gamma, sched, 60, K=K)
        _assert_traces_equal(gamma, got, want)


def _projected_stepwise(gamma, sched, K):
    """The primal-dual iteration with every dual step projected onto the
    zero-sum subspace, yielding ``(n, p, chosen, loads, row_tie)``."""
    T, E = gamma.shape
    L = K * T / E
    p = np.zeros(E)
    n = 1
    while True:
        chosen, row_tie = topk(gamma + p, K)
        loads = np.bincount(chosen.ravel(), minlength=E)
        yield n, p, chosen, loads, row_tie
        p = project_zero_sum(p + sched.bias_delta(loads, L, n))
        n += 1


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("kind", list(ScheduleKind))
def test_zero_sum_projection_changes_no_trace_column(kind, K):
    # A zero-sum projection of every dual step moves all biases by one
    # common shift, so on these seeded runs it routes every token to the
    # same experts, and the Lagrangian column differs only by rounding.
    sched = StepSchedule(kind, SCHEDULE_U[kind])
    for s, (T, E) in enumerate(RUN_DIMS):
        gamma = random_affinities(T, E, 1000 + s)
        L = K * T / E
        trace = simulate_fixed_scores(gamma, sched, 150, K=K)
        blocks = iterate(gamma, sched, K, iterations=150)
        projected = islice(_projected_stepwise(gamma, sched, K), 150)
        got_rows = (row for block in blocks for row in zip(*block))
        for (n, p, chosen, loads, tie), want in zip(got_rows, projected):
            assert n == want[0]
            np.testing.assert_array_equal(chosen, want[2])
            np.testing.assert_array_equal(loads, want[3])
            np.testing.assert_array_equal(tie, want[4])
            np.testing.assert_allclose(project_zero_sum(p), want[1], rtol=0, atol=1e-12)
            value = float(lagrangian(gamma, want[2], want[1], L))
            got = float(trace.lagrangian[n - 1])
            assert abs(got - value) <= LAGRANGIAN_TOL * (1 + abs(value))


@pytest.mark.parametrize("K", [1, 3])
def test_simulate_matches_reference_loop_with_ties(K):
    gamma = _grid_affinities(24, 4, seed=5)
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1 / 16)
    got = _assert_bookkeeping_equal(gamma, sched, 80, K=K)
    want = ref.simulate_fixed_scores(gamma, sched, 80, K=K)
    assert any(step.tie_flag for step in want.steps)
    _assert_traces_equal(gamma, got, want)


def _assert_rows_equal_stepwise(gamma, sched, iterations, K=1):
    """Every row of the blocked ``iterate`` against the stepwise oracle, bit
    for bit; returns the blocks' loads."""
    stepwise = islice(ref.iterate_stepwise(gamma, sched, K), iterations)
    blocks = []
    for block in iterate(gamma, sched, K, iterations=iterations):
        n, p, chosen, loads, _ = block
        assert not any(a.flags.writeable for a in (p, chosen, loads))
        for got, want in zip(zip(*block), stepwise):
            assert got[0] == want[0]
            for a, b in zip(got[1:], want[1:]):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        blocks.append(loads)
    assert sum(map(len, blocks)) == iterations
    assert next(stepwise, None) is None
    return blocks


def _assert_blocks_equal(gamma, sched, iterations, K=1):
    """Every row of the blocked ``iterate`` against the stepwise oracle, bit
    for bit, and the trace against the container reference; returns the
    blocks' loads."""
    blocks = _assert_rows_equal_stepwise(gamma, sched, iterations, K)
    _assert_traces_equal(
        gamma,
        _assert_bookkeeping_equal(gamma, sched, iterations, K=K),
        ref.simulate_fixed_scores(gamma, sched, iterations, K=K),
    )
    return blocks


def _routed_rows(monkeypatch):
    """A list that counts, from now on, the rows ``iterate`` hands to
    ``topk``: one entry per call, the rows of a guessed block or the tokens
    of a one-row block."""
    calls, real = [], deterministic.topk

    def counting(shifted, K, **kwargs):
        calls.append(len(shifted))
        return real(shifted, K, **kwargs)

    monkeypatch.setattr(deterministic, "topk", counting)
    return calls


def test_blocks_match_stepwise_on_plateau(monkeypatch):
    # the benchmark's plateau: routing changes a few times in 2,500
    # iterations, and the blocks past those changes are certified unrouted
    gamma = random_affinities(64, 4, 77)
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1e-6)
    blocks = _assert_blocks_equal(gamma, sched, 2_500)
    assert len(blocks) < 100 and max(map(len, blocks)) == BLOCK_SCORES // (64 * 4)
    routed = _routed_rows(monkeypatch)
    list(iterate(gamma, sched, iterations=2_500))
    # rows 1 and 2, the 256-row block that holds the one routing change (at
    # row 2,119) and the row after it: 259 rows in four calls
    assert len(routed) == 4 and sum(routed) < 0.11 * 2_500


def _grid_plateau_affinities(T, E, seed):
    """Affinities on the 1/8 grid with one largest entry per row, 1/8 above
    the next: ties fall below the K = 1 boundary."""
    g = np.random.default_rng(seed).integers(1, 7, (T, E)) / 8
    g[np.arange(T), g.argmax(axis=1)] += 1 / 8
    return g


@pytest.mark.parametrize(
    "affinities,E,K",
    [
        (random_affinities, 4, 2),
        (random_affinities, 8, 3),
        (_grid_plateau_affinities, 4, 1),
    ],
    ids=["K2", "K3", "tied_grid"],
)
def test_blocks_match_stepwise_on_plateaus(monkeypatch, affinities, E, K):
    gamma = affinities(64, E, 78)
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1e-6)
    blocks = _assert_blocks_equal(gamma, sched, 1_000, K=K)
    assert max(map(len, blocks)) == BLOCK_SCORES // (64 * E)
    routed = _routed_rows(monkeypatch)
    list(iterate(gamma, sched, K, iterations=1_000))
    assert sum(routed) < 0.15 * 1_000


@st.composite
def _plateau_runs(draw):
    """Affinities (softmax of normal scores, or on the 1/8 grid), K <= E, a
    schedule and its u in [1e-7, 1e-2]."""
    T, E = draw(st.integers(2, 40)), draw(st.integers(2, 8))
    affinities = draw(st.sampled_from(
        [random_affinities, _grid_affinities, _grid_plateau_affinities]
    ))
    gamma = affinities(T, E, draw(st.integers(0, 2**16)))
    u = 10.0 ** draw(st.floats(-7, -2))
    sched = StepSchedule(draw(st.sampled_from(list(ScheduleKind))), u)
    return gamma, sched, draw(st.integers(1, E))


@given(_plateau_runs())
@settings(max_examples=60, deadline=None)
def test_blocks_match_stepwise_on_random_runs(run):
    gamma, sched, K = run
    _assert_rows_equal_stepwise(gamma, sched, 300, K=K)


def test_blocks_match_stepwise_when_loads_change_inside_a_block():
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1e-3)
    blocks = _assert_blocks_equal(random_affinities(40, 4, 1000), sched, 300)
    # a guessed block cut short: its length is no power of two, and its last
    # row's loads differ from the guess its earlier rows held to
    cut = [
        b for b in blocks[:-1]
        if len(b) > 2 and len(b) & (len(b) - 1) and (b[-1] != b[0]).any()
    ]
    assert cut


def test_blocks_match_stepwise_when_tokens_swap_at_equal_loads():
    # Tokens 4 and 5 sit one ulp from a tie between experts 0 and 1, whose
    # biases rise together, so rounding moves them between the two; at some
    # row inside a block they swap and the loads stay [1, 1, 4].
    gamma = np.full((6, 3), 0.05)
    gamma[:4, 2] = 0.9
    for token, x in ((4, 1 / 3), (5, 0.4)):
        gamma[token, :2] = x, np.nextafter(x, 1.0)
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 0.002)
    _assert_blocks_equal(gamma, sched, 200)
    swaps = 0
    for _, _, chosen, loads, _ in iterate(gamma, sched, iterations=200):
        a = chosen[:, :, 0]
        moved = (a[1:] != a[:-1]).any(axis=1)
        swaps += int((moved & (loads[1:] == loads[:-1]).all(axis=1)).sum())
    assert swaps > 0


def test_blocks_match_stepwise_when_iterations_end_inside_a_block():
    gamma = random_affinities(64, 4, 77)
    blocks = _assert_blocks_equal(
        gamma, StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1e-6), 1_037
    )
    last = len(blocks[-1])
    assert last > 1 and last & (last - 1)


def test_blocks_are_single_rows_above_the_block_cap():
    T, E = BLOCK_SCORES // 64 + 1, 64
    # u so small that the loads never change: only the cap keeps blocks short
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1e-12)
    for K in (1, 3):
        blocks = _assert_blocks_equal(random_affinities(T, E, 5), sched, 6, K=K)
        assert [len(b) for b in blocks] == [1] * 6
        assert all((b == blocks[0]).all() for b in blocks)


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("E", [256, 257])
def test_trace_holds_the_highest_expert_index(E, K):
    # E = 256 is the widest expert count whose indices fit one byte.  Every
    # other token prefers the last expert, whose bias the sign schedule then
    # lowers until tokens leave it, and raises until they come back, so
    # index E - 1 is stored, diffed and switched to and from.
    gamma = np.array(random_affinities(16, E, 40 + K))
    gamma[::2, E - 1] = 0.5
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 0.05)
    _assert_blocks_equal(gamma, sched, 40, K=K)
    trace = simulate_fixed_scores(gamma, sched, 40, K=K)
    if K == 1:
        assert (trace.switches[:, 2] == E - 1).any()
        assert (trace.switches[:, 3] == E - 1).any()


@pytest.mark.parametrize("K", [1, 3])
def test_bookkeeping_across_score_chunks(monkeypatch, K):
    # chunks of three rows: switches fall on the first row of many chunks
    T, E = 40, 4
    monkeypatch.setattr(deterministic, "SCORE_CELLS", 3 * T * K)
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1e-3)
    trace = _assert_bookkeeping_equal(random_affinities(T, E, 1000), sched, 300, K=K)
    if K == 1:
        assert (trace.switches[:, 0] % 3 == 0).any()


@pytest.mark.parametrize("kind", list(ScheduleKind))
def test_blocks_match_stepwise_for_every_schedule(kind):
    sched = StepSchedule(kind, SCHEDULE_U[kind] / 10)
    for K in (1, 3):
        blocks = _assert_blocks_equal(random_affinities(40, 4, 1000 + K), sched, 400, K=K)
        assert max(map(len, blocks)) > 1


@given(_plateau_runs())
@settings(max_examples=60, deadline=None)
def test_token_rows_match_stepwise_on_random_runs(run):
    # BLOCK_SCORES = 1 caps every block at one row, so these small shapes
    # take the token certificate
    gamma, sched, K = run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deterministic, "BLOCK_SCORES", 1)
        _assert_rows_equal_stepwise(gamma, sched, 300, K=K)


@pytest.mark.parametrize("K", [1, 2, 3, 8])
def test_token_rows_match_stepwise_on_tied_grid(monkeypatch, K):
    # 1/8-grid scores (for K = 1 with the largest 1/8 above the rest, since
    # a tied token is never certified), u = 1/16, which keeps every sum
    # exact, and u = 1/384, which rounds the biases and moves them slowly
    monkeypatch.setattr(deterministic, "BLOCK_SCORES", 1)
    affinities = _grid_plateau_affinities if K == 1 else _grid_affinities
    gamma = affinities(48, 12, K)
    routed = []
    ties = 0
    for u in (1 / 16, 1 / 384):
        sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, u)
        _assert_blocks_equal(gamma, sched, 150, K=K)
        with monkeypatch.context() as mp:
            calls = _routed_rows(mp)
            ties += sum(int(tie.sum()) for *_, tie in iterate(gamma, sched, K, iterations=150))
        routed += calls
    # rows that route some tokens and certify the rest, and tied tokens
    assert any(0 < n < 48 for n in routed) and ties > 0


@pytest.mark.parametrize(
    "affinities,E,K",
    [
        (random_affinities, 4, 2),
        (random_affinities, 8, 3),
        (_grid_plateau_affinities, 4, 1),
    ],
    ids=["K2", "K3", "tied_grid"],
)
def test_token_rows_match_stepwise_on_plateaus(monkeypatch, affinities, E, K):
    monkeypatch.setattr(deterministic, "BLOCK_SCORES", 1)
    gamma = affinities(64, E, 78)
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1e-6)
    blocks = _assert_blocks_equal(gamma, sched, 1_000, K=K)
    assert list(map(len, blocks)) == [1] * 1_000
    routed = _routed_rows(monkeypatch)
    list(iterate(gamma, sched, K, iterations=1_000))
    # the first row routes all 64 tokens, later rows only those near a tie
    assert routed[0] == 64 and sum(routed) < 0.02 * 64 * 1_000


def _large_cases():
    """The benchmark's large shapes, whose blocks are one row at the real
    ``BLOCK_SCORES``, and a tied 1/8 grid of that size, each at 100 rows."""
    sign = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1e-3)
    cases = [("trace_4096x64_k1", (4096, 64), sign, 1)]
    cases += [
        (f"compare_2048x64_k8_{kind.value}", (2048, 64), StepSchedule(kind, 1e-3), 8)
        for kind in (ScheduleKind.DEEPSEEK_SIGN, ScheduleKind.INVERSE_N,
                     ScheduleKind.INVERSE_SQRT_N)
    ]
    cases += [(f"grid_1024x64_k{K}", "grid", StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1 / 48), K)
              for K in (1, 8)]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("shape,sched,K", _large_cases())
def test_token_rows_match_stepwise_at_large_shapes(monkeypatch, shape, sched, K):
    if shape == "grid":
        gamma = _grid_affinities(1024, 64, seed=K)
    else:
        gamma = random_affinities(*shape, 1)
    assert 2 * gamma.size > BLOCK_SCORES  # every block is one row
    _assert_rows_equal_stepwise(gamma, sched, 100, K=K)


def _assert_audits_equal(gamma, sched, iterations):
    """audit_trace against the reference audit; returns the number of
    switches audited and of switches skipped for a tie."""
    trace = simulate_fixed_scores(gamma, sched, iterations)
    audit = audit_trace(trace)
    want = ref.simulate_fixed_scores(gamma, sched, iterations)
    residual = ref.check_lagrangian_identity(want)
    gap = np.abs(audit.identity_residual - residual)
    assert (gap <= LAGRANGIAN_TOL * audit.identity_scale).all()
    if sched.kind is ScheduleKind.DEEPSEEK_SIGN:
        assert (audit.switches_audited, audit.switch_violations) == ref.audit_switches(
            want, sched.u
        )
    else:
        assert (audit.switches_audited, audit.switch_violations) == (0, 0)
    return audit.switches_audited, len(trace.benefit) - audit.switches_audited


@pytest.mark.parametrize("kind", list(ScheduleKind))
def test_audit_matches_reference(kind):
    sched = StepSchedule(kind, SCHEDULE_U[kind])
    for s, (T, E) in enumerate(RUN_DIMS):
        _assert_audits_equal(random_affinities(T, E, 1000 + s), sched, 60)


def test_audit_matches_reference_with_ties():
    # Every transition of the first instance has a tie; the second has some.
    audited = skipped = 0
    for (T, E, seed), u in [((24, 4, 5), 1 / 16), ((8, 4, 2), 1 / 48)]:
        sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, u)
        counts = _assert_audits_equal(_grid_affinities(T, E, seed), sched, 80)
        audited, skipped = audited + counts[0], skipped + counts[1]
    assert audited > 0 and skipped > 0


def _assert_reports_equal(got, want):
    np.testing.assert_array_equal(got.entered_iteration, want.entered_iteration)
    assert got.iterations_run == want.iterations_run
    assert got.stayed == want.stayed
    assert got.max_load_step == want.max_load_step
    assert got.load_step_ok == want.load_step_ok
    assert got.converged == want.converged
    assert got.any_tie == want.any_tie


@pytest.mark.parametrize("T,E", BALANCE_DIMS)
def test_balance_check_matches_reference(T, E):
    for seed in (3000, 3100, 3200):
        gamma = random_affinities(T, E, seed + T)
        u = 0.9 * ubar(gamma)
        _assert_reports_equal(
            check_balance_convergence(gamma, u, budget=10 * T * E),
            ref.check_balance_convergence(gamma, u, budget=10 * T * E),
        )


def test_balance_check_matches_reference_on_slow_instance():
    # The slowest criterion-3 instance: u ~ 7.5e-8 and routing that changes
    # only a few times, cut at 20,000 iterations.
    gamma = random_affinities(64, 4, 3058)
    u = 0.9 * ubar(gamma)
    got = check_balance_convergence(gamma, u, budget=20_000)
    want = ref.check_balance_convergence(gamma, u, budget=20_000)
    assert want.iterations_run == 20_000
    _assert_reports_equal(got, want)


def test_balance_check_matches_stepwise_past_first_routing_change():
    # The same instance past its first routing change, at n = 22,142.
    gamma = random_affinities(64, 4, 3058)
    u = 0.9 * ubar(gamma)
    got = check_balance_convergence(gamma, u, budget=23_000)
    want = ref.check_balance_convergence_stepwise(gamma, u, budget=23_000)
    assert want.iterations_run == 23_000 and want.max_load_step > 0
    _assert_reports_equal(got, want)


def test_balance_check_matches_stepwise_when_a_load_leaves_the_band():
    # Loads [5, 3] start in the band [3, 5]; tokens 2-4 share one score gap,
    # so they leave expert 0 together at row 11, the last row of the run and
    # not the first of its block, and expert 0 falls to 2.
    gamma = np.array([[0.9, 0.1]] * 2 + [[0.6, 0.4]] * 3 + [[0.1, 0.9]] * 3)
    got = check_balance_convergence(gamma, 0.011, budget=11)
    want = ref.check_balance_convergence_stepwise(gamma, 0.011, budget=11)
    assert not want.stayed and want.max_load_step == 3
    _assert_reports_equal(got, want)
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 0.011)
    blocks = [n for n, *_ in iterate(gamma, sched, iterations=11)]
    assert len(blocks[-1]) > 1 and blocks[-1][-1] == 11


def test_balance_check_matches_reference_with_ties():
    gamma = _grid_affinities(16, 4, seed=9)
    got = check_balance_convergence(gamma, 1 / 16, budget=300)
    want = ref.check_balance_convergence(gamma, 1 / 16, budget=300)
    assert want.any_tie
    _assert_reports_equal(got, want)


def _arrays(obj):
    """Every numpy array of a trace column, with the arrays it views."""
    while obj is not None:
        yield obj
        obj = obj.base if isinstance(obj.base, np.ndarray) else None


def test_trace_steps_hold_only_per_expert_arrays():
    T, E, N = 512, 16, 50
    gamma = random_affinities(T, E, 21)
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1e-3)
    trace = simulate_fixed_scores(gamma, sched, N)
    S = len(trace.benefit)
    assert S > 0
    shapes = {
        "p": (N, E), "loads": (N, E), "lagrangian": (N,), "tie": (N,),
        "switches": (S, 4), "benefit": (S,), "gap_prev": (S,),
    }
    for name, shape in shapes.items():
        column = getattr(trace, name)
        assert column.shape == shape
        arrays = list(_arrays(column))
        assert max(a.size for a in arrays) == column.size
        assert not any(a.flags.writeable for a in arrays)
    # the blocks the trace was built from hand out read-only biases and loads
    for n, p, _, loads, _ in iterate(gamma, sched, iterations=N):
        assert p.shape == loads.shape == (len(n), E)
        assert not p.flags.writeable and not loads.flags.writeable
