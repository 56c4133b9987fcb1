import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alflb.core import BiasVector
from alflb.errors import InvalidRange
from alflb.router import (
    RawScoreMatrix,
    lagrangian,
    loads,
    route_topk,
    softmax_affinities,
    topk,
)
from conftest import random_affinities
from reference_routing import dense_lagrangian


class TestSoftmax:
    def test_equal_scores_give_uniform(self):
        gamma = softmax_affinities(RawScoreMatrix(np.zeros((3, 2))))
        np.testing.assert_allclose(gamma, 0.5)

    def test_log_three_example(self):
        raw = RawScoreMatrix(np.array([[np.log(3.0), 0.0]]))
        gamma = softmax_affinities(raw)
        np.testing.assert_allclose(gamma, [[0.75, 0.25]], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        gamma = softmax_affinities(RawScoreMatrix(rng.standard_normal((50, 7))))
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance_per_row(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((20, 5))
        shifted = raw + rng.standard_normal((20, 1)) * 10
        a = softmax_affinities(RawScoreMatrix(raw))
        b = softmax_affinities(RawScoreMatrix(shifted))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_one_buffer_matches_three_temporaries_bit_for_bit(self):
        rng = np.random.default_rng(5)
        normal = rng.standard_normal((256, 16))
        # rows whose spread is near 700, so that exp reaches about 1e-304,
        # with two cells near the top, so that no probability rounds to 1,
        # and shifted by 0, +700 and -700, so that the max subtraction rounds
        spread = rng.uniform(690.0, 710.0, (192, 1))
        wide = -spread * rng.uniform(0.0, 1.0, (192, 16))
        wide[:, 0], wide[:, 1], wide[:, 2] = 0.0, -rng.uniform(0.0, 2.0, 192), -spread[:, 0]
        wide = rng.permuted(wide, axis=1) + np.repeat([0.0, 700.0, -700.0], 64)[:, None]
        for v in (normal, wide):
            shifted = v - v.max(axis=1, keepdims=True)
            expv = np.exp(shifted)
            want = expv / expv.sum(axis=1, keepdims=True)
            got = softmax_affinities(RawScoreMatrix(v))
            assert got.tobytes() == want.tobytes()

    def test_overflow_guard(self):
        with pytest.raises(InvalidRange, match="degenerate probability"):
            softmax_affinities(RawScoreMatrix(np.array([[0.0, 2000.0]])))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidRange, match="raw scores must be finite"):
            RawScoreMatrix(np.array([[0.0, np.nan]]))


def _bruteforce_route(gamma: np.ndarray, p: np.ndarray, K: int):
    """Per-row selection oracle: lexicographic sort on (-score, index)."""
    T, E = gamma.shape
    shifted = gamma + p[None, :]
    chosen = np.empty((T, K), dtype=np.int64)
    for i in range(T):
        order = sorted(range(E), key=lambda k: (-shifted[i, k], k))
        chosen[i] = order[:K]
    return chosen


class TestRouteTopK:
    def test_two_token_example(self):
        gamma = np.array([[0.9, 0.1], [0.6, 0.4]])
        out = route_topk(gamma, BiasVector.zeros(2), 1)
        assert out.assigned_experts[:, 0].tolist() == [0, 0]
        assert out.loads.counts.tolist() == [2, 0]
        assert not out.tie_flag

        # a bias of -0.25 on expert 0 flips only the second token
        out2 = route_topk(gamma, BiasVector(np.array([-0.25, 0.0])), 1)
        assert out2.assigned_experts[:, 0].tolist() == [0, 1]
        assert out2.loads.counts.tolist() == [1, 1]

    def test_matches_bruteforce_sort(self):
        gamma = random_affinities(50, 8, seed=3)
        rng = np.random.default_rng(4)
        p = BiasVector(rng.uniform(-0.1, 0.1, size=8))
        out = route_topk(gamma, p, 3)
        expected = _bruteforce_route(gamma, p.values, 3)
        # the same set, in ascending expert index
        np.testing.assert_array_equal(out.assigned_experts, np.sort(expected, axis=1))
        # the loads are the column sums of the 0/1 selection matrix
        sel = np.zeros((50, 8), dtype=np.int64)
        np.put_along_axis(sel, expected, 1, axis=1)
        np.testing.assert_array_equal(out.loads.counts, sel.sum(axis=0))

    def test_tie_lowest_index_and_flag(self):
        gamma = np.array([[0.4, 0.4, 0.2]])
        out = route_topk(gamma, BiasVector.zeros(3), 1)
        assert out.assigned_experts[:, 0].tolist() == [0]
        assert out.tie_flag
        assert out.row_tie.tolist() == [True]

    def test_tie_inside_selection_not_flagged(self):
        # tie between ranks 1 and 2 is inside the Top-2 set, not a boundary tie
        gamma = np.array([[0.4, 0.4, 0.2]])
        out = route_topk(gamma, BiasVector.zeros(3), 2)
        assert sorted(out.assigned_experts[0].tolist()) == [0, 1]
        assert not out.tie_flag

    def test_k_equals_e_selects_all(self):
        gamma = random_affinities(10, 4, seed=5)
        out = route_topk(gamma, BiasVector.zeros(4), 4)
        np.testing.assert_array_equal(
            np.sort(out.assigned_experts, axis=1), np.tile(np.arange(4), (10, 1))
        )
        assert out.loads.counts.tolist() == [10] * 4
        assert not out.tie_flag

    def test_raising_bias_keeps_selection(self):
        # once selected, an expert stays selected when only its bias goes up
        gamma = random_affinities(30, 5, seed=8)
        p = np.zeros(5)
        out = route_topk(gamma, BiasVector(p), 2)
        was = (out.assigned_experts == 2).any(axis=1)
        p2 = p.copy()
        p2[2] += 0.05
        out2 = route_topk(gamma, BiasVector(p2), 2)
        assert np.all((out2.assigned_experts[was] == 2).any(axis=1))
        assert out2.loads.counts[2] >= out.loads.counts[2]

    def test_bias_length_mismatch(self):
        gamma = random_affinities(4, 3, seed=9)
        with pytest.raises(InvalidRange, match="bias length 4 != expert count 3"):
            route_topk(gamma, BiasVector.zeros(4), 1)


class TestLagrangian:
    """The Top-K set, the loads and the Lagrangian of a routing, which
    score the regret rounds and the fixed-score trace alike."""

    def test_hand_instance(self):
        p = np.array([0.0, 0.05])
        gamma = np.array([[0.9, 0.1]])
        chosen = topk(gamma + p, 1)[0]
        assert chosen.tolist() == [[0]]
        assert lagrangian(gamma, chosen, p, 0.5) == pytest.approx(0.875, abs=1e-15)

    def test_equals_dense_lagrangian_k1(self):
        rng = np.random.default_rng(0)
        for seed in range(30):
            p = rng.uniform(-0.1, 0.1, size=4)
            g = random_affinities(16, 4, seed=seed)
            shifted = g + p
            chosen = topk(shifted, 1)[0]
            got = lagrangian(g, chosen, p, 4.0)
            want = dense_lagrangian(shifted, chosen, p, 4.0)
            assert got == pytest.approx(want, abs=1e-12)
            np.testing.assert_array_equal(chosen[:, 0], shifted.argmax(axis=-1))

    @pytest.mark.parametrize("E", [3, 5, 8])
    def test_equals_dense_lagrangian_topk(self, E):
        rng = np.random.default_rng(E)
        for K in range(2, E):
            for seed in range(10):
                p = rng.uniform(-0.2, 0.2, size=E)
                g = random_affinities(4 * E, E, seed=100 * E + seed)
                shifted = g + p
                L = K * 4.0
                chosen = topk(shifted, K)[0]
                got = lagrangian(g, chosen, p, L)
                want = dense_lagrangian(shifted, chosen, p, L)
                assert got == pytest.approx(want, abs=1e-12)
                # the same expert set as an independent partition
                top = np.argpartition(-shifted, K - 1, axis=-1)[..., :K]
                np.testing.assert_array_equal(chosen, np.sort(top, axis=-1))

    def test_batched_rows_equal_single_rows(self):
        rng = np.random.default_rng(3)
        P = rng.uniform(-0.1, 0.1, size=(5, 6))
        scores = rng.uniform(size=(5, 12, 6))
        shifted = scores + P[:, None, :]
        chosen = topk(shifted, 2)[0]
        loss = lagrangian(scores, chosen, P, 4.0)
        counts = loads(chosen, 6)
        assert chosen.shape == (5, 12, 2) and loss.shape == (5,)
        assert counts.shape == (5, 6)
        for r in range(5):
            c = topk(shifted[r], 2)[0]
            np.testing.assert_array_equal(c, chosen[r])
            assert lagrangian(scores[r], c, P[r], 4.0) == loss[r]
            # a 2-D block is one routing: its loads are an (E,) array
            np.testing.assert_array_equal(loads(c, 6), counts[r])
            np.testing.assert_array_equal(counts[r], np.bincount(c.ravel(), minlength=6))


@st.composite
def _scores_biases_and_shift(draw):
    """(gamma, p, c, K) with 1 <= K <= E: affinities and biases either
    continuous or on the 1/8 and 1/16 grids, where boundary ties are
    common, and a common bias shift c."""
    T, E = draw(st.integers(2, 12)), draw(st.integers(2, 7))
    if draw(st.booleans()):
        cell = st.integers(1, 7).map(lambda j: j / 8)
        bias = st.integers(-16, 16).map(lambda j: j / 16)
    else:
        cell, bias = st.floats(1e-3, 1 - 1e-3), st.floats(-1.0, 1.0)
    gamma = np.array(draw(st.lists(cell, min_size=T * E, max_size=T * E)))
    p = np.array(draw(st.lists(bias, min_size=E, max_size=E)))
    c = draw(st.floats(-5.0, 5.0))
    return gamma.reshape(T, E), p, c, draw(st.integers(1, E))


@given(_scores_biases_and_shift())
@settings(max_examples=200, deadline=None)
def test_common_bias_shift_keeps_topk_and_lagrangian(case):
    # Why a zero-sum projection of the dual step changes no output: moving
    # every bias by c keeps each token's Top-K set, and at L = K*T/E the
    # Lagrangian changes by c*K*T - L*E*c = 0.  Rows whose K-th and (K+1)-th
    # scores lie within ``margin`` of each other may round either way, and
    # shift the Lagrangian by at most K * margin each.
    gamma, p, c, K = case
    T, E = gamma.shape
    L = K * T / E
    margin = 8 * np.finfo(float).eps * (1 + np.abs(p).max() + abs(c))
    scores = gamma + p
    chosen, _ = topk(scores, K)
    shifted, _ = topk(gamma + (p + c), K)
    # each row's scores in descending order, then -inf: with K = E no
    # expert is left out and every row is clear
    ranked = -np.sort(-np.column_stack((scores, np.full(T, -np.inf))), axis=-1)
    clear = ranked[:, K - 1] - ranked[:, K] > margin
    np.testing.assert_array_equal(shifted[clear], chosen[clear])
    got = lagrangian(gamma, shifted, p + c, L)
    want = lagrangian(gamma, chosen, p, L)
    assert abs(got - want) <= 4 * T * K * margin
