import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alflb.balancer import ScheduleKind, StepSchedule, project_zero_sum
from alflb.deterministic import iterate
from alflb.errors import InvalidRange
from conftest import random_affinities

SCHEDULE_U = {
    ScheduleKind.DEEPSEEK_SIGN: 0.001,
    ScheduleKind.INVERSE_N: 1.0,
    ScheduleKind.INVERSE_SQRT_N: 0.02,
    ScheduleKind.CONSTANT: 0.01,
}


def _biases_and_loads(gamma, sched, iterations, K=1):
    """(n, p_n, loads_n) of the first ``iterations`` iterations of ``iterate``,
    one tuple per row of its blocks."""
    return [
        step
        for n, p, _, loads, _ in iterate(gamma, sched, K, iterations=iterations)
        for step in zip(n, p, loads)
    ]


class TestStepSchedule:
    def test_u_must_be_positive(self):
        with pytest.raises(InvalidRange):
            StepSchedule(ScheduleKind.CONSTANT, 0.0)
        with pytest.raises(InvalidRange):
            StepSchedule(ScheduleKind.DEEPSEEK_SIGN, -0.001)

    @pytest.mark.parametrize("u", [float("inf"), float("nan")])
    def test_u_must_be_finite(self, u):
        # rejected at construction, not at the first dual step
        with pytest.raises(InvalidRange):
            StepSchedule(ScheduleKind.CONSTANT, u)

    def test_sign_schedule_delta(self):
        sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 0.001)
        delta = sched.bias_delta(np.array([3, 1]), 2.0, n=1)
        np.testing.assert_array_equal(delta, [-0.001, 0.001])

    def test_sign_schedule_noop_at_target(self):
        sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 0.001)
        delta = sched.bias_delta(np.array([2, 2]), 2.0, n=5)
        np.testing.assert_array_equal(delta, [0.0, 0.0])

    def test_inverse_n_delta(self):
        sched = StepSchedule(ScheduleKind.INVERSE_N, 1.0)
        delta = sched.bias_delta(np.array([3, 1]), 2.0, n=2)
        np.testing.assert_allclose(delta, [-0.5, 0.5])

    def test_scalar_steps(self):
        assert StepSchedule(ScheduleKind.CONSTANT, 0.25).scalar_step(9) == 0.25
        assert StepSchedule(ScheduleKind.INVERSE_N, 1.0).scalar_step(4) == 0.25
        assert StepSchedule(ScheduleKind.INVERSE_SQRT_N, 1.0).scalar_step(4) == 0.5
        with pytest.raises(InvalidRange):
            StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 0.1).scalar_step(1)

    def test_quadratic_penalty_sign_is_l1(self):
        sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 0.01)
        loads = np.array([5, 2, 2, 3])
        assert sched.quadratic_penalty(loads, 3.0, 7) == pytest.approx(
            0.01 * (2 + 1 + 1 + 0)
        )

    def test_quadratic_penalty_homogeneous(self):
        sched = StepSchedule(ScheduleKind.INVERSE_N, 1.0)
        loads = np.array([5, 1])
        assert sched.quadratic_penalty(loads, 3.0, 2) == pytest.approx(0.5 * 8)


class TestDualUpdate:
    """The dual step that ``iterate`` takes between two routings."""

    @pytest.mark.parametrize("kind", list(ScheduleKind), ids=lambda k: k.value)
    def test_step_is_the_schedule_rule_bit_for_bit(self, kind):
        # p_{n+1} = p_n + eps_n (L - A_n), with no projection
        sched = StepSchedule(kind, SCHEDULE_U[kind])
        for K in (1, 2):
            gamma = random_affinities(24, 6, seed=4 + K)
            steps = _biases_and_loads(gamma, sched, 40, K)
            L = K * 24 / 6
            for (n, p, loads), (_, p_next, _) in zip(steps, steps[1:]):
                want = p + sched.bias_delta(loads, L, n)
                assert p_next.tobytes() == want.tobytes()

    def test_sign_update_is_exactly_plus_minus_u(self):
        # at p = 0, tokens 0-3 pick expert 0, 4-5 expert 1, 6-8 expert 2
        u = 0.001
        gamma = np.full((9, 3), 0.1)
        gamma[:4, 0] = gamma[4:6, 1] = gamma[6:, 2] = 0.8
        steps = _biases_and_loads(gamma, StepSchedule(ScheduleKind.DEEPSEEK_SIGN, u), 2)
        assert steps[0][2].tolist() == [4, 2, 3]
        assert steps[1][1].tolist() == [-u, u, 0.0]
        assert steps[1][0] == 2

    def test_balanced_loads_are_a_fixed_point(self):
        gamma = np.array([[0.9, 0.1], [0.2, 0.8]])
        for kind in ScheduleKind:
            for _, p, loads in _biases_and_loads(gamma, StepSchedule(kind, 0.5), 5):
                assert loads.tolist() == [1, 1]
                assert p.tolist() == [0.0, 0.0]

    def test_homogeneous_updates_preserve_zero_sum_without_projection(self):
        # the update is eps * (L - A) and sum(L - A) = 0 exactly
        gamma = random_affinities(12, 4, seed=1)
        sched = StepSchedule(ScheduleKind.INVERSE_SQRT_N, 0.7)
        for _, p, _ in _biases_and_loads(gamma, sched, 50):
            assert abs(p.sum()) <= 1e-9


class TestProjectionAndDiameter:
    def test_projection_example(self):
        q = project_zero_sum(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(q, [-1.0, 0.0, 1.0])

    def test_projection_fixes_zero_sum_vectors(self):
        p = np.array([-0.3, 0.1, 0.2])
        np.testing.assert_allclose(project_zero_sum(p), p, atol=1e-15)

    def test_projection_is_per_row(self):
        rows = np.array([[1.0, 2.0, 3.0], [-0.3, 0.1, 0.2]])
        q = project_zero_sum(rows)
        for row, want in zip(q, rows):
            np.testing.assert_array_equal(row, project_zero_sum(want))



@given(
    vals=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=10,
    )
)
@settings(max_examples=100, deadline=None)
def test_projection_idempotent_and_zero_sum(vals):
    p = np.array(vals)
    q = project_zero_sum(p)
    scale = max(1.0, float(np.abs(p).max()))
    assert abs(q.sum()) <= 1e-12 * scale * len(vals)
    q2 = project_zero_sum(q)
    np.testing.assert_allclose(q2, q, atol=1e-12 * scale)
