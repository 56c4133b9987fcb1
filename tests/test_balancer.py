import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alflb.balancer import (
    BalancerState,
    ScheduleKind,
    StepSchedule,
    diameter,
    dual_update,
    project_zero_sum,
)
from alflb.core import BiasVector, LoadVector, ProblemDims
from alflb.errors import DimMismatch, InvalidRange


def _loads(counts, K=1):
    counts = np.asarray(counts)
    T = int(counts.sum()) // K
    return LoadVector(ProblemDims(T=T, E=len(counts), K=K), counts)


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
        assert not sched.homogeneous

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
    def test_sign_update_is_exactly_plus_minus_u(self):
        u = 0.001
        state = BalancerState(p=BiasVector.zeros(3))
        loads = _loads([4, 2, 3])
        new = dual_update(state, loads, 3.0, StepSchedule(ScheduleKind.DEEPSEEK_SIGN, u))
        assert new.p.values.tolist() == [-u, u, 0.0]
        assert new.iteration == 2

    def test_balanced_loads_are_a_fixed_point(self):
        state = BalancerState(p=BiasVector(np.array([0.1, -0.1])))
        loads = _loads([2, 2])
        for kind in ScheduleKind:
            new = dual_update(state, loads, 2.0, StepSchedule(kind, 0.5))
            np.testing.assert_array_equal(new.p.values, state.p.values)

    def test_zero_sum_mode_projects_every_step(self):
        state = BalancerState(p=BiasVector.zeros(4), zero_sum=True)
        sched = StepSchedule(ScheduleKind.CONSTANT, 0.3)
        rng = np.random.default_rng(0)
        for _ in range(25):
            counts = rng.multinomial(12, [0.25] * 4)
            state = dual_update(state, _loads(counts), 3.0, sched)
            assert abs(state.p.values.sum()) <= 1e-12

    def test_homogeneous_updates_preserve_zero_sum_without_projection(self):
        # the update is eps * (L - A) and sum(L - A) = 0 exactly
        state = BalancerState(p=BiasVector.zeros(4))
        sched = StepSchedule(ScheduleKind.INVERSE_SQRT_N, 0.7)
        rng = np.random.default_rng(1)
        for _ in range(50):
            counts = rng.multinomial(12, [0.25] * 4)
            state = dual_update(state, _loads(counts), 3.0, sched)
        assert abs(state.p.values.sum()) <= 1e-9

    def test_length_mismatch(self):
        state = BalancerState(p=BiasVector.zeros(3))
        with pytest.raises(DimMismatch):
            dual_update(state, _loads([2, 2]), 2.0, StepSchedule(ScheduleKind.CONSTANT, 0.1))


class TestProjectionAndDiameter:
    def test_projection_example(self):
        q = project_zero_sum(BiasVector(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(q.values, [-1.0, 0.0, 1.0])

    def test_projection_fixes_zero_sum_vectors(self):
        p = BiasVector(np.array([-0.3, 0.1, 0.2]))
        q = project_zero_sum(p)
        np.testing.assert_allclose(q.values, p.values, atol=1e-15)

    def test_diameter(self):
        assert diameter(BiasVector(np.array([-0.4, 0.0, 0.6]))) == pytest.approx(1.0)

    def test_kappa_gate(self):
        p = BiasVector(np.array([-0.3, 0.3]))
        assert BalancerState(p=p).diameter_ok()
        assert BalancerState(p=p, kappa=0.2).diameter_ok()
        assert not BalancerState(p=p, kappa=0.5).diameter_ok()

    def test_iteration_counter_validated(self):
        with pytest.raises(InvalidRange):
            BalancerState(p=BiasVector.zeros(2), iteration=0)


@given(
    vals=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=10,
    )
)
@settings(max_examples=100, deadline=None)
def test_projection_idempotent_and_zero_sum(vals):
    p = BiasVector(np.array(vals))
    q = project_zero_sum(p)
    scale = max(1.0, float(np.abs(p.values).max()))
    assert abs(q.values.sum()) <= 1e-12 * scale * len(vals)
    q2 = project_zero_sum(q)
    np.testing.assert_allclose(q2.values, q.values, atol=1e-12 * scale)
