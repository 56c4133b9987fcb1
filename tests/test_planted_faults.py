"""Planted faults: an acceptance criterion must fail on a lab output that
breaks its guarantee.

Each test first runs a criterion on a small input and sees it pass, then
monkeypatches one lab function, under the name the acceptance module calls
it by, to put a NaN into the statistic the criterion judges, and sees the
criterion fail.  A NaN compares false with every bound, so a rule that lets
one through has dropped it before the comparison (Python's ``max(0.0, nan)``
is ``0.0``).
"""

import dataclasses

import numpy as np
import pytest

import test_acceptance as acceptance
from alflb.balancer import ScheduleKind, StepSchedule
from alflb.deterministic import audit_trace, simulate_fixed_scores
from alflb.stochastic import (
    check_gradient_moments, hessian_fd_errors, selection_moments,
)


def _fails(criterion: int, run) -> None:
    with pytest.raises(AssertionError, match=f"criterion {criterion} .* failed"):
        run()


def _first_nan(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=np.float64)
    out[0] = np.nan
    return out


@pytest.fixture(scope="module")
def small_suite():
    """One sign-schedule trace in which switches happen, and one 1/n trace."""
    gamma = acceptance._seeded_affinities(40, 4, 1000)
    return [
        (sched, simulate_fixed_scores(gamma, sched, 200))
        for sched in (StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 0.001),
                      StepSchedule(ScheduleKind.INVERSE_N, 1.0))
    ]


@pytest.mark.parametrize("number", [1, 2])
def test_nan_identity_residual_fails_criteria_1_and_2(monkeypatch, small_suite, number):
    criterion = {
        1: acceptance.test_criterion_1_lagrangian_identity,
        2: acceptance.test_criterion_2_switching_bounds,
    }[number]
    criterion(small_suite)

    def planted(trace):
        audit = audit_trace(trace)
        return dataclasses.replace(
            audit, identity_residual=_first_nan(audit.identity_residual)
        )

    monkeypatch.setattr(acceptance, "audit_trace", planted)
    _fails(number, lambda: criterion(small_suite))


@pytest.mark.parametrize("field", ["mean_z", "var_z", "second_moment_z"])
def test_nan_moment_z_fails_criterion_5(monkeypatch, field):
    monkeypatch.setattr(acceptance, "_MOMENT_CONFIGS", acceptance._MOMENT_CONFIGS[-1:])
    acceptance.test_criterion_5_gradient_moments()

    def planted(*args, **kwargs):
        report = check_gradient_moments(*args, **kwargs)
        z = getattr(report, field)
        return dataclasses.replace(
            report, **{field: _first_nan(z) if np.ndim(z) else np.nan}
        )

    monkeypatch.setattr(acceptance, "check_gradient_moments", planted)
    _fails(5, acceptance.test_criterion_5_gradient_moments)


def test_nan_hessian_error_fails_criterion_7(monkeypatch):
    monkeypatch.setattr(acceptance, "_HESSIAN_CONFIGS", acceptance._HESSIAN_CONFIGS[:1])
    acceptance.test_criterion_7_hessian_identity()

    def planted(*args, **kwargs):
        return _first_nan(hessian_fd_errors(*args, **kwargs))

    monkeypatch.setattr(acceptance, "hessian_fd_errors", planted)
    _fails(7, acceptance.test_criterion_7_hessian_identity)


def test_nan_selection_probability_fails_criterion_6(monkeypatch):
    monkeypatch.setattr(acceptance, "_PI_CONFIGS", acceptance._PI_CONFIGS[:1])
    acceptance.test_criterion_6_pi_quadrature_vs_monte_carlo()

    def planted(*args, **kwargs):
        pi, value = selection_moments(*args, **kwargs)
        return _first_nan(pi), value

    monkeypatch.setattr(acceptance, "selection_moments", planted)
    _fails(6, acceptance.test_criterion_6_pi_quadrature_vs_monte_carlo)


def test_nan_lagrangian_fails_criterion_9(monkeypatch):
    acceptance.test_criterion_9_exact_identities()
    monkeypatch.setattr(acceptance, "lagrangian", lambda *args: np.nan)
    _fails(9, acceptance.test_criterion_9_exact_identities)
