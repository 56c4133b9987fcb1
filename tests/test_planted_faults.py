"""Planted faults: an acceptance criterion must fail on a lab output that
breaks its guarantee.

Most tests first run a criterion on a small input and see it pass, then
monkeypatch one lab function, under the name the acceptance module calls
it by, to put a NaN into the statistic the criterion judges, and see the
criterion fail.  A NaN compares false with every bound, so a rule that lets
one through has dropped it before the comparison (Python's ``max(0.0, nan)``
is ``0.0``).  The last eight plant a wrong formula rather than a NaN: a
dual update with the wrong sign (criterion 1), a bias shifted on the
quadrature side of the moment check only (criterion 5), quadrature nodes
spread over the segments in proportion to their width, which the 1e-12
comparison with the enumeration oracle must catch, two wrong
certificates of an unrouted ``iterate`` block and two of the per-token
certificate of its one-row blocks, which the stepwise routing oracle must
catch, and an overflow rule that bounds only the biases, under
which a config that ``balancer.check_overflow_bound`` rejects reaches a NaN
identity residual.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import test_acceptance as acceptance
import test_quadrature_oracle as oracle
import test_routing_oracle as routing_oracle
from alflb import cli, deterministic, distributions, stochastic
from alflb.balancer import ScheduleKind, StepSchedule
from alflb.deterministic import audit_trace, simulate_fixed_scores
from alflb.errors import InvalidRange, ValidationError
from alflb.stochastic import (
    check_gradient_moments, hessian_fd_errors, selection_moments,
)
from conftest import random_affinities


def _fails(criterion: int, run) -> None:
    with pytest.raises(AssertionError, match=f"criterion {criterion} .* failed"):
        run()


def _first_nan(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=np.float64)
    out[0] = np.nan
    return out


def _small_suite():
    """One sign-schedule trace in which switches happen, and one 1/n trace."""
    gamma = random_affinities(40, 4, 1000)
    return [
        (sched, simulate_fixed_scores(gamma, sched, 200))
        for sched in (StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 0.001),
                      StepSchedule(ScheduleKind.INVERSE_N, 1.0))
    ]


@pytest.fixture(scope="module")
def small_suite():
    return _small_suite()


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


def test_flipped_dual_update_fails_criterion_1(monkeypatch, small_suite):
    # gradient ascent on the bias: the Lagrangian then moves by the switch
    # benefits plus the penalty, so each residual is twice the penalty; the
    # worst residual / scale was 9.09 (the 1/n trace; 2.45e-3 on the sign
    # trace) against IDENTITY_RTOL = 1e-9
    acceptance.test_criterion_1_lagrangian_identity(small_suite)
    bias_delta = StepSchedule.bias_delta
    monkeypatch.setattr(
        StepSchedule, "bias_delta", lambda self, *args: -bias_delta(self, *args)
    )
    planted = _small_suite()
    audits = [audit_trace(trace) for _, trace in planted]
    assert min(acceptance._worst_relative_residual([a]) for a in audits) > 1e-3
    _fails(1, lambda: acceptance.test_criterion_1_lagrangian_identity(planted))


# The smallest shift of expert 0's bias, on the grid 0.001, 0.002, 0.003,
# 0.005, 0.01, 0.02, that criterion 5 catches at 10^4 replicas: 0.001 passes
# (max |z| 2.53), 0.002 fails (max |z| 4.91 against Z_BOUND = 4).
BIAS_SHIFT_PASSES, BIAS_SHIFT_CAUGHT = 0.001, 0.002


def test_quadrature_bias_shift_fails_criterion_5(monkeypatch):
    def shifted(delta):
        def planted(dist, p, K):
            q = np.array(p, dtype=np.float64)
            q[0] += delta
            return selection_moments(dist, q, K)

        return planted

    # check_gradient_moments looks selection_moments up in its own module,
    # so only the quadrature side of the check sees the shift
    monkeypatch.setattr(stochastic, "selection_moments", shifted(BIAS_SHIFT_PASSES))
    acceptance.test_criterion_5_gradient_moments()
    monkeypatch.setattr(stochastic, "selection_moments", shifted(BIAS_SHIFT_CAUGHT))
    _fails(5, acceptance.test_criterion_5_gradient_moments)


def test_linear_node_allocation_fails_the_quadrature_oracle(monkeypatch):
    # the power of two at or above n h / (b - a) nodes per segment, with the
    # same n / 32 floor: the slivers between the cuts beside a Beta
    # density's endpoints get too few, and pi, F_K or w_kl misses the
    # reference by 3.6e-11 against its abs 1e-12
    def linear(edges, n):
        counts = []
        for h in np.diff(edges):
            m = n // 32
            while m < n * h / (edges[-1] - edges[0]):
                m *= 2
            counts.append(m)
        return counts

    case = ("beta", 1, "random_zero_sum")
    oracle.test_matches_enumeration(*case)
    monkeypatch.setattr(distributions, "_segment_counts", linear)
    with pytest.raises(AssertionError):
        oracle.test_matches_enumeration(*case)


# The fewest iterations at which the stepwise routing oracle catches each
# wrong certificate below on the 40 x 4 sign-schedule run (u = 1e-3) whose
# loads change inside blocks: both pass at 19 iterations and fail at 20.
CERTIFICATE_PASSES, CERTIFICATE_CAUGHT = 19, 20
_exact_certificate = deterministic._certified


def _first_row_certificate(g, last, p_rows):
    # the bias range of the block's first row only
    return _exact_certificate(g, last, p_rows[:1])


def _swapped_certificate(g, last, p_rows):
    # the chosen experts at the highest biases, the others at the lowest
    cells = last + np.arange(0, g.size, g.shape[1])[:, None]
    low = np.take(g + p_rows.max(axis=0), cells).min(axis=1)
    high = g + p_rows.min(axis=0)
    high.put(cells, -np.inf)
    return bool((low > high.max(axis=1)).all())


@pytest.mark.parametrize("plant", [_first_row_certificate, _swapped_certificate])
def test_wrong_block_certificate_fails_the_routing_oracle(monkeypatch, plant):
    gamma = random_affinities(40, 4, 1000)
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1e-3)

    def oracle_at(iterations):
        routing_oracle._assert_rows_equal_stepwise(gamma, sched, iterations)

    oracle_at(CERTIFICATE_CAUGHT)
    monkeypatch.setattr(deterministic, "_certified", plant)
    oracle_at(CERTIFICATE_PASSES)
    with pytest.raises(AssertionError):
        oracle_at(CERTIFICATE_CAUGHT)


# The fewest iterations at which the stepwise routing oracle catches each
# wrong token certificate below, with every block one row (BLOCK_SCORES =
# 1), on the tied 24 x 6 1/8-grid run with the sign schedule at u = 1/48,
# whose biases round: no rounding slack passes at 6 and fails at 7, a drift
# bound of the last step's spread alone passes at 5 and fails at 6.
SLACK_PASSES, SLACK_CAUGHT = 6, 7
LAST_STEP_PASSES, LAST_STEP_CAUGHT = 5, 6


def _zero_slack(monkeypatch):
    monkeypatch.setattr(deterministic, "ROUTE_SLACK", 0.0)


def _last_step_drift(monkeypatch):
    # each token's drift is taken as the spread of the step into this row,
    # not the sum of the spreads since it was routed
    last = [0.0]

    def planted(margin, since, drift, slack):
        step, last[0] = drift - last[0], drift
        return margin <= step + slack

    monkeypatch.setattr(deterministic, "_uncertified", planted)


@pytest.mark.parametrize("plant,passes,caught", [
    pytest.param(_zero_slack, SLACK_PASSES, SLACK_CAUGHT, id="zero_slack"),
    pytest.param(_last_step_drift, LAST_STEP_PASSES, LAST_STEP_CAUGHT, id="last_step"),
])
def test_wrong_token_certificate_fails_the_routing_oracle(monkeypatch, plant, passes, caught):
    monkeypatch.setattr(deterministic, "BLOCK_SCORES", 1)
    gamma = routing_oracle._grid_affinities(24, 6, 1)
    sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 1 / 48)

    def oracle_at(iterations):
        routing_oracle._assert_rows_equal_stepwise(gamma, sched, iterations)

    oracle_at(caught)
    plant(monkeypatch)  # a fresh plant per run: the last-step one keeps state
    oracle_at(passes)
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        oracle_at(caught)


def _product_bound(u, K, T, iterations):
    # 2 u T n bounds the biases only, not the Lagrangian a row adds them into
    if not math.isfinite(2.0 * u * T * iterations):
        raise InvalidRange("the biases could overflow")


def test_bias_only_overflow_rule_lets_a_nan_residual_through(monkeypatch, tmp_path):
    # 2 u T n = 1.28e308 is finite, but a row's Lagrangian of 64 biases is not
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "kind": "deterministic_run", "dims": {"T": 64, "E": 2, "K": 1},
        "schedule": {"kind": "constant", "u": 2e305}, "iterations": 5,
    }))
    with pytest.raises(ValidationError, match="could overflow"):
        cli.load_config(path)
    monkeypatch.setattr(cli, "check_overflow_bound", _product_bound)
    monkeypatch.setattr(deterministic, "check_overflow_bound", _product_bound)
    with np.errstate(all="ignore"):
        status = cli.main(["deterministic-run", "--config", str(path),
                           "--out", str(tmp_path / "out")])
    assert status == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert math.isnan(summary["max_identity_residual"])
