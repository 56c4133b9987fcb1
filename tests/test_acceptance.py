"""Acceptance suite: one test per headline guarantee, each printing a
single pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import math

import numpy as np
import pytest

from alflb import deterministic, stochastic
from alflb.balancer import ScheduleKind, StepSchedule, project_zero_sum
from alflb.core import RandomSource
from alflb.deterministic import (
    audit_trace,
    check_balance_convergence,
    iterate,
    simulate_fixed_scores,
    ubar,
)
from alflb.distributions import (
    AffinityDistributionSet,
    BetaScore,
    MixtureScore,
    UniformScore,
)
from alflb.router import lagrangian, loads, topk
from alflb.stochastic import (
    check_gradient_moments,
    edge_weights_quadrature,
    expected_loss_minimizer,
    hessian_fd_errors,
    hessian_identity_holds,
    regret_experiment,
    selection_moments,
    sigma_squared,
    strong_convexity_estimate,
)
from conftest import random_affinities
from reference_quadrature import pi_monte_carlo
from reference_routing import (
    balanced_assignment,
    dense_lagrangian,
    ip_enumeration_oracle,
    stable_partition_preserved,
)


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number:2d} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


# ---------------------------------------------------------------------------
# Shared deterministic run suite (criteria 1, 2, 4)
# ---------------------------------------------------------------------------

_RUN_DIMS = [(40, 4), (80, 8), (200, 16), (120, 6), (64, 8), (96, 12), (160, 16)]


@pytest.fixture(scope="module")
def run_suite():
    suite = []
    for kind in ScheduleKind:
        if kind is ScheduleKind.DEEPSEEK_SIGN:
            u = 0.001
        elif kind is ScheduleKind.INVERSE_N:
            u = 1.0
        else:
            u = 0.02
        sched = StepSchedule(kind, u)
        for s in range(13):
            T, E = _RUN_DIMS[s % len(_RUN_DIMS)]
            gamma = random_affinities(T, E, 1000 + s)
            trace = simulate_fixed_scores(gamma, sched, 500)
            suite.append((sched, trace))
    return suite


def _worst_relative_residual(audits) -> float:
    """The largest residual / scale over ``audits``; NaN if any is NaN."""
    return float(np.max(np.concatenate(
        [a.identity_residual / a.identity_scale for a in audits]
    )))


def test_criterion_1_lagrangian_identity(run_suite):
    assert deterministic.IDENTITY_RTOL == 1e-9
    audits = [audit_trace(trace) for _, trace in run_suite]
    iters = "/".join(map(str, sorted({len(t.lagrangian) for _, t in run_suite})))
    _verdict(
        1, "lagrangian identity", all(a.identity_holds for a in audits),
        f"{len(run_suite)} runs x {iters} iters, "
        f"worst residual {_worst_relative_residual(audits):.2e}",
    )


def test_criterion_2_switching_bounds(run_suite):
    audits = [
        audit_trace(trace) for sched, trace in run_suite
        if sched.kind is ScheduleKind.DEEPSEEK_SIGN
    ]
    audited = sum(a.switches_audited for a in audits)
    violations = sum(a.switch_violations for a in audits)
    # for the sign schedule the penalty is u * sum|A - L|
    ok = all(a.switches_hold and a.identity_holds for a in audits) and audited > 0
    _verdict(
        2, "switching bounds", ok,
        f"{audited} switches audited, {violations} violations, "
        f"identity residual {_worst_relative_residual(audits):.2e}",
    )


def test_criterion_4_stable_pattern_decrease(run_suite):
    violations = 0
    checked = 0
    for _, trace in run_suite:
        for m in range(len(trace.lagrangian) - 1):
            if trace.tie[m] or trace.tie[m + 1]:
                continue
            a, b = trace.loads[m], trace.loads[m + 1]
            if not stable_partition_preserved(a, b, trace.L):
                continue
            if float(np.abs(a - trace.L).sum()) == 0.0:
                continue  # perfectly balanced iterations are stationary
            checked += 1
            if not trace.lagrangian[m + 1] - trace.lagrangian[m] < 0.0:
                violations += 1
    _verdict(
        4, "stable-pattern decrease", violations == 0 and checked > 0,
        f"{checked} preserved-partition iterations, {violations} violations",
    )


# ---------------------------------------------------------------------------
# Criterion 3: approximate balancing on 100 instances
# ---------------------------------------------------------------------------

_BALANCE_DIMS = [
    (16, 4), (32, 8), (24, 6), (64, 8), (48, 6),
    (8, 2), (36, 6), (40, 8), (64, 4), (56, 8),
]


def test_criterion_3_approximate_balancing():
    failures = []
    for s in range(100):
        T, E = _BALANCE_DIMS[s % len(_BALANCE_DIMS)]
        gamma = random_affinities(T, E, 3000 + s)
        u = 0.9 * ubar(gamma)
        budget = max(10 * T * E, math.ceil(2.0 / u))
        report = check_balance_convergence(gamma, u, budget=budget)
        if not report.passed:
            failures.append(s)
    _verdict(
        3, "approximate balancing", not failures,
        f"{100 - len(failures)}/100 instances converged and stayed",
    )


# ---------------------------------------------------------------------------
# Criteria 5-7: stochastic moments, pi agreement, Hessian identity
# ---------------------------------------------------------------------------

_MOMENT_CONFIGS = [
    (AffinityDistributionSet((BetaScore(2.0, 2.0),) * 4), [0.0] * 4, 2, 8),
    (AffinityDistributionSet((UniformScore(0.0, 1.0),) * 2), [0.1, -0.1], 1, 16),
    (AffinityDistributionSet(
        (BetaScore(2.0, 3.0), BetaScore(3.0, 2.0), BetaScore(2.5, 2.5))
    ), [0.0] * 3, 1, 12),
    (AffinityDistributionSet(
        (BetaScore(2.0, 2.5), BetaScore(2.5, 2.0), UniformScore(0.1, 0.9),
         BetaScore(3.0, 3.0), UniformScore(0.2, 0.8))
    ), [0.02, -0.02, 0.0, 0.01, -0.01], 2, 32),
    (AffinityDistributionSet((BetaScore(1.5, 3.0),) * 6), [0.0] * 6, 3, 64),
    (AffinityDistributionSet((
        MixtureScore((UniformScore(0.0, 0.4), UniformScore(0.5, 1.0)), (0.5, 0.5)),
        BetaScore(2.0, 2.0),
        UniformScore(0.05, 0.95),
    )), [0.0, 0.05, -0.05], 2, 24),
    (AffinityDistributionSet(
        (UniformScore(0.1, 0.7), UniformScore(0.2, 0.8),
         UniformScore(0.3, 0.9), UniformScore(0.15, 0.85))
    ), [0.05, 0.0, -0.02, -0.03], 1, 16),
    (AffinityDistributionSet(
        (BetaScore(2.0, 4.0), BetaScore(4.0, 2.0), BetaScore(3.0, 3.0),
         BetaScore(2.5, 3.5), BetaScore(3.5, 2.5), BetaScore(2.0, 2.0))
    ), [0.0] * 6, 1, 48),
    (AffinityDistributionSet(
        (BetaScore(2.0, 2.0), UniformScore(0.1, 0.9),
         BetaScore(3.0, 2.0), BetaScore(2.0, 3.0))
    ), [0.01, -0.01, 0.02, -0.02], 3, 40),
    (AffinityDistributionSet(
        (BetaScore(2.0, 5.0), BetaScore(5.0, 2.0))
    ), [0.2, -0.2], 1, 8),
]


def test_criterion_5_gradient_moments():
    assert stochastic.Z_BOUND == 4.0
    reports = [
        check_gradient_moments(
            dist, np.array(p), K, T, replicas=10_000,
            rng=RandomSource(4000 + idx, stream=2).generator(),
        )
        for idx, (dist, p, K, T) in enumerate(_MOMENT_CONFIGS)
    ]
    ok = all(
        r.mean_unbiased and r.variance_formula and r.second_moment_formula
        for r in reports
    )
    worst = float(np.max([r.max_abs_z for r in reports]))
    _verdict(
        5, "gradient moments", ok,
        f"{len(_MOMENT_CONFIGS)} configs at 10^4 replicas, max |z| {worst:.2f}",
    )


_PI_CONFIGS = [
    (AffinityDistributionSet((UniformScore(0.0, 1.0),) * 3), [0.2, 0.0, -0.2], 1),
    (AffinityDistributionSet((BetaScore(2.0, 2.0),) * 4), [0.0] * 4, 2),
    (AffinityDistributionSet(
        (BetaScore(2.0, 3.0), BetaScore(3.0, 2.0), UniformScore(0.1, 0.9),
         BetaScore(2.5, 2.5), BetaScore(3.0, 3.0), UniformScore(0.2, 0.8))
    ), [0.03, -0.03, 0.01, -0.01, 0.0, 0.0], 3),
    (AffinityDistributionSet((
        MixtureScore((UniformScore(0.0, 0.5), BetaScore(3.0, 2.0)), (0.4, 0.6)),
        BetaScore(2.0, 2.0),
        UniformScore(0.05, 0.95),
        BetaScore(1.5, 2.5),
    )), [0.0, 0.02, -0.02, 0.0], 2),
]


def test_criterion_6_pi_quadrature_vs_monte_carlo():
    z_scores, norm_errors = [], []
    for idx, (dist, p, K) in enumerate(_PI_CONFIGS):
        bias = np.array(p)
        pi_q = selection_moments(dist, bias, K)[0]
        norm_errors.append(abs(float(pi_q.sum()) - K))
        rng = RandomSource(5000 + idx, stream=3).generator()
        pi_mc, se = pi_monte_carlo(dist, bias, K, samples=1_000_000, rng=rng)
        z_scores.append(np.abs(pi_q - pi_mc) / np.maximum(se, 1e-12))
    # np.max, unlike max, keeps a NaN, which then fails the comparison
    worst_z = float(np.max(np.concatenate(z_scores)))
    worst_norm = float(np.max(norm_errors))
    ok = worst_z <= stochastic.Z_BOUND and worst_norm <= 1e-6
    _verdict(
        6, "pi quadrature vs monte carlo", ok,
        f"max |z| {worst_z:.2f} at 10^6 samples, "
        f"normalization error {worst_norm:.1e}",
    )


_HESSIAN_CONFIGS = [
    (AffinityDistributionSet(
        (BetaScore(2.0, 3.0), BetaScore(3.0, 2.0), BetaScore(2.5, 2.5))
    ), [0.02, -0.02, 0.0], 1),
    (AffinityDistributionSet(
        (BetaScore(2.0, 2.5), BetaScore(2.5, 2.0), BetaScore(3.0, 3.0),
         UniformScore(0.05, 0.95))
    ), [0.03, -0.01, -0.02, 0.0], 2),
    (AffinityDistributionSet(
        (BetaScore(2.0, 2.0), BetaScore(2.2, 2.4), BetaScore(2.4, 2.2),
         BetaScore(2.6, 2.0), BetaScore(2.0, 2.6))
    ), [0.0] * 5, 3),
]


def test_criterion_7_hessian_identity():
    assert stochastic.HESSIAN_RTOL == 1e-3
    assert stochastic.FD_STEP == 1e-3
    errors = []
    for idx, (dist, p, K) in enumerate(_HESSIAN_CONFIGS):
        bias = np.array(p)
        weights = edge_weights_quadrature(dist, bias, K)
        assert np.array_equal(weights, weights.T)
        assert np.all(np.diag(weights) == 0.0)
        assert np.all(weights >= 0.0)
        rng = RandomSource(6000 + idx, stream=4).generator()
        errors.append(
            hessian_fd_errors(dist, bias, K, weights, rng, 20)
        )
    errors = np.concatenate(errors)
    _verdict(
        7, "hessian identity", hessian_identity_holds(errors),
        f"{len(_HESSIAN_CONFIGS)} configs x 20 directions, "
        f"max relative error {np.max(errors):.1e}",
    )


# ---------------------------------------------------------------------------
# Criterion 8: logarithmic regret at desk scale
# ---------------------------------------------------------------------------

_REGRET_BETAS = [
    (2.0, 2.5), (2.1, 2.4), (2.2, 2.3), (2.3, 2.2),
    (2.4, 2.1), (2.5, 2.0), (2.2, 2.4), (2.4, 2.2),
]


def test_criterion_8_logarithmic_regret():
    dist = AffinityDistributionSet(tuple(BetaScore(a, b) for a, b in _REGRET_BETAS))
    T, K, E = 64, 2, 8
    kappa = 0.8
    assert sigma_squared(T, E, K) == pytest.approx(6144.0)

    grid_rng = RandomSource(11, stream=0).generator()
    sc = strong_convexity_estimate(dist, K, kappa, T, grid_points=100, rng=grid_rng)
    p_star = expected_loss_minimizer(dist, K, T)
    assert p_star.max() - p_star.min() <= 1.0 - kappa

    run_rng = RandomSource(11, stream=1).generator()
    acct = regret_experiment(
        dist, T, K, sc.mu, p_star, rounds=10_000, replicas=32,
        rng=run_rng, kappa=kappa,
    )
    assert stochastic.RATIO_SLACK == 1e-9
    checkpoints = [100, 1000, 10_000]
    within, ratio_ok = acct.checkpoint_verdicts(checkpoints)
    assert list(within) == checkpoints
    detail = ", ".join(
        f"N={c}: R={acct.mean_cum_regret[c - 1]:.1f} "
        f"<= {acct.bound[c - 1]:.1f}" for c in checkpoints
    )
    _verdict(8, "logarithmic regret", all(within.values()) and ratio_ok,
             detail + f", mu_hat={sc.mu:.2f}")


# ---------------------------------------------------------------------------
# Criterion 9: exact cross-module identities
# ---------------------------------------------------------------------------


def test_criterion_9_exact_identities():
    rng = np.random.default_rng(7000)
    loss_gaps = []
    grad_sums = []
    for s in range(1000):
        E = int(rng.integers(2, 7))
        T = E * int(rng.integers(1, 9))
        gamma = random_affinities(T, E, 7000 + s)
        p = rng.uniform(-0.2, 0.2, size=E)
        L = T / E
        # the routed Lagrangian that scores both the regret round and the
        # trace, against the dense sum over the selection matrix
        shifted = gamma + p
        chosen = topk(shifted, 1)[0]
        onl = lagrangian(gamma, chosen, p, L)
        det = dense_lagrangian(shifted, chosen, p, L)
        loss_gaps.append(abs(float(onl - det)))
        g = loads(chosen, E) - L
        grad_sums.append(abs(float(g.sum())))
    drifts = []
    for _ in range(100):
        p = rng.uniform(-5.0, 5.0, size=int(rng.integers(2, 10)))
        q = project_zero_sum(p)
        q2 = project_zero_sum(q)
        drifts.append(np.abs(q2 - q).max())
    # np.max, not max: a NaN must reach the comparison
    worst_loss = float(np.max(loss_gaps))
    worst_grad = float(np.max(grad_sums))
    worst_proj = float(np.max(drifts))
    ok = worst_loss <= 1e-12 and worst_grad <= 1e-9 and worst_proj <= 1e-12
    _verdict(
        9, "exact identities", ok,
        f"1000 instances, loss gap {worst_loss:.1e}, "
        f"grad sum {worst_grad:.1e}, projection drift {worst_proj:.1e}",
    )


# ---------------------------------------------------------------------------
# Criterion 10: IP oracle sanity on tiny instances
# ---------------------------------------------------------------------------

_TINY_DIMS = [(8, 4), (6, 3), (8, 2), (4, 2), (6, 2), (8, 4), (6, 3), (8, 2)]


def test_criterion_10_ip_oracle():
    failures = []
    for s in range(50):
        T, E = _TINY_DIMS[s % len(_TINY_DIMS)]
        gamma = random_affinities(T, E, 2000 + s)
        L = T // E
        u = 0.9 * ubar(gamma)
        sched = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, u)
        budget = max(10 * T * E, math.ceil(2.0 / u))
        routed = None
        for _, _, chosen, loads, _ in iterate(gamma, sched, iterations=budget):
            balanced = np.flatnonzero((loads == L).all(axis=1))
            if balanced.size:
                alpha = chosen[balanced[0], :, 0]
                routed = float(gamma[np.arange(T), alpha].sum())
                break
        value, choice = balanced_assignment(gamma, L)
        oracle = ip_enumeration_oracle(gamma, L)
        ip_balanced = (np.bincount(choice, minlength=E) == L).all()
        if (
            routed is None or not ip_balanced or value < routed - 1e-12
            or abs(value - oracle) > 1e-12
        ):
            failures.append(s)
    _verdict(
        10, "ip oracle", not failures,
        f"{50 - len(failures)}/50 tiny instances",
    )
