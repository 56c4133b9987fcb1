import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from alflb.balancer import ScheduleKind, StepSchedule
from alflb.core import AffinityMatrix, BiasVector, ProblemDims
from alflb.deterministic import (
    BALANCED,
    OVERLOADED,
    UNDERLOADED,
    IterationTrace,
    audit_trace,
    check_balance_convergence,
    designations,
    ip_bruteforce,
    lagrangian,
    simulate_fixed_scores,
    stable_partition_preserved,
    ubar,
)
from alflb.errors import DegenerateGaps, KNotOne, TooLarge
from alflb.router import route_topk
from conftest import random_affinities

TWO_TOKEN = AffinityMatrix(
    ProblemDims(T=2, E=2, K=1), np.array([[0.9, 0.1], [0.8, 0.2]])
)


def _lagrangian_oracle(g, sel, p, L):
    """Naive double-loop recomputation."""
    T, E = g.shape
    total = 0.0
    for i in range(T):
        for k in range(E):
            if sel[i, k]:
                total += g[i, k] + p[k]
    return total - L * sum(p)


class TestLagrangian:
    def test_two_token_value(self):
        out = route_topk(TWO_TOKEN, BiasVector.zeros(2), 1)
        val = lagrangian(TWO_TOKEN, out.assignment, BiasVector.zeros(2), 1.0)
        assert val.value == pytest.approx(1.7, abs=1e-15)
        assert val.affinity_term == pytest.approx(1.7)
        assert val.bias_penalty_term == 0.0

    def test_uniform_bias_cancels_when_balanced_target(self):
        gamma = random_affinities(12, 4, seed=0)
        out = route_topk(gamma, BiasVector.zeros(4), 1)
        L = 12 / 4  # E*L = K*T, so the bias terms cancel
        base = lagrangian(gamma, out.assignment, BiasVector.zeros(4), L).value
        for c in (0.3, -1.7, 42.0):
            shifted = lagrangian(
                gamma, out.assignment, BiasVector(np.full(4, c)), L
            ).value
            assert shifted == pytest.approx(base, abs=1e-9)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        gamma = random_affinities(15, 5, seed=2)
        out = route_topk(gamma, BiasVector.zeros(5), 1)
        p = rng.uniform(-0.2, 0.2, size=5)
        got = lagrangian(gamma, out.assignment, BiasVector(p), 3.0).value
        want = _lagrangian_oracle(
            gamma.values, out.assignment.selected, p.tolist(), 3.0
        )
        assert got == pytest.approx(want, abs=1e-12)


class TestSwitchingBenefit:
    def test_no_switch_no_records(self):
        # a step of 0.01 moves neither token off expert 0
        trace = simulate_fixed_scores(
            TWO_TOKEN, StepSchedule(ScheduleKind.CONSTANT, 0.01), 2
        )
        assert trace.switches.shape == (0, 4)
        assert trace.benefit.size == trace.gap_prev.size == 0

    def test_constructed_switch_matches_hand_formula(self):
        # both tokens pick expert 0 at p = 0, so p_2 = 0.325 * (1 - [2, 0])
        trace = simulate_fixed_scores(
            TWO_TOKEN, StepSchedule(ScheduleKind.CONSTANT, 0.325), 2
        )
        assert trace.p[1].tolist() == [-0.325, 0.325]
        # row 1, token 1, from expert 0 to expert 1
        assert trace.switches.tolist() == [[1, 1, 0, 1]]
        # benefit under new biases: (0.2 + 0.325) - (0.8 - 0.325)
        assert trace.benefit[0] == pytest.approx(0.05, abs=1e-15)
        # prior gap under old biases: 0.2 - 0.8
        assert trace.gap_prev[0] == pytest.approx(-0.6, abs=1e-15)


class TestLagrangianIdentity:
    def test_stationary_iteration_zero_residual(self):
        # tokens split evenly by themselves: no switches, loads at target
        gamma = AffinityMatrix(
            ProblemDims(T=2, E=2, K=1), np.array([[0.9, 0.1], [0.2, 0.8]])
        )
        trace = simulate_fixed_scores(
            gamma, StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 0.001), 5
        )
        np.testing.assert_array_equal(audit_trace(trace).identity_residual, 0.0)
        vals = trace.lagrangian.tolist()
        assert vals == pytest.approx([vals[0]] * 5)

    def test_sign_schedule_matches_l1_form(self):
        # the identity reduces to dL = sum(b) - u * sum|A - L| for the sign
        # schedule; recompute both sides independently
        gamma = random_affinities(24, 4, seed=3)
        u = 0.001
        trace = simulate_fixed_scores(
            gamma, StepSchedule(ScheduleKind.DEEPSEEK_SIGN, u), 120
        )
        for m in range(len(trace.lagrangian) - 1):
            d_lag = trace.lagrangian[m + 1] - trace.lagrangian[m]
            benefits = trace.benefit[trace.switches[:, 0] == m + 1]
            rhs = sum(benefits.tolist()) - u * float(
                np.abs(trace.loads[m] - trace.L).sum()
            )
            assert d_lag == pytest.approx(rhs, abs=1e-9)

    @pytest.mark.parametrize("kind", list(ScheduleKind))
    def test_residual_small_for_every_schedule(self, kind):
        gamma = random_affinities(40, 5, seed=4)
        u = 0.001 if kind is ScheduleKind.DEEPSEEK_SIGN else 0.05
        trace = simulate_fixed_scores(gamma, StepSchedule(kind, u), 300)
        audit = audit_trace(trace)
        assert len(audit.identity_residual) == 299
        assert np.all(audit.identity_residual <= 1e-9 * audit.identity_scale)

    def test_requires_k1(self):
        gamma = random_affinities(12, 4, seed=5, K=2)
        trace = simulate_fixed_scores(
            gamma, StepSchedule(ScheduleKind.CONSTANT, 0.01), 5, K=2
        )
        with pytest.raises(KNotOne):
            audit_trace(trace)


def _one_switch_trace(from_expert, to_expert, benefit, gap_prev, u=0.001):
    """A fabricated two-row sign-schedule table: row 0 has loads [2, 1, 0]
    around L = 1 (overloaded, balanced, underloaded), and token 0 moves
    into row 1 with the given benefit and earlier score gap."""
    loads = np.array([[2, 1, 0], [1, 1, 1]])
    assert designations(loads[0], 1.0).tolist() == [OVERLOADED, BALANCED, UNDERLOADED]
    return IterationTrace(
        K=1, L=1.0, schedule=StepSchedule(ScheduleKind.DEEPSEEK_SIGN, u),
        p=np.zeros((2, 3)), loads=loads,
        lagrangian=np.zeros(2), tie=np.zeros(2, dtype=bool),
        switches=np.array([[1, 0, from_expert, to_expert]]),
        benefit=np.array([benefit]), gap_prev=np.array([gap_prev]),
    )


class TestSwitchDirection:
    def test_synthetic_upward_switch_fails(self):
        audit = audit_trace(_one_switch_trace(1, 0, benefit=0.001, gap_prev=-0.001))
        assert (audit.switches_audited, audit.switch_violations) == (1, 1)

    def test_downward_switch_passes(self):
        audit = audit_trace(_one_switch_trace(0, 2, benefit=0.0005, gap_prev=-0.0015))
        assert (audit.switches_audited, audit.switch_violations) == (1, 0)

    def test_bounds_checked(self):
        # both bounds are strict: a benefit of exactly 2u and an earlier
        # score gap of exactly 0 each break theorem 2
        u = 0.001
        for benefit, gap_prev in [(2.0 * u, -0.001), (0.001, 0.0)]:
            audit = audit_trace(_one_switch_trace(0, 2, benefit, gap_prev, u))
            assert (audit.switches_audited, audit.switch_violations) == (1, 1)

    def test_full_run_audit_zero_failures(self):
        u = 0.001
        audited = 0
        for seed in range(5):
            gamma = random_affinities(30, 5, seed=100 + seed)
            trace = simulate_fixed_scores(
                gamma, StepSchedule(ScheduleKind.DEEPSEEK_SIGN, u), 200
            )
            audit = audit_trace(trace)
            assert audit.switch_violations == 0
            audited += audit.switches_audited
        assert audited > 0


class TestDesignationsAndPartition:
    def test_designations_signs(self):
        d = designations(np.array([5, 3, 1]), 3.0)
        assert d.tolist() == [1, 0, -1]

    def test_partition_preserved(self):
        assert stable_partition_preserved(np.array([5, 1]), np.array([4, 2]), 3.0)
        # an expert crossing the target strictly breaks the partition
        assert not stable_partition_preserved(np.array([5, 1]), np.array([2, 4]), 3.0)
        # touching the target exactly is allowed on either side
        assert stable_partition_preserved(np.array([5, 1]), np.array([3, 3]), 3.0)
        assert stable_partition_preserved(np.array([3, 3]), np.array([4, 2]), 3.0)


def _ubar_oracle(g):
    T, E = g.shape
    best = math.inf
    for k in range(E):
        for kp in range(E):
            if k == kp:
                continue
            for i in range(T):
                for j in range(T):
                    if i == j:
                        continue
                    gi = g[i, k] - g[i, kp]
                    gj = g[j, k] - g[j, kp]
                    best = min(best, abs(gi - gj))
    return 0.5 * best


class TestUbar:
    def test_two_token_example(self):
        assert ubar(TWO_TOKEN) == pytest.approx(0.1, abs=1e-15)

    def test_identical_tokens_degenerate(self):
        gamma = AffinityMatrix(
            ProblemDims(T=2, E=2, K=1), np.array([[0.6, 0.4], [0.6, 0.4]])
        )
        with pytest.raises(DegenerateGaps):
            ubar(gamma)

    def test_matches_bruteforce(self):
        for seed in (7, 8, 9):
            gamma = random_affinities(10, 4, seed=seed)
            assert ubar(gamma) == pytest.approx(
                _ubar_oracle(gamma.values), abs=1e-15
            )


class TestBalanceConvergence:
    def test_already_balanced_start(self):
        gamma = AffinityMatrix(
            ProblemDims(T=2, E=2, K=1), np.array([[0.9, 0.1], [0.2, 0.8]])
        )
        report = check_balance_convergence(gamma, u=0.01, settle_iterations=20)
        assert report.converged and report.stayed
        assert report.entered_iteration.tolist() == [1, 1]

    def test_adversarial_start_converges(self):
        # every token prefers expert 0; distinct per-expert slopes keep all
        # score-gap differences comfortably apart so ubar is not microscopic
        T, E = 16, 4
        base = np.array([0.8, 0.1, 0.12, 0.14])
        step = np.array([0.004, 0.001, 0.002, 0.003])
        idx = np.arange(1, T + 1)[:, None]
        vals = base[None, :] + idx * step[None, :]
        gamma = AffinityMatrix(ProblemDims(T=T, E=E, K=1), vals)
        u_bar = ubar(gamma)
        budget = max(10 * T * E, math.ceil(1.0 / u_bar))
        report = check_balance_convergence(
            gamma, u=0.9 * u_bar, budget=budget, settle_iterations=100
        )
        first = route_topk(gamma, BiasVector.zeros(E), 1)
        assert first.loads.counts.tolist() == [16, 0, 0, 0]
        assert report.converged and report.stayed and report.load_step_ok

    def test_per_iteration_load_step_bound(self):
        gamma = random_affinities(24, 4, seed=11)
        u = 0.9 * ubar(gamma)
        report = check_balance_convergence(gamma, u=u, budget=20000)
        assert report.load_step_ok
        assert report.max_load_step <= 3

    def test_concurrent_same_route_switches_excluded(self):
        # with u < ubar, no two tokens ever switch the same (from, to) pair
        # in the same iteration (the first switch comes at row 735)
        gamma = random_affinities(20, 4, seed=12)
        u = 0.9 * ubar(gamma)
        trace = simulate_fixed_scores(
            gamma, StepSchedule(ScheduleKind.DEEPSEEK_SIGN, u), 2000
        )
        routes = [(row, old, new) for row, _, old, new in trace.switches.tolist()]
        assert routes and len(routes) == len(set(routes))


def _ip_enumeration_oracle(g, L):
    """Distinct multiset permutations of the balanced label vector."""
    T, E = g.shape
    labels = []
    for k in range(E):
        labels += [k] * L
    best = -math.inf
    for perm in set(itertools.permutations(labels)):
        val = sum(g[i, perm[i]] for i in range(T))
        best = max(best, val)
    return best


class TestIpBruteforce:
    def test_two_token_example(self):
        value, assignment = ip_bruteforce(TWO_TOKEN, 1)
        assert value == pytest.approx(1.1, abs=1e-15)
        assert assignment.selected.tolist() == [[1, 0], [0, 1]]

    def test_all_equal_scores(self):
        gamma = AffinityMatrix(
            ProblemDims(T=4, E=2, K=1), np.full((4, 2), 0.5)
        )
        value, _ = ip_bruteforce(gamma, 2)
        assert value == pytest.approx(4 * 0.5, abs=1e-15)

    def test_matches_permutation_oracle(self):
        gamma = random_affinities(6, 3, seed=13)
        value, assignment = ip_bruteforce(gamma, 2)
        assert value == pytest.approx(
            _ip_enumeration_oracle(gamma.values, 2), abs=1e-12
        )
        np.testing.assert_array_equal(assignment.selected.sum(axis=0), 2)

    def test_matches_hungarian_on_duplicated_experts(self):
        # expert k duplicated L times turns the balanced IP into a linear
        # assignment problem
        gamma = random_affinities(8, 4, seed=14)
        L = 2
        cost = -np.repeat(gamma.values, L, axis=1)
        rows, cols = linear_sum_assignment(cost)
        hungarian = -cost[rows, cols].sum()
        value, _ = ip_bruteforce(gamma, L)
        assert value == pytest.approx(hungarian, abs=1e-12)

    def test_guard_on_huge_instances(self):
        gamma = random_affinities(36, 4, seed=15)
        with pytest.raises(TooLarge):
            ip_bruteforce(gamma, 9)

