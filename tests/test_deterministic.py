import itertools
import math
import warnings

import numpy as np
import pytest

from alflb import deterministic
from alflb.balancer import ScheduleKind, StepSchedule, check_overflow_bound
from alflb.core import BiasVector
from alflb.deterministic import (
    IDENTITY_RTOL,
    BalanceConvergenceReport,
    IterationTrace,
    TraceAudit,
    audit_trace,
    check_balance_convergence,
    designations,
    iterate,
    simulate_fixed_scores,
    ubar,
)
from alflb.errors import InvalidRange
from alflb.router import RawScoreMatrix, lagrangian, route_topk, softmax_affinities, topk
from conftest import random_affinities
from reference_routing import (
    balanced_assignment, ip_enumeration_oracle, stable_partition_preserved, ubar_pairwise,
)

TWO_TOKEN = np.array([[0.9, 0.1], [0.8, 0.2]])


def _lagrangian_oracle(g, chosen, p, L):
    """Naive double-loop recomputation."""
    total = 0.0
    for i, experts in enumerate(chosen):
        for k in experts:
            total += g[i, k] + p[k]
    return total - L * sum(p)


class TestLagrangian:
    """The fixed-score Lagrangian of a K=1 routing, held fixed while the
    biases move."""

    def test_two_token_value(self):
        g, p = TWO_TOKEN, np.zeros(2)
        val = lagrangian(g, topk(g + p, 1)[0], p, 1.0)
        assert val == pytest.approx(1.7, abs=1e-15)

    def test_uniform_bias_cancels_when_balanced_target(self):
        g = random_affinities(12, 4, seed=0)
        chosen = topk(g, 1)[0]
        L = 12 / 4  # E*L = K*T, so the bias terms cancel
        base = lagrangian(g, chosen, np.zeros(4), L)
        for c in (0.3, -1.7, 42.0):
            p = np.full(4, c)
            assert lagrangian(g, chosen, p, L) == pytest.approx(base, abs=1e-9)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        g = random_affinities(15, 5, seed=2)
        chosen = topk(g, 1)[0]
        p = rng.uniform(-0.2, 0.2, size=5)
        got = lagrangian(g, chosen, p, 3.0)
        want = _lagrangian_oracle(g, chosen, p.tolist(), 3.0)
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
        gamma = np.array([[0.9, 0.1], [0.2, 0.8]])
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
        gamma = random_affinities(12, 4, seed=5)
        trace = simulate_fixed_scores(
            gamma, StepSchedule(ScheduleKind.CONSTANT, 0.01), 5, K=2
        )
        with pytest.raises(InvalidRange, match="requires K=1"):
            audit_trace(trace)


def _one_switch_trace(from_expert, to_expert, benefit, gap_prev, u=0.001):
    """A fabricated two-row sign-schedule table: row 0 has loads [2, 1, 0]
    around L = 1 (overloaded, balanced, underloaded), and token 0 moves
    into row 1 with the given benefit and earlier score gap."""
    loads = np.array([[2, 1, 0], [1, 1, 1]])
    assert designations(loads[0], 1.0).tolist() == [1, 0, -1]
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
        gamma = np.array([[0.6, 0.4], [0.6, 0.4]])
        with pytest.raises(InvalidRange, match="identical score gap"):
            ubar(gamma)

    def test_matches_bruteforce(self):
        for seed in (7, 8, 9):
            gamma = random_affinities(10, 4, seed=seed)
            assert ubar(gamma) == pytest.approx(
                _ubar_oracle(gamma), abs=1e-15
            )

    def test_equals_pairwise_sort(self):
        # the same subtractions, sorts and minimum as one expert pair at a
        # time, so the value is the same double
        rng = np.random.default_rng(31)
        for _ in range(40):
            T, E = int(rng.integers(2, 80)), int(rng.integers(2, 17))
            scale = rng.choice([1e-3, 1.0, 8.0])
            raw = RawScoreMatrix(scale * rng.standard_normal((T, E)))
            gamma = softmax_affinities(raw)
            assert ubar(gamma) == ubar_pairwise(gamma), (T, E, scale)

    @pytest.mark.parametrize("pair", [(0, 1), (3, 4), (0, 5)])
    def test_shared_gap_raises_like_pairwise(self, pair):
        # token 5 copies token 2's scores on one expert pair, so the two
        # tokens share that pair's gap exactly
        gamma = np.array(random_affinities(12, 6, seed=4))
        gamma[5, pair] = gamma[2, pair]
        for rule in (ubar, ubar_pairwise):
            with pytest.raises(InvalidRange, match="identical score gap"):
                rule(gamma)


class TestVerdictRules:
    """A statistic at its threshold passes, the next double above it fails,
    and NaN fails."""

    @pytest.mark.parametrize("scale", [1.0, 3.7, 1e6])
    def test_identity_rule(self, scale):
        def holds(residual):
            return TraceAudit(np.array([0.0, residual]), np.full(2, scale), 0, 0).identity_holds

        at = IDENTITY_RTOL * scale
        assert holds(at)
        assert not holds(np.nextafter(at, np.inf))
        assert not holds(np.nan)

    def test_identity_rule_without_transitions(self):
        # a one-iteration trace has no transition to audit
        assert TraceAudit(np.empty(0), np.empty(0), 0, 0).identity_holds

    @pytest.mark.parametrize("violations,audited", [(0, 0), (0, 5), (1, 5)])
    def test_switch_rule(self, violations, audited):
        audit = TraceAudit(np.zeros(1), np.ones(1), audited, violations)
        assert audit.switches_hold is (violations == 0)

    @pytest.mark.parametrize(
        "converged,stayed,step_ok", itertools.product((True, False), repeat=3)
    )
    def test_balance_rule(self, converged, stayed, step_ok):
        report = BalanceConvergenceReport(
            entered_iteration=np.ones(2, dtype=np.int64), stayed=stayed,
            max_load_step=1, load_step_ok=step_ok, iterations_run=3,
            converged=converged, any_tie=False,
        )
        assert report.passed is (converged and stayed and step_ok)


class TestBalanceConvergence:
    def test_already_balanced_start(self):
        gamma = np.array([[0.9, 0.1], [0.2, 0.8]])
        report = check_balance_convergence(gamma, u=0.01)
        assert report.converged and report.stayed
        assert report.entered_iteration.tolist() == [1, 1]
        # entered at row 1, then the 200-row settle window and the row after it
        assert report.iterations_run == 202

    @pytest.mark.parametrize("budget", [0, -3])
    def test_empty_budget_runs_nothing(self, budget):
        gamma = np.array([[0.9, 0.1], [0.2, 0.8]])
        report = check_balance_convergence(gamma, u=0.01, budget=budget)
        assert report.iterations_run == 0
        assert not report.converged
        assert report.entered_iteration.tolist() == [-1, -1]

    @pytest.mark.parametrize("u,budget", [(0.01, 350), (0.1, 160)])
    def test_default_budget(self, u, budget):
        # Eight identical tokens always share one expert, so the loads (8, 0)
        # never enter [3, 5] and the run takes the whole default budget,
        # max(10*T*E, ceil(2.5/u) + 100).
        gamma = np.tile([0.6, 0.4], (8, 1))
        report = check_balance_convergence(gamma, u)
        assert not report.converged
        assert report.iterations_run == budget

    @pytest.mark.parametrize("u", [8.5e-312, 5e-324])
    def test_default_budget_past_a_double_raises(self, u):
        # 2.5 / u is inf, so ceil(2.5 / u) has no integer value
        gamma = np.array([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(InvalidRange, match="default budget"):
            check_balance_convergence(gamma, u)

    def test_non_divisible_rejected(self):
        # the band [L-(E-1), L+(E-1)] needs an integer L = T/E
        gamma = np.full((5, 4), 0.25)
        with pytest.raises(InvalidRange, match="not divisible by E=4"):
            check_balance_convergence(gamma, 0.01)

    def test_adversarial_start_converges(self):
        # every token prefers expert 0; distinct per-expert slopes keep all
        # score-gap differences comfortably apart so ubar is not microscopic
        T, E = 16, 4
        base = np.array([0.8, 0.1, 0.12, 0.14])
        step = np.array([0.004, 0.001, 0.002, 0.003])
        idx = np.arange(1, T + 1)[:, None]
        gamma = base[None, :] + idx * step[None, :]
        u_bar = ubar(gamma)
        budget = max(10 * T * E, math.ceil(1.0 / u_bar))
        report = check_balance_convergence(gamma, u=0.9 * u_bar, budget=budget)
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


class TestIpBruteforce:
    """The test-side balanced-assignment oracle of criterion 10."""

    def test_two_token_example(self):
        value, choice = balanced_assignment(TWO_TOKEN, 1)
        assert value == pytest.approx(1.1, abs=1e-15)
        assert choice.tolist() == [0, 1]

    def test_all_equal_scores(self):
        value, _ = balanced_assignment(np.full((4, 2), 0.5), 2)
        assert value == pytest.approx(4 * 0.5, abs=1e-15)

    def test_matches_permutation_oracle(self):
        gamma = random_affinities(6, 3, seed=13)
        value, choice = balanced_assignment(gamma, 2)
        assert value == pytest.approx(
            ip_enumeration_oracle(gamma, 2), abs=1e-12
        )
        assert choice.shape == (6,)
        np.testing.assert_array_equal(np.bincount(choice, minlength=3), 2)
        assert gamma[np.arange(6), choice].sum() == pytest.approx(value, abs=1e-12)

    def test_matches_hungarian_on_duplicated_experts(self):
        # L = 2 copies of each of 4 experts: the assignment on the repeated
        # columns maps back to a balanced choice with the enumerated optimum
        gamma = random_affinities(8, 4, seed=14)
        value, choice = balanced_assignment(gamma, 2)
        np.testing.assert_array_equal(np.bincount(choice, minlength=4), 2)
        assert value == pytest.approx(ip_enumeration_oracle(gamma, 2), abs=1e-12)


_SIGN = StepSchedule(ScheduleKind.DEEPSEEK_SIGN, 0.001)
# Every public entry that takes affinities, called with them.
_AFFINITY_ENTRIES = {
    "iterate": lambda g: next(iterate(g, _SIGN, iterations=1)),
    "simulate_fixed_scores": lambda g: simulate_fixed_scores(g, _SIGN, 1),
    "check_balance_convergence": lambda g: check_balance_convergence(g, 0.001),
    "ubar": ubar,
    "route_topk": lambda g: route_topk(g, BiasVector.zeros(2), 1),
}


@pytest.mark.parametrize("entry", sorted(_AFFINITY_ENTRIES))
@pytest.mark.parametrize(
    "bad,rule",
    [
        ([[0.5, np.nan], [0.4, 0.6]], "affinity entries must lie strictly"),
        ([[0.5, 0.0], [0.4, 0.6]], "affinity entries must lie strictly"),
        ([[0.5, 1.0], [0.4, 0.6]], "affinity entries must lie strictly"),
        ([0.5, 0.5], r"affinities must be a \(T, E\) matrix"),
        ([[[0.5, 0.5], [0.4, 0.6]]] * 2, r"affinities must be a \(T, E\) matrix"),
    ],
    ids=["nan", "zero", "one", "1d", "3d"],
)
def test_bad_affinities_rejected_at_every_entry(entry, bad, rule):
    with pytest.raises(InvalidRange, match=rule):
        _AFFINITY_ENTRIES[entry](np.array(bad))


def _assert_reader_isolation(monkeypatch, one_row):
    """iterate routes its own copy: overwriting the caller's array between
    blocks changes nothing that the later blocks yield, and a yielded array
    is never written again.  With ``one_row`` (BLOCK_SCORES = 1) every
    block is one row and carries chosen experts and margins from row to
    row, routing only the tokens they do not certify."""
    if one_row:
        monkeypatch.setattr(deterministic, "BLOCK_SCORES", 1)
    gamma = random_affinities(40, 4, seed=6).copy()
    routed, real = [], deterministic.topk

    def counting(shifted, K, **kwargs):
        routed.append(shifted.size // shifted.shape[-1])
        return real(shifted, K, **kwargs)

    monkeypatch.setattr(deterministic, "topk", counting)
    kept = list(iterate(gamma.copy(), _SIGN, iterations=300))
    untouched = [[np.array(a) for a in block] for block in kept]
    assert len(untouched) > 2
    if one_row:  # some rows route a few tokens, some none
        assert len(untouched) == 300 and len(routed) < 300 and min(routed) < 40
    blocks = iterate(gamma, _SIGN, iterations=300)
    touched = [[np.array(a) for a in next(blocks)]]
    gamma[:] = gamma[:, ::-1]
    touched += [[np.array(a) for a in block] for block in blocks]
    assert len(touched) == len(untouched)
    for got, want in zip(touched, untouched):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # the yielded arrays themselves, kept to the end of the run, hold what
    # they held when yielded: no later row wrote to one, so none aliases the
    # state the loop carries on; the biases, experts and loads are read-only
    for block, want in zip(kept, untouched):
        assert not any(a.flags.writeable for a in block[1:4])
        for a, b in zip(block, want):
            assert a.tobytes() == b.tobytes()


def test_caller_writes_do_not_reach_later_blocks(monkeypatch):
    _assert_reader_isolation(monkeypatch, one_row=False)


def test_caller_writes_do_not_reach_later_one_row_blocks(monkeypatch):
    _assert_reader_isolation(monkeypatch, one_row=True)


def _admitted(u, K, T, iterations):
    try:
        check_overflow_bound(u, K, T, iterations)
    except InvalidRange:
        return False
    return True


def _largest_admitted_u(K, T, iterations):
    """The largest double u that ``check_overflow_bound`` admits, by
    bisection over the bit patterns of the positive doubles, which are in
    the order of their values."""
    def double(bits):
        return float(np.int64(bits).view(np.float64))

    lo, hi = 1, int(np.float64(np.finfo(float).max).view(np.int64))
    assert _admitted(double(lo), K, T, iterations)
    assert not _admitted(double(hi), K, T, iterations)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _admitted(double(mid), K, T, iterations) else (lo, mid)
    return double(lo)


# Each entry point that runs the dual step, on a run the overflow rule rejects.
_OVERFLOWING_RUNS = {
    "iterate": lambda g: next(
        iterate(g, StepSchedule(ScheduleKind.CONSTANT, 1e308), iterations=5)
    ),
    "simulate_fixed_scores": lambda g: simulate_fixed_scores(
        g, StepSchedule(ScheduleKind.CONSTANT, 1e308), 5
    ),
    "check_balance_convergence": lambda g: check_balance_convergence(g, 1e308),
}


@pytest.mark.parametrize("entry", sorted(_OVERFLOWING_RUNS))
def test_overflow_rule_raises_before_routing(monkeypatch, entry):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return topk(*args, **kwargs)

    monkeypatch.setattr(deterministic, "topk", counted)
    with pytest.raises(InvalidRange, match="could overflow"):
        _OVERFLOWING_RUNS[entry](np.tile([0.9, 0.1], (8, 1)))
    assert not calls


@pytest.mark.parametrize("kind", list(ScheduleKind))
def test_runs_at_the_overflow_rule_stay_finite(kind):
    # Every token starts on the same K experts, so the first dual step is
    # as large as the loads allow: |L - A_k| = T - L on the chosen experts.
    T, E = 8, 4
    gamma = np.tile([0.9, 0.7, 0.5, 0.3], (T, 1))
    for K, iterations in itertools.product((1, 2, 3), (1, 2, 5)):
        u = _largest_admitted_u(K, T, iterations)
        with pytest.raises(InvalidRange, match="could overflow"):
            simulate_fixed_scores(
                gamma, StepSchedule(kind, np.nextafter(u, np.inf)), iterations, K
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = simulate_fixed_scores(gamma, StepSchedule(kind, u), iterations, K)
            columns = [trace.p, trace.loads, trace.lagrangian, trace.tie,
                       trace.switches, trace.benefit, trace.gap_prev]
            if K == 1:
                audit = audit_trace(trace)
                columns += [audit.identity_residual, audit.identity_scale]
        # the biases of iteration 1 are 0; later ones are near the rule's bound
        assert iterations == 1 or np.abs(trace.p).max() > 1e300
        for c in columns:
            assert np.isfinite(c).all()
