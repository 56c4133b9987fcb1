"""Slow reference for the routing kernel, the two iteration loops and the
trace audit.

These are the container-based implementations that ``alflb`` used before the
raw-array ``topk`` kernel and the shared ``iterate`` loop: every iteration
builds a 0/1 selection matrix, takes its column sums as a validated
``LoadVector``, and keeps a validated ``BiasVector`` and ``BalancerState``.
The routing, Lagrangian, switch-record and dual-update bodies, the balancer
state and the Lagrangian value are copied here as well, so the oracle tests compare the fast path against code that shares none
of its helpers.  The per-step identity check, switch-direction check and
tie-skipping switch audit are the ones that walked the per-step traces before
``audit_trace`` read the trace table.

``iterate_stepwise`` and ``check_balance_convergence_stepwise`` are the lean
oracle of the blocked ``iterate``: the raw-array loop that routed and stepped
one iteration at a time, and the balance check that consumed it, unchanged.

``topk_argsort`` is the ordered Top-K as ``router.topk`` computed it before
its K masked argmax passes: a stable argsort of every row.  ``route_topk``
routes with it.

``dense_lagrangian`` is the Lagrangian as the lab summed it before
``router.lagrangian`` gathered the routed scores: over a dense float 0/1
selection matrix, per leading row.

``ubar_pairwise`` is ``deterministic.ubar`` as it was before its one pass
per expert: a sort of the gaps of each expert pair on its own.

``stable_partition_preserved`` and ``balanced_assignment`` are the two
oracles of the acceptance criteria that ``alflb`` itself never runs: the
stable-partition test of criterion 4 and the exact balanced optimum of
criterion 10.  ``ip_enumeration_oracle`` checks that optimum on tiny
instances by enumerating every balanced assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import islice, permutations

import numpy as np
from scipy.optimize import linear_sum_assignment

from alflb.balancer import ScheduleKind, StepSchedule
from alflb.core import BiasVector, LoadVector, ProblemDims
from alflb.deterministic import BalanceConvergenceReport, designations
from alflb.errors import InvalidRange
from alflb.router import RoutingOutcome, topk

# Iterations the balance checks run after every expert has entered the band.
SETTLE_ITERATIONS = 200


@dataclass(frozen=True)
class SwitchRecord:
    token: int
    from_expert: int
    to_expert: int
    benefit: float          # shifted-score gain under the *new* biases
    score_gap_prev: float   # new-minus-old shifted score under the *old* biases


@dataclass(frozen=True)
class LagrangianValue:
    value: float
    affinity_term: float
    bias_penalty_term: float


@dataclass(frozen=True)
class BalancerState:
    p: BiasVector
    iteration: int = 1


def topk_argsort(shifted: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """``router.topk`` by a stable argsort of every row of a (..., T, E) score
    array: ``chosen`` (..., T, K) and ``row_tie`` (..., T)."""
    E = shifted.shape[-1]
    # Stable argsort of the negated scores: descending score, lowest index
    # first among equals.
    order = np.argsort(-shifted, axis=-1, kind="stable")
    if K < E:
        kth = np.take_along_axis(shifted, order[..., K - 1 : K], axis=-1)
        nxt = np.take_along_axis(shifted, order[..., K : K + 1], axis=-1)
        row_tie = (kth == nxt)[..., 0]
    else:
        row_tie = np.zeros(shifted.shape[:-1], dtype=bool)
    return order[..., :K], row_tie


def route_topk(gamma: np.ndarray, p: BiasVector, K: int) -> RoutingOutcome:
    T, E = gamma.shape
    if p.E != E:
        raise InvalidRange(f"bias length {p.E} != expert count {E}")
    dims = ProblemDims(T=T, E=E, K=K)

    chosen, row_tie = topk_argsort(gamma + p.values[None, :], K)
    selected = _selection(chosen, E)
    if not np.all(selected.sum(axis=1) == K):
        raise InvalidRange(f"every row must select exactly K={K} experts")
    return RoutingOutcome(
        loads=LoadVector(dims, selected.sum(axis=0)),
        tie_flag=bool(row_tie.any()),
        assigned_experts=chosen,
        row_tie=row_tie,
    )


def _selection(chosen: np.ndarray, E: int) -> np.ndarray:
    """The T x E 0/1 selection matrix of the chosen experts (T, K)."""
    selected = np.zeros((chosen.shape[0], E), dtype=np.int8)
    np.put_along_axis(selected, chosen, 1, axis=1)
    return selected


def lagrangian(
    gamma: np.ndarray, outcome: RoutingOutcome, p: BiasVector, L: float
) -> LagrangianValue:
    sel = _selection(outcome.assigned_experts, p.E).astype(np.float64)
    affinity_term = float(((gamma + p.values[None, :]) * sel).sum())
    bias_penalty_term = float(L * p.values.sum())
    return LagrangianValue(
        value=affinity_term - bias_penalty_term,
        affinity_term=affinity_term,
        bias_penalty_term=bias_penalty_term,
    )


def dense_lagrangian(
    shifted: np.ndarray, chosen: np.ndarray, p: np.ndarray, L: float
) -> np.ndarray:
    """The Lagrangian sum_{ik} (gamma_ik + p_k) x_ik - L sum_k p_k per
    leading row: shifted = gamma + p (..., T, E), chosen (..., T, K) the
    experts the 0/1 selection matrices x select, p (..., E)."""
    sel = np.zeros(shifted.shape)
    np.put_along_axis(sel, chosen, 1.0, axis=-1)
    affinity_term = (shifted * sel).reshape(*p.shape[:-1], -1).sum(axis=-1)
    return affinity_term - L * p.sum(axis=-1)


def switching_benefit(
    gamma: np.ndarray,
    prev_outcome: RoutingOutcome,
    next_outcome: RoutingOutcome,
    p_next: BiasVector,
    p_prev: BiasVector,
) -> list[SwitchRecord]:
    a_prev = prev_outcome.assigned_experts[:, 0]
    a_next = next_outcome.assigned_experts[:, 0]
    switched = np.flatnonzero(a_prev != a_next)
    g = gamma
    records = []
    for i in switched:
        old, new = int(a_prev[i]), int(a_next[i])
        benefit = (g[i, new] + p_next.values[new]) - (g[i, old] + p_next.values[old])
        gap_prev = (g[i, new] + p_prev.values[new]) - (g[i, old] + p_prev.values[old])
        records.append(
            SwitchRecord(
                token=int(i),
                from_expert=old,
                to_expert=new,
                benefit=float(benefit),
                score_gap_prev=float(gap_prev),
            )
        )
    return records


def dual_update(
    state: BalancerState, loads: LoadVector, L: float, sched: StepSchedule
) -> BalancerState:
    if loads.counts.shape[0] != state.p.E:
        raise InvalidRange("loads / bias length mismatch")
    delta = sched.bias_delta(loads.counts, L, state.iteration)
    new_p = BiasVector(state.p.values + delta)
    return replace(state, p=new_p, iteration=state.iteration + 1)


@dataclass(frozen=True)
class ReferenceStep:
    n: int
    p: np.ndarray
    outcome: RoutingOutcome
    lagrangian: LagrangianValue
    designations: np.ndarray
    tie_flag: bool
    switches: tuple[SwitchRecord, ...]

    @property
    def loads(self) -> np.ndarray:
        return self.outcome.loads.counts


@dataclass
class ReferenceTrace:
    K: int
    L: float
    schedule: StepSchedule
    steps: list[ReferenceStep] = field(default_factory=list)


def simulate_fixed_scores(
    gamma: np.ndarray,
    schedule: StepSchedule,
    iterations: int,
    K: int = 1,
) -> ReferenceTrace:
    T, E = gamma.shape
    dims = ProblemDims(T=T, E=E, K=K)
    L = dims.target_load
    trace = ReferenceTrace(K=K, L=L, schedule=schedule)

    state = BalancerState(p=BiasVector.zeros(E), iteration=1)
    prev_outcome: RoutingOutcome | None = None
    prev_p: BiasVector | None = None
    for n in range(1, iterations + 1):
        outcome = route_topk(gamma, state.p, K)
        if prev_outcome is not None and K == 1:
            switches = tuple(
                switching_benefit(gamma, prev_outcome, outcome, state.p, prev_p)
            )
        else:
            switches = ()
        lag = lagrangian(gamma, outcome, state.p, L)
        trace.steps.append(
            ReferenceStep(
                n=n,
                p=state.p.values,
                outcome=outcome,
                lagrangian=lag,
                designations=designations(outcome.loads.counts, L),
                tie_flag=outcome.tie_flag,
                switches=switches,
            )
        )
        prev_outcome, prev_p = outcome, state.p
        state = dual_update(state, outcome.loads, L, schedule)
    return trace


def check_lagrangian_identity(trace: ReferenceTrace) -> np.ndarray:
    """Identity residual per transition of a K=1 trace."""
    if trace.K != 1:
        raise InvalidRange("identity check requires K=1")
    steps = trace.steps
    out = np.empty(max(len(steps) - 1, 0))
    for m in range(len(steps) - 1):
        d_lag = steps[m + 1].lagrangian.value - steps[m].lagrangian.value
        total_benefit = sum(r.benefit for r in steps[m + 1].switches)
        penalty = trace.schedule.quadratic_penalty(
            steps[m].loads, trace.L, steps[m].n
        )
        out[m] = abs(d_lag - (total_benefit - penalty))
    return out


@dataclass(frozen=True)
class SwitchCheck:
    record: SwitchRecord
    direction_ok: bool   # strictly lower designation: over > balanced > under
    benefit_ok: bool     # 0 < b < 2u
    gap_ok: bool         # -2u < prior score gap < 0

    @property
    def ok(self) -> bool:
        return self.direction_ok and self.benefit_ok and self.gap_ok


def check_switch_direction(
    records: list[SwitchRecord] | tuple[SwitchRecord, ...],
    designations_at_n: np.ndarray,
    u: float,
) -> list[SwitchCheck]:
    """Audit sign-schedule switches against the direction / bound guarantees.

    Valid only on transitions where neither iteration had a boundary tie.
    """
    checks = []
    for r in records:
        d_from = int(designations_at_n[r.from_expert])
        d_to = int(designations_at_n[r.to_expert])
        checks.append(
            SwitchCheck(
                record=r,
                direction_ok=d_to < d_from,
                benefit_ok=0.0 < r.benefit < 2.0 * u,
                gap_ok=-2.0 * u < r.score_gap_prev < 0.0,
            )
        )
    return checks


def audit_switches(trace: ReferenceTrace, u: float) -> tuple[int, int]:
    """(switches audited, violations) over the tie-free transitions."""
    violations = 0
    audited = 0
    for m in range(len(trace.steps) - 1):
        a, b = trace.steps[m], trace.steps[m + 1]
        if a.tie_flag or b.tie_flag:
            continue
        for chk in check_switch_direction(b.switches, a.designations, u):
            audited += 1
            if not chk.ok:
                violations += 1
    return audited, violations


def check_balance_convergence(
    gamma: np.ndarray, u: float, budget: int
) -> BalanceConvergenceReport:
    T, E = gamma.shape
    L = T // E
    lo, hi = L - (E - 1), L + (E - 1)
    sched = StepSchedule(kind=ScheduleKind.DEEPSEEK_SIGN, u=u)

    state = BalancerState(p=BiasVector.zeros(E), iteration=1)
    entered = np.full(E, -1, dtype=np.int64)
    stayed = True
    max_step = 0
    any_tie = False
    prev_loads: np.ndarray | None = None
    settle_left: int | None = None
    n = 0
    while n < budget:
        n += 1
        outcome = route_topk(gamma, state.p, 1)
        any_tie = any_tie or outcome.tie_flag
        loads = outcome.loads.counts
        in_band = (loads >= lo) & (loads <= hi)
        newly = (entered < 0) & in_band
        entered[newly] = n
        left = (entered > 0) & (entered < n) & ~in_band
        if left.any():
            stayed = False
        if prev_loads is not None:
            max_step = max(max_step, int(np.abs(loads - prev_loads).max()))
        prev_loads = loads
        if np.all(entered > 0):
            if settle_left is None:
                settle_left = SETTLE_ITERATIONS
            elif settle_left == 0:
                break
            else:
                settle_left -= 1
        state = dual_update(state, outcome.loads, L, sched)
    return BalanceConvergenceReport(
        entered_iteration=entered,
        stayed=stayed,
        max_load_step=max_step,
        load_step_ok=max_step <= E - 1,
        iterations_run=n,
        converged=bool(np.all(entered > 0)),
        any_tie=any_tie,
    )


def iterate_stepwise(gamma: np.ndarray, schedule: StepSchedule, K: int = 1):
    """The primal-dual iteration from p = 0 on frozen affinities, without end.

    Iteration n routes by Top-K on gamma + p and yields
    ``(n, p, chosen, loads, row_tie)``; the dual step p + eps_n * (L - A),
    with L = K*T/E, is taken when the consumer asks for the next iteration.  The loop
    works on raw arrays and trusts its caller's affinities.
    """
    g = gamma
    T, E = g.shape
    L = ProblemDims(T=T, E=E, K=K).target_load
    p = np.zeros(E)
    n = 1
    while True:
        chosen, row_tie = topk(g + p, K)
        loads = np.bincount(chosen.ravel(), minlength=E)
        # Steps keep p and loads; the next dual step must not see a
        # consumer's in-place change.
        p.flags.writeable = False
        loads.flags.writeable = False
        yield n, p, chosen, loads, row_tie
        p = p + schedule.bias_delta(loads, L, n)
        n += 1


def check_balance_convergence_stepwise(
    gamma: np.ndarray, u: float, budget: int
) -> BalanceConvergenceReport:
    """Run the sign schedule (K=1) and audit the approximate-balancing band.

    Each expert load must enter [L-(E-1), L+(E-1)] within ``budget``
    iterations and never leave afterwards; per-iteration load changes must
    stay <= E-1.  After all experts have entered, the run continues for
    ``SETTLE_ITERATIONS`` more steps to probe the "remains in range" claim.
    """
    T, E = gamma.shape
    L = T // E
    lo, hi = L - (E - 1), L + (E - 1)
    sched = StepSchedule(kind=ScheduleKind.DEEPSEEK_SIGN, u=u)

    entered = np.full(E, -1, dtype=np.int64)
    stayed = True
    max_step = 0
    any_tie = False
    prev_loads: np.ndarray | None = None
    settle_left: int | None = None
    n = 0
    for n, _, _, loads, row_tie in islice(
        iterate_stepwise(gamma, sched), max(budget, 0)
    ):
        any_tie = any_tie or bool(row_tie.any())
        in_band = (loads >= lo) & (loads <= hi)
        if stayed and ((entered > 0) & ~in_band).any():
            stayed = False
        if prev_loads is not None:
            max_step = max(max_step, int(np.abs(loads - prev_loads).max()))
        prev_loads = loads
        if settle_left is None:
            entered[(entered < 0) & in_band] = n
            if (entered > 0).all():
                settle_left = SETTLE_ITERATIONS
        elif settle_left == 0:
            break
        else:
            settle_left -= 1
    return BalanceConvergenceReport(
        entered_iteration=entered,
        stayed=stayed,
        max_load_step=max_step,
        load_step_ok=max_step <= E - 1,
        iterations_run=n,
        converged=bool(np.all(entered > 0)),
        any_tie=any_tie,
    )


def ubar_pairwise(g: np.ndarray) -> float:
    """Half the minimum difference of score gaps of a (T, E) matrix, one
    expert pair (k, k') at a time; raises InvalidRange on a shared gap."""
    T, E = g.shape
    best = math.inf
    for k in range(E):
        for kp in range(k + 1, E):
            gaps = np.sort(g[:, k] - g[:, kp])
            min_adj = float(np.diff(gaps).min())
            best = min(best, min_adj)
    if best == 0.0:
        raise InvalidRange("two tokens share an identical score gap")
    return 0.5 * best


def stable_partition_preserved(
    loads_n: np.ndarray, loads_next: np.ndarray, L: float
) -> bool:
    """True when a partition (loads >= L | loads <= L) valid at both
    iterations exists, i.e. no expert strictly crossed the target.
    """
    a = np.asarray(loads_n, dtype=np.float64) - L
    b = np.asarray(loads_next, dtype=np.float64) - L
    crossed = ((a > 0) & (b < 0)) | ((a < 0) & (b > 0))
    return not bool(crossed.any())


def balanced_assignment(g: np.ndarray, L: int) -> tuple[float, np.ndarray]:
    """Exact maximizer of the routed affinity over exactly-balanced K=1
    assignments of a (T, E) matrix with T = L * E.  Returns the value and
    the (T,) expert of each token.

    Repeating each expert's column L times makes it a linear assignment
    problem (Kuhn 1955): column c of the repeated matrix is expert c // L.
    """
    T, E = g.shape
    assert T == L * E, f"T={T} must equal L*E={L * E}"
    rows, cols = linear_sum_assignment(np.repeat(g, L, axis=1), maximize=True)
    choice = cols // L  # rows come back as 0..T-1
    return float(g[rows, choice].sum()), choice


def ip_enumeration_oracle(g: np.ndarray, L: int) -> float:
    """The same optimum by brute force: the best routed affinity over the
    distinct permutations of the balanced label vector (L copies of each
    expert)."""
    T, E = g.shape
    labels = []
    for k in range(E):
        labels += [k] * L
    best = -math.inf
    for perm in set(permutations(labels)):
        best = max(best, sum(g[i, perm[i]] for i in range(T)))
    return best
