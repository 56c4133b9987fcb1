"""Fixed-score (K=1) analysis lab.

Runs the primal-dual iteration on a frozen affinity matrix and audits its
structural guarantees: the exact change-of-Lagrangian identity, the
switching-direction and benefit bounds of the sign schedule, the u-bar
threshold that forbids concurrent same-route switches, the approximate
balancing guarantee, and a brute-force exact-balancing IP oracle.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .balancer import ScheduleKind, StepSchedule
from .core import (
    AffinityMatrix,
    Assignment,
    BiasVector,
    ProblemDims,
)
from .errors import DegenerateGaps, DimMismatch, InvalidRange, KNotOne, TooLarge
from .router import topk

IP_ENUMERATION_GUARD = 10**7


@dataclass(frozen=True)
class LagrangianValue:
    """Routed-affinity total minus the bias penalty L * sum_k p_k."""

    value: float
    affinity_term: float
    bias_penalty_term: float


# Per-expert designation relative to the target load.
OVERLOADED, BALANCED, UNDERLOADED = 1, 0, -1


@dataclass(frozen=True)
class IterationTrace:
    """A fixed-score run as one read-only table, O(N*E + switches) numbers.

    Row m is iteration n = m + 1: biases ``p`` and ``loads`` (N, E), the
    Lagrangian value and whether any token had a boundary tie (N,).
    ``switches`` has one row (row, token, from, to) per token whose expert
    changed from row - 1 to row (K=1 only, in token order); ``benefit`` is its
    shifted-score gain under the new biases, ``gap_prev`` under the old ones.
    """

    K: int
    L: float
    schedule: StepSchedule
    p: np.ndarray
    loads: np.ndarray
    lagrangian: np.ndarray
    tie: np.ndarray
    switches: np.ndarray
    benefit: np.ndarray
    gap_prev: np.ndarray


def lagrangian(
    gamma: AffinityMatrix, x: Assignment, p: BiasVector, L: float
) -> LagrangianValue:
    """Exact evaluation of sum_{ik} (gamma_ik + p_k) x_ik - L sum_k p_k."""
    if x.selected.shape != gamma.values.shape or p.E != gamma.values.shape[1]:
        raise DimMismatch("gamma / assignment / bias shapes disagree")
    return _lagrangian(
        gamma.values + p.values[None, :], x.selected.astype(np.float64),
        p.values, L,
    )


def _lagrangian(
    shifted: np.ndarray, sel: np.ndarray, p: np.ndarray, L: float
) -> LagrangianValue:
    """``lagrangian`` on raw arrays: shifted = gamma + p, sel the float 0/1
    selection matrix."""
    affinity_term = float((shifted * sel).sum())
    bias_penalty_term = float(L * p.sum())
    return LagrangianValue(
        value=affinity_term - bias_penalty_term,
        affinity_term=affinity_term,
        bias_penalty_term=bias_penalty_term,
    )


def designations(loads: np.ndarray, L: float) -> np.ndarray:
    """sign(A_k - L): +1 overloaded, 0 balanced, -1 underloaded."""
    return np.sign(np.asarray(loads, dtype=np.float64) - L).astype(np.int64)


def iterate(
    gamma: AffinityMatrix, schedule: StepSchedule, K: int = 1, zero_sum: bool = False
):
    """The primal-dual iteration from p = 0 on frozen affinities, without end.

    Iteration n routes by Top-K on gamma + p and yields
    ``(n, p, shifted, chosen, loads, row_tie)``; the dual step
    p + eps_n * (L - A), with L = K*T/E and, under ``zero_sum``, minus its
    mean, is taken when the consumer asks for the next iteration.  The input
    is validated once, on entry; the loop itself works on raw arrays.
    """
    g = gamma.values
    T, E = g.shape
    L = ProblemDims(T=T, E=E, K=K).target_load
    p = np.zeros(E)
    n = 1
    while True:
        shifted = g + p
        chosen, row_tie = topk(shifted, K)
        loads = np.bincount(chosen.ravel(), minlength=E)
        # Steps keep p and loads; the next dual step must not see a
        # consumer's in-place change.
        p.flags.writeable = False
        loads.flags.writeable = False
        yield n, p, shifted, chosen, loads, row_tie
        p = p + schedule.bias_delta(loads, L, n)
        if zero_sum:
            p = p - p.mean()
        if not np.isfinite(p).all():
            raise InvalidRange("bias entries must be finite")
        n += 1


def simulate_fixed_scores(
    gamma: AffinityMatrix,
    schedule: StepSchedule,
    iterations: int,
    K: int = 1,
    zero_sum: bool = False,
) -> IterationTrace:
    """Run the primal-dual iteration from p = 0 on frozen affinities.

    Switches are only recorded for K=1; for K > 1 the switch table is empty.
    """
    if iterations < 1:
        raise InvalidRange("need at least one iteration")
    g = gamma.values
    T, E = g.shape
    L = ProblemDims(T=T, E=E, K=K).target_load
    p_rows = np.empty((iterations, E))
    load_rows = np.empty((iterations, E), dtype=np.int64)
    lag = np.empty(iterations)
    tie = np.empty(iterations, dtype=bool)
    switched = [(np.empty((0, 4), dtype=np.int64), np.empty(0), np.empty(0))]

    rows = np.arange(T)[:, None]
    a_prev = p_prev = None
    for n, p, shifted, chosen, loads, row_tie in islice(
        iterate(gamma, schedule, K, zero_sum), iterations
    ):
        m = n - 1
        if a_prev is not None and K == 1:
            a_next = chosen[:, 0]
            i = np.flatnonzero(a_prev != a_next)
            old, new = a_prev[i], a_next[i]
            switched.append((
                np.column_stack((np.full(i.size, m), i, old, new)),
                (g[i, new] + p[new]) - (g[i, old] + p[old]),
                (g[i, new] + p_prev[new]) - (g[i, old] + p_prev[old]),
            ))
        sel = np.zeros((T, E))
        sel[rows, chosen] = 1.0
        p_rows[m], load_rows[m], tie[m] = p, loads, row_tie.any()
        lag[m] = _lagrangian(shifted, sel, p, L).value
        a_prev, p_prev = chosen[:, 0], p

    columns = (p_rows, load_rows, lag, tie, *(np.concatenate(c) for c in zip(*switched)))
    for c in columns:
        c.flags.writeable = False
    return IterationTrace(K, L, schedule, *columns)


def _row_benefits(trace: IterationTrace) -> np.ndarray:
    """Sum of the switch benefits into each row, added in token order."""
    total = np.zeros(len(trace.lagrangian))
    np.add.at(total, trace.switches[:, 0], trace.benefit)
    return total


@dataclass(frozen=True)
class TraceAudit:
    """Per transition m -> m+1: the theorem-1 residual and its scale
    1 + |L_m|; over the tie-free transitions of a sign-schedule trace (0 and
    0 otherwise): the switches audited and those that break theorem 2."""

    identity_residual: np.ndarray
    identity_scale: np.ndarray
    switches_audited: int
    switch_violations: int


def audit_trace(trace: IterationTrace) -> TraceAudit:
    """Audit every transition of a K=1 trace.

    Theorem 1: the Lagrangian changes by exactly the switch benefits minus
    the schedule's quadratic penalty.  Theorem 2: a token only moves to an
    expert of strictly lower designation at the earlier row, with benefit in
    (0, 2u) and earlier score gap in (-2u, 0).
    """
    if trace.K != 1:
        raise KNotOne("trace audit requires K=1")
    row, _, frm, to = trace.switches.T
    penalty = np.array([
        trace.schedule.quadratic_penalty(loads, trace.L, m + 1)
        for m, loads in enumerate(trace.loads[:-1])
    ])
    residual = np.abs(np.diff(trace.lagrangian) - (_row_benefits(trace)[1:] - penalty))

    audited = violations = 0
    if trace.schedule.kind is ScheduleKind.DEEPSEEK_SIGN:
        u = trace.schedule.u
        desig = designations(trace.loads, trace.L)
        b, gap = trace.benefit, trace.gap_prev
        ok = (
            (desig[row - 1, to] < desig[row - 1, frm])
            & (0.0 < b) & (b < 2.0 * u)
            & (-2.0 * u < gap) & (gap < 0.0)
        )
        keep = ~(trace.tie[row - 1] | trace.tie[row])
        audited = int(keep.sum())
        violations = int((keep & ~ok).sum())
    return TraceAudit(
        identity_residual=residual,
        identity_scale=1.0 + np.abs(trace.lagrangian[:-1]),
        switches_audited=audited,
        switch_violations=violations,
    )


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


def ubar(gamma: AffinityMatrix) -> float:
    """Half the minimum difference of score gaps over token and expert pairs.

    Raises DegenerateGaps when two tokens share an identical gap for some
    expert pair (the threshold would be 0 and the concurrent-switch
    guarantee vacuous).
    """
    g = gamma.values
    T, E = g.shape
    if T < 2:
        raise InvalidRange("need at least two tokens")
    best = math.inf
    for k in range(E):
        for kp in range(k + 1, E):
            gaps = np.sort(g[:, k] - g[:, kp])
            min_adj = float(np.diff(gaps).min())
            best = min(best, min_adj)
    if best == 0.0:
        raise DegenerateGaps("two tokens share an identical score gap")
    return 0.5 * best


@dataclass(frozen=True)
class BalanceConvergenceReport:
    entered_iteration: np.ndarray  # first 1-based iteration inside the band, -1 if never
    stayed: bool                   # no expert left the band after entering
    max_load_step: int             # largest per-iteration per-expert load change
    load_step_ok: bool             # every change <= E - 1
    iterations_run: int
    converged: bool                # all experts entered within the budget
    any_tie: bool


def check_balance_convergence(
    gamma: AffinityMatrix,
    u: float,
    budget: int | None = None,
    settle_iterations: int = 200,
) -> BalanceConvergenceReport:
    """Run the sign schedule (K=1) and audit the approximate-balancing band.

    Each expert load must enter [L-(E-1), L+(E-1)] within ``budget``
    iterations and never leave afterwards; per-iteration load changes must
    stay <= E-1.  After all experts have entered, the run continues for
    ``settle_iterations`` more steps to probe the "remains in range" claim.
    """
    T, E = gamma.values.shape
    L = ProblemDims(T=T, E=E, K=1).L
    if budget is None:
        budget = 10 * T * E
    lo, hi = L - (E - 1), L + (E - 1)
    sched = StepSchedule(kind=ScheduleKind.DEEPSEEK_SIGN, u=u)

    entered = np.full(E, -1, dtype=np.int64)
    stayed = True
    max_step = 0
    any_tie = False
    prev_loads: np.ndarray | None = None
    settle_left: int | None = None
    n = 0
    for n, _, _, _, loads, row_tie in islice(
        iterate(gamma, sched), max(budget, 0)
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
                settle_left = settle_iterations
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


def ip_bruteforce(gamma: AffinityMatrix, L: int) -> tuple[float, Assignment]:
    """Exact maximizer of the routed affinity over exactly-balanced K=1
    assignments, by depth-first enumeration.

    Guarded: the number of balanced assignments T! / (L!)^E must not exceed
    IP_ENUMERATION_GUARD.
    """
    g = gamma.values
    T, E = g.shape
    if T != L * E:
        raise InvalidRange(f"T={T} must equal L*E={L * E}")
    count = math.factorial(T) // (math.factorial(L) ** E)
    if count > IP_ENUMERATION_GUARD:
        raise TooLarge(f"{count} balanced assignments exceed the guard")

    capacity = [L] * E
    choice = np.empty(T, dtype=np.int64)
    best_value = -math.inf
    best_choice = choice.copy()

    def dfs(i: int, acc: float):
        nonlocal best_value, best_choice
        if i == T:
            if acc > best_value:
                best_value = acc
                best_choice = choice.copy()
            return
        for k in range(E):
            if capacity[k] > 0:
                capacity[k] -= 1
                choice[i] = k
                dfs(i + 1, acc + g[i, k])
                capacity[k] += 1

    dfs(0, 0.0)
    selected = np.zeros((T, E), dtype=np.int8)
    selected[np.arange(T), best_choice] = 1
    dims = ProblemDims(T=T, E=E, K=1)
    return best_value, Assignment(dims, selected)


def trace_to_csv(trace: IterationTrace, path) -> None:
    """One CSV row per iteration: n, lagrangian, sum_benefit,
    sum_abs_imbalance, num_switches, max_load, min_load, tie_flag.
    """
    total_benefit = _row_benefits(trace)
    num_switches = np.bincount(trace.switches[:, 0], minlength=len(total_benefit))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "n",
                "lagrangian",
                "sum_benefit",
                "sum_abs_imbalance",
                "num_switches",
                "max_load",
                "min_load",
                "tie_flag",
            ]
        )
        for m, loads in enumerate(trace.loads):
            writer.writerow(
                [
                    m + 1,
                    f"{trace.lagrangian[m]:.17g}",
                    f"{total_benefit[m]:.17g}",
                    f"{float(np.abs(loads - trace.L).sum()):.17g}",
                    num_switches[m],
                    int(loads.max()),
                    int(loads.min()),
                    int(trace.tie[m]),
                ]
            )
