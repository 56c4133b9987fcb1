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
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class SwitchRecord:
    token: int
    from_expert: int
    to_expert: int
    benefit: float          # shifted-score gain under the *new* biases
    score_gap_prev: float   # new-minus-old shifted score under the *old* biases


# Per-expert designation relative to the target load.
OVERLOADED, BALANCED, UNDERLOADED = 1, 0, -1


@dataclass(frozen=True)
class IterationStep:
    """State of the routing iteration n (1-based).

    A step stores the per-expert loads, not the routing outcome, so a trace
    holds O(E) numbers per iteration whatever the token count.
    """

    n: int
    p: np.ndarray
    loads: np.ndarray             # A_k per expert, length E
    lagrangian: LagrangianValue
    designations: np.ndarray      # sign(A_k - L) per expert
    tie_flag: bool
    switches: tuple[SwitchRecord, ...]  # transitions from step n-1 to n


@dataclass
class IterationTrace:
    gamma: AffinityMatrix
    K: int
    L: float
    schedule: StepSchedule
    steps: list[IterationStep] = field(default_factory=list)


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


def _switch_records(
    g: np.ndarray,
    a_prev: np.ndarray,
    a_next: np.ndarray,
    p_next: np.ndarray,
    p_prev: np.ndarray,
) -> list[SwitchRecord]:
    """One record per token whose assigned expert changed from ``a_prev`` to
    ``a_next`` (K=1 mode).

    The benefit uses the iteration-(n+1) biases; the prior score gap uses the
    iteration-n biases (needed for the switching-bound audit).
    """
    records = []
    for i in np.flatnonzero(a_prev != a_next):
        old, new = int(a_prev[i]), int(a_next[i])
        benefit = (g[i, new] + p_next[new]) - (g[i, old] + p_next[old])
        gap_prev = (g[i, new] + p_prev[new]) - (g[i, old] + p_prev[old])
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

    Switch records are only computed for K=1; for K > 1 the trace still
    carries loads / Lagrangians but the switching fields stay empty.
    """
    if iterations < 1:
        raise InvalidRange("need at least one iteration")
    g = gamma.values
    T, E = g.shape
    L = ProblemDims(T=T, E=E, K=K).target_load
    trace = IterationTrace(gamma=gamma, K=K, L=L, schedule=schedule)

    rows = np.arange(T)[:, None]
    prev = None
    for n, p, shifted, chosen, loads, row_tie in islice(
        iterate(gamma, schedule, K, zero_sum), iterations
    ):
        switches = ()
        if prev is not None and K == 1:
            a_prev, p_prev = prev
            switches = tuple(_switch_records(g, a_prev, chosen[:, 0], p, p_prev))
        sel = np.zeros((T, E))
        sel[rows, chosen] = 1.0
        desig = designations(loads, L)
        desig.flags.writeable = False
        trace.steps.append(
            IterationStep(
                n=n,
                p=p,
                loads=loads,
                lagrangian=_lagrangian(shifted, sel, p, L),
                designations=desig,
                tie_flag=bool(row_tie.any()),
                switches=switches,
            )
        )
        prev = (chosen[:, 0], p)
    return trace


def check_lagrangian_identity(trace: IterationTrace) -> np.ndarray:
    """Identity residual per transition of a K=1 trace."""
    if trace.K != 1:
        raise KNotOne("identity check requires K=1")
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
        for step in trace.steps:
            loads = step.loads
            writer.writerow(
                [
                    step.n,
                    f"{step.lagrangian.value:.17g}",
                    f"{sum(r.benefit for r in step.switches):.17g}",
                    f"{float(np.abs(loads - trace.L).sum()):.17g}",
                    len(step.switches),
                    int(loads.max()),
                    int(loads.min()),
                    int(step.tie_flag),
                ]
            )
