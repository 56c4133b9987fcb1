"""Fixed-score analysis lab.

Runs the primal-dual iteration on a frozen affinity matrix for any K
(``iterate``, ``simulate_fixed_scores``) and audits the structural
guarantees of the K = 1 case: the exact change-of-Lagrangian identity, the
switching-direction and benefit bounds of the sign schedule, the u-bar
threshold that forbids concurrent same-route switches, and the approximate
balancing guarantee.  Affinities are (T, E) arrays, checked once at each
public entry by ``core.affinity_array``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balancer import ScheduleKind, StepSchedule, check_overflow_bound
from .core import ProblemDims, affinity_array
from .errors import InvalidRange
from .router import lagrangian, loads as count_loads, topk

# Most scores, c * T * E, that one block of ``iterate`` routes at once.
BLOCK_SCORES = 2**16
# The rounding slack of the token certificate of ``iterate``, in units of
# 1 + max |p|: 16 times the unit roundoff 2^-53 (see ``_token_rows``).
ROUTE_SLACK = 2.0**-49
# The share of uncertified tokens above which a one-row block of ``iterate``
# routes every token again, which renews every margin; below it, routing
# only those tokens is cheaper (measured at 4096 x 64, K = 1 and 2048 x 64,
# K = 8, in CHANGES.md).
ROUTE_ALL_SHARE = 0.5
# Most chosen cells, rows * T * K, whose Lagrangian ``simulate_fixed_scores``
# scores at once: the gather makes 8-byte index and value temporaries per cell.
SCORE_CELLS = 2**13
# Theorem 1 holds when every identity residual is at most this fraction of
# its scale 1 + |L_m|.
IDENTITY_RTOL = 1e-9
# Iterations that ``check_balance_convergence`` runs after every expert has
# entered the band, to probe the "remains in range" claim.
SETTLE_ITERATIONS = 200


@dataclass(frozen=True)
class IterationTrace:
    """A fixed-score run as one read-only table, O(N*E + switches) numbers.

    Row m is iteration n = m + 1: biases ``p`` and ``loads`` (N, E), the
    Lagrangian value and whether any token had a boundary tie (N,).
    ``switches`` has one row (row, token, from, to) per token whose expert
    changed from row - 1 to row (K=1 only, in token order); ``benefit`` is its
    shifted-score gain under the new biases, ``gap_prev`` under the old ones.
    ``simulate_fixed_scores`` builds the table from the run's N*T*K chosen
    experts, one byte each for E <= 256 and two up to 65,536, and the table
    does not keep them.
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


def designations(loads: np.ndarray, L: float) -> np.ndarray:
    """sign(A_k - L): +1 overloaded, 0 balanced, -1 underloaded."""
    return np.sign(np.asarray(loads, dtype=np.float64) - L).astype(np.int64)


def iterate(
    gamma,
    schedule: StepSchedule,
    K: int = 1,
    *,
    iterations: int,
):
    """The primal-dual iteration from p = 0 on frozen affinities, in blocks.

    Iteration n routes by Top-K on gamma + p_n, then takes the dual step
    p_{n+1} = p_n + eps_n * (L - A_n), with L = K*T/E and no projection.
    Each yield is a block of M >= 1 consecutive iterations
    ``(n, p, chosen, loads, row_tie)`` of shapes (M,), (M, E), (M, T, K),
    (M, E) and (M, T), each token's K experts in ascending expert index; the
    blocks run through iterations 1..``iterations`` in order.

    A block guesses that the loads of its rows equal the last known loads,
    builds up to c rows of biases from that guess and routes them at once.
    It keeps the rows up to and including the first whose loads differ from
    the guess, so every row it yields is the stepwise row bit for bit.  c
    doubles after a block whose guess held and drops to 1 after a miss, with
    c*T*E at most ``BLOCK_SCORES``.  Before the first block the affinities
    are checked (and copied unless already read-only), and so is the run,
    by ``balancer.check_overflow_bound``.

    A block of M >= 2 rows is first certified: if, for every token, the
    lowest of gamma + lo over the experts it chose at the last row before
    the block is above the highest of gamma + hi over the others, lo and hi
    the least and greatest of each expert's biases over the block, then no
    row can change a Top-K set or tie at its boundary.  Such a block makes
    no ``topk`` call: its ``chosen`` and ``loads`` are that row's, broadcast
    over the block, and ``row_tie`` is all false.  The biases, experts and
    loads a block yields are read-only.

    When c is capped at 1 (T*E > ``BLOCK_SCORES`` / 2), every block is one
    row, and the rows are certified token by token instead
    (``_token_rows``): only the tokens whose Top-K set or tie the bias
    drift since their last routing may have changed go through ``topk``.
    """
    g = affinity_array(gamma)
    T, E = g.shape
    L = ProblemDims(T=T, E=E, K=K).target_load
    check_overflow_bound(schedule.u, K, T, iterations)
    cap = max(1, BLOCK_SCORES // (T * E))
    if cap == 1:
        yield from _token_rows(g, schedule, K, L, iterations)
        return
    p = np.zeros(E)
    guess = np.full(E, -1)  # no load is negative, so the first block misses
    n, c = 1, 1
    while n <= iterations:
        rows = np.arange(n, n + min(c, iterations - n + 1))
        if n > 1:  # the dual step from the last row of the previous block
            p = p_rows[-1] + schedule.bias_delta(guess, L, n - 1)
        p_rows = _guessed_biases(p, guess, schedule, L, rows)
        M = len(rows)
        if M > 1 and _certified(g, last, p_rows):
            chosen = np.broadcast_to(last, (M, T, K))
            loads = np.broadcast_to(guess, (M, E))
            row_tie = np.zeros((M, T), dtype=bool)
        else:
            chosen, row_tie = topk(g + p_rows[:, None, :], K)
            loads = count_loads(chosen, E)
        held = (loads == guess).all(axis=1)
        first_miss = int(held.argmin())
        missed = not held[first_miss]
        keep = first_miss + 1 if missed else M
        if keep < M:
            rows, p_rows = rows[:keep], p_rows[:keep]
            chosen, loads, row_tie = chosen[:keep], loads[:keep], row_tie[:keep]
        # A consumer's in-place change must not reach the next block.
        for a in (p_rows, chosen, loads):
            a.flags.writeable = False
        yield rows, p_rows, chosen, loads, row_tie
        n += keep
        last, guess = chosen[-1], loads[-1]
        c = 1 if missed else min(2 * c, cap)


def _certified(g, last, p_rows):
    """Whether every row of biases ``p_rows`` routes each token i to its set
    ``last[i]`` with no boundary tie: the lowest of g + lo over the set is
    above the highest of g + hi off it, lo and hi the least and greatest bias
    of each expert over the rows.  A rounded sum g + p is monotone in p, so
    each row's scores lie between those at lo and at hi.  With K = E nothing
    is off the set, its highest is -inf, and every block holds."""
    cells = last + np.arange(0, g.size, g.shape[1])[:, None]  # flat, C order
    low = np.take(g + p_rows.min(axis=0), cells).min(axis=1)
    high = g + p_rows.max(axis=0)
    high.put(cells, -np.inf)
    return bool((low > high.max(axis=1)).all())


def _token_rows(g, schedule, K, L, iterations):
    """``iterate`` as one-row blocks, routing only the tokens that may move.

    A full routing keeps each token's margin m, its K-th largest shifted
    score minus its (K+1)-th (``topk``'s margin; +inf when K = E).  If a
    row's biases move by Delta, a token's scores move by Delta too, and its
    margin falls by at most max_j Delta_j - min_j Delta_j, the step spread.
    So the running sum S of the spreads bounds the drift of every token:
    one routed when the sum was S_i still has its set, and no tie, while
    m > (S - S_i) + s.  Only the other tokens go through ``topk``, on their
    own rows of gamma + p, the same adds as a full row; the loads change by
    the counts of their new sets minus their old ones.  When more than
    ``ROUTE_ALL_SHARE`` of the tokens are uncertified, every token is routed
    and every margin renewed.

    The slack covers the rounding, with P the largest |p_j| of any row so
    far: every shifted score is at most 1 + P in size, affinities lying in
    (0, 1).  Where the test m > (S - S_i) + s can hold, S - S_i < m <=
    2 (1 + P), and against exact arithmetic it errs by at most 2^-52 (1 + P)
    in each of five places: the margin's two scores when it was taken, the
    same two now, the margin's subtraction, S - S_i and its sum with s.  So
    s = ``ROUTE_SLACK`` (1 + P) = 2^-49 (1 + P) covers them.  Each row adds
    to S its rounded step spread plus ``ROUTE_SLACK`` (1 + P + S), which
    covers the rounding of p + step (2^-53 P per bias), of the spread and of
    the sum S itself; so S - S_i bounds the true drift.
    """
    T, E = g.shape
    p = np.zeros(E)
    reach = drift = 0.0  # P and S
    for n in range(1, iterations + 1):
        if n > 1:
            step = schedule.bias_delta(loads, L, n - 1)
            p = p + step
            reach = max(reach, float(np.abs(p).max()))
            drift += float(step.max() - step.min()) + ROUTE_SLACK * (1.0 + reach + drift)
            moved = _uncertified(margin, since, drift, ROUTE_SLACK * (1.0 + reach))
        if n == 1 or np.count_nonzero(moved) > ROUTE_ALL_SHARE * T:
            chosen, row_tie, margin = topk(g + p, K, margin=True)
            loads = count_loads(chosen, E)
            since = np.full(T, drift)  # S_i of every token
        else:
            row_tie = np.zeros(T, dtype=bool)
            i = np.flatnonzero(moved)
            if i.size:
                scores = g[i]  # a fresh copy: one temporary, not two
                scores += p
                new, row_tie[i], margin[i] = topk(scores, K, margin=True)
                loads = loads + count_loads(new, E) - count_loads(chosen[i], E)
                chosen = chosen.copy()
                chosen[i], since[i] = new, drift
        # the carried margins and S_i are never yielded, and a yielded array
        # is never written again
        for a in (p, chosen, loads):
            a.flags.writeable = False
        yield np.array([n]), p[None], chosen[None], loads[None], row_tie[None]


def _uncertified(margin, since, drift, slack):
    """The tokens whose Top-K set or boundary tie may differ from their last
    routing: margin <= (S - S_i) + s, with ``drift`` = S and ``since`` = S_i."""
    return margin <= (drift - since) + slack


def _guessed_biases(p, guess, schedule, L, rows):
    """The biases of iterations ``rows`` from p, exact at rows[0], if every
    load from rows[0] on equals ``guess``: the stepwise adds, bit for bit."""
    if len(rows) == 1:
        return p[None]
    steps = schedule.bias_delta(
        np.broadcast_to(guess, (len(rows) - 1, len(p))), L, rows[:-1, None]
    )
    # cumsum adds row by row, in the order of the stepwise loop
    return np.cumsum(np.vstack((p, steps)), axis=0)


def simulate_fixed_scores(
    gamma,
    schedule: StepSchedule,
    iterations: int,
    K: int = 1,
) -> IterationTrace:
    """Run the primal-dual iteration from p = 0 on frozen affinities.

    The loop over ``iterate``'s blocks only stores each row's biases, loads,
    tie flag and chosen experts, the experts in the smallest unsigned type
    that holds E - 1: O(N*T*K) bytes, N*T*K for E <= 256.  After the loop,
    the Lagrangian column (``router.lagrangian``) is computed from that store
    in chunks of at most ``SCORE_CELLS`` chosen cells; each adds the same
    floats in the same order as a computation per block would, so the column
    is the same bits.  The switch table comes from one diff of each row's
    experts against the row before, whose (N - 1, T) mask is one byte per
    token-row.  Switches are only recorded for K=1; for K > 1 the switch
    table is empty.
    """
    if iterations < 1:
        raise InvalidRange("need at least one iteration")
    g = affinity_array(gamma)
    T, E = g.shape
    L = ProblemDims(T=T, E=E, K=K).target_load
    p_rows = np.empty((iterations, E))
    load_rows = np.empty((iterations, E), dtype=np.int64)
    tie = np.empty(iterations, dtype=bool)
    # Each block's chosen experts, joined after the loop: one (N, T, K) array
    # held through the loop splits the heap space that the loop's (T, E)
    # temporaries reuse, which raised the peak resident set of repeated
    # 4096 x 64 traces by 1.8 MiB.
    compact, blocks = np.min_scalar_type(E - 1), []
    for n, p, chosen, loads, row_tie in iterate(g, schedule, K, iterations=iterations):
        block = slice(n[0] - 1, n[-1])
        p_rows[block], load_rows[block], tie[block] = p, loads, row_tie.any(axis=1)
        blocks.append(chosen.astype(compact))
    assigned = np.concatenate(blocks)
    del blocks

    lag = np.empty(iterations)
    step = max(1, SCORE_CELLS // (T * K))
    for m in range(0, iterations, step):
        chunk = slice(m, m + step)
        lag[chunk] = lagrangian(g, assigned[chunk], p_rows[chunk], L)

    # each row against the row before; for K > 1 one row, so no switch
    a = assigned[:iterations if K == 1 else 1, :, 0]
    r, i = np.nonzero(a[1:] != a[:-1])
    switches = np.column_stack((r + 1, i, a[r, i], a[r + 1, i]))
    row, i, old, new = switches.T
    # the shifted-score gain of each switch under the new and the old biases
    benefit = (g[i, new] + p_rows[row, new]) - (g[i, old] + p_rows[row, old])
    gap_prev = (g[i, new] + p_rows[row - 1, new]) - (g[i, old] + p_rows[row - 1, old])
    columns = (p_rows, load_rows, lag, tie, switches, benefit, gap_prev)
    for c in columns:
        c.flags.writeable = False
    return IterationTrace(K, L, schedule, *columns)


@dataclass(frozen=True)
class TraceAudit:
    """Per transition m -> m+1: the theorem-1 residual and its scale
    1 + |L_m|; over the tie-free transitions of a sign-schedule trace (0 and
    0 otherwise): the switches audited and those that break theorem 2."""

    identity_residual: np.ndarray
    identity_scale: np.ndarray
    switches_audited: int
    switch_violations: int

    @property
    def identity_holds(self) -> bool:
        """Theorem 1: every residual <= IDENTITY_RTOL * its scale (a NaN
        residual fails)."""
        return bool(np.all(self.identity_residual <= IDENTITY_RTOL * self.identity_scale))

    @property
    def switches_hold(self) -> bool:
        """Theorem 2: no audited switch breaks the direction or benefit bounds."""
        return self.switch_violations == 0


def audit_trace(trace: IterationTrace) -> TraceAudit:
    """Audit every transition of a K=1 trace.

    Theorem 1: the Lagrangian changes by exactly the switch benefits minus
    the schedule's quadratic penalty.  Theorem 2: a token only moves to an
    expert of strictly lower designation at the earlier row, with benefit in
    (0, 2u) and earlier score gap in (-2u, 0).
    """
    if trace.K != 1:
        raise InvalidRange("trace audit requires K=1")
    row, _, frm, to = trace.switches.T
    penalty = trace.schedule.quadratic_penalty(
        trace.loads[:-1], trace.L, np.arange(1, len(trace.lagrangian))
    )
    # the switch benefits into each row, added in token order
    benefits = np.bincount(row, trace.benefit, minlength=len(trace.lagrangian))
    residual = np.abs(np.diff(trace.lagrangian) - (benefits[1:] - penalty))

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


def ubar(gamma) -> float:
    """Half the minimum difference of score gaps over token and expert pairs.

    One pass per expert k sorts the gaps g[:, k] - g[:, k'] of every k' > k
    down the token axis, column by column, and takes the least difference of
    neighbours; a block over all pairs at once would hold T * E(E-1)/2 gaps.
    Raises InvalidRange when two tokens share an identical gap for some
    expert pair (the threshold would be 0 and the concurrent-switch
    guarantee vacuous).
    """
    g = affinity_array(gamma)
    T, E = g.shape
    if T < 2:
        raise InvalidRange("need at least two tokens")
    best = math.inf
    for k in range(E - 1):
        gaps = np.sort(g[:, k, None] - g[:, k + 1:], axis=0)
        best = min(best, float(np.diff(gaps, axis=0).min()))
    if best == 0.0:
        raise InvalidRange("two tokens share an identical score gap")
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

    @property
    def passed(self) -> bool:
        """Theorem 3: every expert entered the band, none left it, and no
        load moved by more than E - 1 in one iteration."""
        return self.converged and self.stayed and self.load_step_ok


def check_balance_convergence(
    gamma,
    u: float,
    budget: int | None = None,
) -> BalanceConvergenceReport:
    """Run the sign schedule (K=1) and audit the approximate-balancing band.

    Each expert load must enter [L-(E-1), L+(E-1)] within ``budget``
    iterations and never leave afterwards; per-iteration load changes must
    stay <= E-1.  After all experts have entered, the run continues for
    ``SETTLE_ITERATIONS`` more steps to probe the "remains in range" claim,
    but never past the budget; a budget below 1 runs nothing and reports 0
    iterations.  The default budget is max(10*T*E, ceil(2.5/u) + 100): in
    ceil(2.5/u) steps of u a bias moves by 2.5, more than the width of the
    (0, 1) range that affinities lie in; a u so small that 2.5/u is not
    finite raises InvalidRange, as does a T that E does not divide.
    ``iterate`` checks u and the budget against
    ``balancer.check_overflow_bound``.
    """
    g = affinity_array(gamma)
    T, E = g.shape
    L = ProblemDims(T=T, E=E, K=1).target_load
    if T % E:
        raise InvalidRange(f"K*T={T} not divisible by E={E}")
    sched = StepSchedule(kind=ScheduleKind.DEEPSEEK_SIGN, u=u)
    if budget is None:
        if not math.isfinite(2.5 / u):
            raise InvalidRange(f"the default budget ceil(2.5 / u) is not finite at u = {u}")
        budget = max(10 * T * E, math.ceil(2.5 / u) + 100)
    lo, hi = L - (E - 1), L + (E - 1)

    entered = np.full(E, -1, dtype=np.int64)
    stayed = True
    max_step = 0
    any_tie = False
    last = np.empty((0, E), dtype=np.int64)  # the loads of the last row run
    # The last row to run; once all have entered, the one after the settle window.
    stop = budget
    n_run = 0
    for n, _, _, loads, row_tie in iterate(g, sched, iterations=budget):
        in_band = (loads >= lo) & (loads <= hi)
        if (entered < 0).any():
            new = (entered < 0) & in_band.any(axis=0)
            entered[new] = n[in_band.argmax(axis=0)[new]]
            if (entered > 0).all():
                stop = int(entered.max()) + SETTLE_ITERATIONS + 1
        run = n <= stop
        n, loads, in_band = n[run], np.vstack((last, loads[run])), in_band[run]
        # an expert entered at an earlier row and is out of the band now
        left = (entered > 0) & (entered < n[:, None]) & ~in_band
        stayed = stayed and not left.any()
        max_step = max(max_step, int(np.abs(np.diff(loads, axis=0)).max(initial=0)))
        any_tie = any_tie or bool(row_tie[run].any())
        last, n_run = loads[-1:], int(n[-1])
        if n_run == stop:
            break
    return BalanceConvergenceReport(
        entered_iteration=entered,
        stayed=stayed,
        max_load_step=max_step,
        load_step_ok=max_step <= E - 1,
        iterations_run=n_run,
        converged=bool(np.all(entered > 0)),
        any_tie=any_tie,
    )
