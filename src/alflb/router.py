"""Bias-shifted Top-K routing.

Affinities are the row-softmax of raw scores; each token then selects the K
experts with the largest shifted score gamma_ik + p_k.  Ties are broken
deterministically in favor of the lowest expert index and flagged, so
downstream theorem checkers can exclude tie iterations.  Both labs count a
routing's loads and score its Lagrangian with the kernels here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BiasVector, LoadVector, ProblemDims, affinity_array
from .errors import InvalidRange


@dataclass(frozen=True)
class RawScoreMatrix:
    """T x E matrix of unnormalized (real-valued) router scores."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, copy=True)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if v.ndim != 2:
            raise InvalidRange("raw scores must be a 2-D matrix")
        if not np.all(np.isfinite(v)):
            raise InvalidRange("raw scores must be finite")


@dataclass(frozen=True)
class RoutingOutcome:
    """Result of one Top-K routing pass.

    assigned_experts[i] lists token i's selected experts in ascending
    expert index (the lowest indices among equal scores at the boundary).
    """

    loads: LoadVector
    tie_flag: bool
    assigned_experts: np.ndarray  # (T, K) int array
    row_tie: np.ndarray  # (T,) bool, tie at the K-th selection boundary


def softmax_affinities(raw: RawScoreMatrix) -> np.ndarray:
    """Row-softmax with max-subtraction for numerical stability: a read-only
    (T, E) affinity matrix, every entry in (0, 1)."""
    v = raw.values
    # one buffer: the same subtract, exp and divide, so the same bits
    probs = v - v.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    if np.any(probs <= 0.0) or np.any(probs >= 1.0):
        raise InvalidRange(
            "softmax under/overflowed to a degenerate probability; "
            "raw score spread too extreme"
        )
    probs.flags.writeable = False
    return probs


def topk(shifted: np.ndarray, K: int, *, margin: bool = False) -> tuple[np.ndarray, ...]:
    """Per row of a (..., T, E) score array, the indices of the K largest entries.

    Returns ``chosen`` (..., T, K) int64 in ascending expert index, and
    ``row_tie`` (..., T) bool, true where the K-th and the (K+1)-th largest
    scores are equal; on such a tie the lowest indices among the equal
    scores are chosen.  Leading axes are a batch of score matrices, each
    routed as on its own.  No input checks: this is the one Top-K kernel of
    the package, under ``route_topk``, ``deterministic.iterate``, and both
    sides of a regret round and the moment check in ``stochastic``; the
    scores must not hold NaN.

    For K > 1 the kernel sorts every row once: its K-th and (K+1)-th largest
    entries give the tie flag, and the chosen set is every cell at or above
    the K-th.  A tied row instead takes the first K cells of a stable argsort
    of its negated scores, which lists equal scores in index order.  Loads
    and the Lagrangian depend only on the set, so no score order is kept.

    With ``margin`` a third array (..., T) is returned: the K-th largest
    score minus the (K+1)-th, as rounded doubles, 0 exactly where the row
    is tied and +inf when K = E.  For K > 1 it is the difference of the two
    sorted entries the tie flag compares; for K = 1 it costs one more pass,
    the maximum of each row over a mask that leaves out its largest cell.
    The scores are only read.
    """
    E = shifted.shape[-1]
    if K == 1 and not margin:
        best = shifted.argmax(axis=-1)
        # the maximum is tied where its first and last positions differ
        last = E - 1 - shifted[..., ::-1].argmax(axis=-1)
        return best[..., None], best != last
    lead = shifted.shape[:-1]
    rows = shifted.reshape(-1, E)
    if K == 1:
        best = rows.argmax(axis=1)
        cells = best + np.arange(0, rows.size, E)
        keep = np.ones(rows.shape, dtype=bool)  # 1 byte a cell, not a copy
        keep.put(cells, False)
        runner_up = rows.max(axis=1, where=keep, initial=-np.inf)
        gap = (rows.take(cells) - runner_up).reshape(lead)
        return best.reshape(lead + (1,)), gap == 0, gap
    ranked = np.sort(rows, axis=1)
    kth = ranked[:, E - K].copy()
    # the (K+1)-th largest; with K = E there is none, so no tie
    nxt = ranked[:, E - K - 1].copy() if K < E else np.full(len(rows), -np.inf)
    del ranked  # release the sorted copy before the mask is built
    row_tie = kth == nxt
    taken = rows >= kth[:, None]
    tied = np.flatnonzero(row_tie)
    if tied.size:  # a stable sort keeps equal scores in index order
        taken[tied] = False
        first = np.argsort(-rows[tied], axis=1, kind="stable")[:, :K]
        taken[tied[:, None], first] = True
    # each row holds K cells, read out in row-major order
    chosen = np.flatnonzero(taken).reshape(-1, K) % E
    out = chosen.reshape(lead + (K,)), row_tie.reshape(lead)
    return out + ((kth - nxt).reshape(lead),) if margin else out


def loads(chosen: np.ndarray, E: int) -> np.ndarray:
    """Per-expert counts (..., E) of a (..., T, K) block of chosen expert
    indices: the loads of each routing in the block."""
    lead = chosen.shape[:-2]
    flat = chosen.reshape(-1, chosen.shape[-2] * chosen.shape[-1])
    if len(flat) > 1:  # count routing j's experts from j * E on
        flat = flat + np.arange(0, len(flat) * E, E)[:, None]
    return np.bincount(flat.ravel(), minlength=flat.shape[0] * E).reshape(lead + (E,))


def lagrangian(
    gamma: np.ndarray, chosen: np.ndarray, p: np.ndarray, L: float
) -> np.ndarray:
    """The Lagrangian sum_{ik} (gamma_ik + p_k) x_ik - L sum_k p_k of each
    routing: gamma the scores (..., T, E), chosen (..., T, K) the experts x
    selects, p (..., E) the biases.  The leading axes of all three
    broadcast, so one (T, E) matrix scores a block of routings.  Only the
    chosen cells are added, each as gamma_ik + p_k, the same add as the
    cell of gamma + p.  It scores both sides of a regret round: the online
    loss f_n at the iterate and f* at the fixed minimizer."""
    E = gamma.shape[-1]
    # the chosen cells' flat indices: row r of gamma, or of p, starts at r * E
    cells = chosen + np.arange(0, gamma.size, E).reshape(gamma.shape[:-1] + (1,))
    biases = chosen + np.arange(0, p.size, E).reshape(p.shape[:-1] + (1, 1))
    routed = np.take(gamma, cells) + np.take(p, biases)
    return routed.sum(axis=(-2, -1)) - L * p.sum(axis=-1)


def route_topk(gamma, p: BiasVector, K: int) -> RoutingOutcome:
    """Select, per token, the K experts with the largest gamma_ik + p_k.

    Ties at the selection boundary are broken by lowest expert index and
    reported through ``tie_flag`` / ``row_tie``.
    """
    g = affinity_array(gamma)
    T, E = g.shape
    if p.E != E:
        raise InvalidRange(f"bias length {p.E} != expert count {E}")
    dims = ProblemDims(T=T, E=E, K=K)
    chosen, row_tie = topk(g + p.values[None, :], K)
    return RoutingOutcome(
        loads=LoadVector(dims, loads(chosen, E)),
        tie_flag=bool(row_tie.any()),
        assigned_experts=chosen,
        row_tie=row_tie,
    )
