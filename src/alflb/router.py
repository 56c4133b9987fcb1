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
from .errors import DimMismatch, OverflowGuard


@dataclass(frozen=True)
class RawScoreMatrix:
    """T x E matrix of unnormalized (real-valued) router scores."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, copy=True)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if v.ndim != 2:
            raise DimMismatch("raw scores must be a 2-D matrix")
        if not np.all(np.isfinite(v)):
            raise DimMismatch("raw scores must be finite")


@dataclass(frozen=True)
class RoutingOutcome:
    """Result of one Top-K routing pass.

    assigned_experts[i] lists token i's selected experts in decreasing
    shifted-score order (lowest index first among equals).
    """

    loads: LoadVector
    tie_flag: bool
    assigned_experts: np.ndarray  # (T, K) int array
    row_tie: np.ndarray  # (T,) bool, tie at the K-th selection boundary


def softmax_affinities(raw: RawScoreMatrix) -> np.ndarray:
    """Row-softmax with max-subtraction for numerical stability: a read-only
    (T, E) affinity matrix, every entry in (0, 1)."""
    v = raw.values
    shifted = v - v.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    if np.any(probs <= 0.0) or np.any(probs >= 1.0):
        raise OverflowGuard(
            "softmax under/overflowed to a degenerate probability; "
            "raw score spread too extreme"
        )
    probs.flags.writeable = False
    return probs


def topk(shifted: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a (..., T, E) score array, the indices of the K largest entries.

    Returns ``chosen`` (..., T, K) int64 in decreasing-score order, lowest
    index first among equals, and ``row_tie`` (..., T) bool, true where the
    K-th and the (K+1)-th largest scores are equal.  Leading axes are a batch
    of score matrices, each routed as on its own.  No input checks: this is
    the kernel under ``route_topk`` and the iteration loop.

    For K > 1 the kernel makes K passes of row ``argmax`` over a copy of the
    scores, masking each pick with -inf before the next pass: K*T*E compares
    in place of a sort of every row.  ``argmax`` returns the lowest index
    among equal maxima, so the picks come out in the order of a stable sort
    by descending score.  Rows that hold NaN or -inf get unspecified picks;
    such rows come only from overflowed biases, and ``iterate`` never yields
    them.
    """
    E = shifted.shape[-1]
    if K == 1:
        best = shifted.argmax(axis=-1)
        # the maximum is tied where its first and last positions differ
        last = E - 1 - shifted[..., ::-1].argmax(axis=-1)
        return best[..., None], best != last
    work = np.array(shifted, dtype=np.float64, order="C")
    rows = work.reshape(-1, E)
    cells = work.reshape(-1)  # both views of the copy, for the masking writes
    start = np.arange(0, cells.size, E)
    chosen = np.empty((len(rows), K), dtype=np.int64)
    for j in range(K):
        pick = rows.argmax(axis=1)
        chosen[:, j] = pick
        at = start + pick
        kth = cells[at]
        cells[at] = -np.inf
    if K < E:
        # one more pass finds the (K+1)-th largest score
        row_tie = kth == cells[start + rows.argmax(axis=1)]
    else:
        row_tie = np.zeros(len(rows), dtype=bool)
    lead = shifted.shape[:-1]
    return chosen.reshape(lead + (K,)), row_tie.reshape(lead)


def topk_set(shifted: np.ndarray, K: int) -> np.ndarray:
    """The indices (..., T, K) of the K largest entries of every row of a
    (..., T, E) score array, in no set order: sampled continuous scores tie
    with probability 0, so neither ``topk``'s order nor its tie flags are
    needed."""
    return np.argpartition(-shifted, K - 1, axis=-1)[..., :K]


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
    cell of gamma + p.  This is also the online loss f_n of a round."""
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
        raise DimMismatch(f"bias length {p.E} != expert count {E}")
    dims = ProblemDims(T=T, E=E, K=K)
    chosen, row_tie = topk(g + p.values[None, :], K)
    return RoutingOutcome(
        loads=LoadVector(dims, loads(chosen, E)),
        tie_flag=bool(row_tie.any()),
        assigned_experts=chosen,
        row_tie=row_tie,
    )
