"""Slow reference for the selection moments and the Hessian edge weights.

These are the subset-enumeration implementations that ``alflb`` used before
the shared-node Poisson-binomial quadrature: one quadrature per expert for
(pi, F_K) and one per pair for w_kl, each evaluating every rival's cdf at its
own nodes and summing the products over all rival subsets of the right size.
The piecewise Gauss-Legendre rule is copied as well, so the oracle tests
compare the fast path against code that shares none of its helpers.  The
term-budget guard is left out: the oracle only runs on small E.

``pi_monte_carlo`` is the sampled oracle of the selection probabilities:
Top-K counts over fresh score draws, as criterion 6 compares them with the
quadrature.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from alflb.distributions import AffinityDistributionSet
from alflb.errors import InvalidRange

QUAD_TOL = 1e-8
QUAD_BASE_NODES = 256
QUAD_MAX_DOUBLINGS = 5
MC_BATCH = 1 << 16  # score rows per pi_monte_carlo block


@lru_cache(maxsize=32)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _segment_nodes(edges: np.ndarray, n: int):
    x, w = _leggauss(n)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo) + half * x[None, :]).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights


def piecewise_gauss_vec(f, a: float, b: float, cuts=(), tol: float = QUAD_TOL):
    if b <= a:
        probe = np.atleast_2d(f(np.array([0.5 * (a + b) if b > a else a])))
        return np.zeros(probe.shape[0])
    interior = sorted({c for c in cuts if a < c < b})
    edges = np.array([a, *interior, b])
    n = QUAD_BASE_NODES
    nodes, weights = _segment_nodes(edges, n)
    prev = np.atleast_2d(f(nodes)) @ weights
    for _ in range(QUAD_MAX_DOUBLINGS):
        n *= 2
        nodes, weights = _segment_nodes(edges, n)
        cur = np.atleast_2d(f(nodes)) @ weights
        if np.max(np.abs(cur - prev)) < tol:
            return cur
        prev = cur
    return prev


def _small_subsets(indices: list[int], max_size: int) -> list[tuple[int, ...]]:
    out = []
    for r in range(max_size + 1):
        out.extend(itertools.combinations(indices, r))
    return out


def _selection_kernel(dist: AffinityDistributionSet, p: np.ndarray, K: int, k: int):
    E = dist.E
    others = [j for j in range(E) if j != k]
    subsets = _small_subsets(list(range(E - 1)), K - 1)
    dk = dist.dists[k]

    def f(v: np.ndarray) -> np.ndarray:
        cdfs = np.stack([dist.dists[j].cdf(v - p[j] + p[k]) for j in others])
        comp = 1.0 - cdfs
        q = np.zeros_like(v)
        for S in subsets:
            term = np.ones_like(v)
            in_s = np.zeros(E - 1, dtype=bool)
            in_s[list(S)] = True
            for idx in range(E - 1):
                term = term * (comp[idx] if in_s[idx] else cdfs[idx])
            q += term
        base = dk.pdf(v) * q
        return np.stack([base, (v + p[k]) * base])

    cuts = set(dk.breakpoints())
    for j in others:
        for bp in dist.dists[j].breakpoints():
            cuts.add(bp + p[j] - p[k])
    return f, cuts


def selection_moments(
    dist: AffinityDistributionSet, p: np.ndarray, K: int, tol: float = QUAD_TOL
) -> tuple[np.ndarray, float]:
    E = dist.E
    if np.shape(p) != (E,):
        raise InvalidRange("bias / distribution count mismatch")
    pi = np.empty(E)
    total_value = 0.0
    for k in range(E):
        f, cuts = _selection_kernel(dist, p, K, k)
        pi_k, val_k = piecewise_gauss_vec(f, 0.0, 1.0, cuts, tol)
        pi[k] = pi_k
        total_value += val_k
    return pi, float(total_value)


def edge_weights_quadrature(
    dist: AffinityDistributionSet, p: np.ndarray, K: int, tol: float = QUAD_TOL
) -> np.ndarray:
    E = dist.E
    if np.shape(p) != (E,):
        raise InvalidRange("bias / distribution count mismatch")
    w = np.zeros((E, E))
    for k in range(E):
        for l in range(k + 1, E):
            others = [j for j in range(E) if j not in (k, l)]
            if K - 1 > len(others):
                continue  # not enough rivals: weight is 0
            subsets = list(itertools.combinations(range(len(others)), K - 1))
            dk, dl = dist.dists[k], dist.dists[l]
            # a score distribution's support is its first and last breakpoint
            lo = max(dk.breakpoints()[0] + p[k], dl.breakpoints()[0] + p[l])
            hi = min(dk.breakpoints()[-1] + p[k], dl.breakpoints()[-1] + p[l])
            if hi <= lo:
                continue

            def f(v: np.ndarray) -> np.ndarray:
                base = dk.pdf(v - p[k]) * dl.pdf(v - p[l])
                if others:
                    cdfs = np.stack(
                        [dist.dists[j].cdf(v - p[j]) for j in others]
                    )
                    comp = 1.0 - cdfs
                    b = np.zeros_like(v)
                    for S in subsets:
                        term = np.ones_like(v)
                        in_s = np.zeros(len(others), dtype=bool)
                        in_s[list(S)] = True
                        for idx in range(len(others)):
                            term = term * (comp[idx] if in_s[idx] else cdfs[idx])
                        b += term
                else:
                    b = np.ones_like(v)
                return base * b

            cuts = set()
            for j in range(E):
                for bp in dist.dists[j].breakpoints():
                    cuts.add(bp + p[j])
            val = piecewise_gauss_vec(f, lo, hi, cuts, tol)[0]
            w[k, l] = w[l, k] = max(val, 0.0)
    return w


def pi_monte_carlo(
    dist: AffinityDistributionSet,
    p: np.ndarray,
    K: int,
    samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical selection frequencies (E,) over fresh score draws, with
    their binomial standard errors (E,).
    """
    if samples < 1000:
        raise InvalidRange("need at least 10^3 samples")
    counts = np.zeros(dist.E, dtype=np.int64)
    done = 0
    while done < samples:
        m = min(MC_BATCH, samples - done)
        shifted = dist.sample_matrix(m, rng) + p
        # continuous scores tie with probability 0: any Top-K set will do
        top = np.argpartition(-shifted, K - 1, axis=-1)[:, :K]
        counts += np.bincount(top.ravel(), minlength=dist.E)
        done += m
    pi_hat = counts / samples
    se = np.sqrt(pi_hat * (1.0 - pi_hat) / samples)
    return pi_hat, se
