"""Per-expert affinity score distributions on (0, 1).

The quadrature routines need pointwise pdf / cdf evaluation at arbitrary
real arguments (scores get shifted by bias differences), closed-form-ish
cdfs, and knowledge of where the pdf is non-smooth so integrals can be
split at those points.  Beta components (shape parameters >= 1 so the
density stays bounded), sub-interval uniforms, and finite mixtures of the
two cover everything the experiments use.

The lab's one quadrature rule lives here too: piecewise Gauss-Legendre,
doubling the nodes per segment until two estimates agree.  A distribution
set checks each density's mass with it, and ``stochastic`` integrates its
selection moments and edge weights with it.

Only ``scipy.special`` is used, imported inside the functions that need it
(the Beta density and cdf, and the Gauss-Legendre nodes), so the fixed-score
lab, which never builds a score distribution, never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidRange, NoConvergence

PDF_NORMALIZATION_TOL = 1e-6
# The quadrature rule: _QUAD_BASE_NODES nodes per segment, doubled at most
# QUAD_MAX_DOUBLINGS times until two successive estimates agree to QUAD_TOL
# in every component; the integrand sees at most _QUAD_BLOCK_NODES nodes per
# call, to bound its working set.
QUAD_TOL = 1e-8
QUAD_MAX_DOUBLINGS = 5
_QUAD_BASE_NODES = 256
_QUAD_BLOCK_NODES = 2048


@lru_cache(maxsize=32)
def _leggauss(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1].  scipy takes the nodes
    from the banded (tridiagonal) Jacobi matrix; numpy's ``leggauss`` solves
    a dense eigenproblem and takes seconds at 4,096 nodes, which a
    quadrature that does not converge reaches before it raises."""
    from scipy.special import roots_legendre

    return roots_legendre(n)


def _segment_nodes(edges: np.ndarray, n: int):
    """Gauss-Legendre nodes/weights for every segment, concatenated."""
    x, w = _leggauss(n)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo) + half * x[None, :]).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights


def _gauss_legendre(f, a: float, b: float, cuts, tol: float, max_doublings: int):
    """Integrate a vector-valued integrand f: (m,) -> (c, m) over [a, b],
    split at the ``cuts`` inside it, by Gauss-Legendre on every segment with
    the node count doubled until two successive estimates agree to ``tol``.

    Raises ``NoConvergence`` when the doublings run out, and at the first
    estimate that is not finite, which no doubling can mend.
    """
    interior = sorted({c for c in cuts if a < c < b})
    edges = np.array([a, *interior, b])

    def estimate(n: int) -> np.ndarray:
        nodes, weights = _segment_nodes(edges, n)
        est = sum(
            np.atleast_2d(f(nodes[i : i + _QUAD_BLOCK_NODES]))
            @ weights[i : i + _QUAD_BLOCK_NODES]
            for i in range(0, nodes.size, _QUAD_BLOCK_NODES)
        )
        if not np.all(np.isfinite(est)):
            raise NoConvergence(
                f"quadrature estimate is not finite at {n} nodes per segment"
            )
        return est

    n = _QUAD_BASE_NODES
    prev = estimate(n)
    for _ in range(max_doublings):
        n *= 2
        cur = estimate(n)
        change = float(np.max(np.abs(cur - prev)))
        if change < tol:
            return cur
        prev = cur
    raise NoConvergence(
        f"quadrature moved by {change:.3g} > tol {tol:.3g} at {n} nodes per segment"
    )


@dataclass(frozen=True)
class BetaScore:
    """Beta(a, b) affinity scores; a, b >= 1 keeps the density bounded."""

    a: float
    b: float

    def __post_init__(self):
        if self.a < 1.0 or self.b < 1.0:
            raise InvalidRange("beta shapes must be >= 1 for a bounded density")

    def pdf(self, x):
        """x^(a-1) (1-x)^(b-1) / B(a, b) on [0, 1], in log space, and 0
        outside it; a NaN argument gives NaN.

        Within 1e-12 relative of scipy's generic Beta density for shapes up to
        100 (about 6e-13 at worst, in the far tails).  The log form loses
        digits as the shapes grow: it differs by about 7e-10 relative at
        a = b = 1e5 and 1.4e-9 at 1e6, still far inside the 1e-6 mass
        tolerance of a distribution set.
        """
        from scipy import special

        x = np.asarray(x, dtype=np.float64)
        a, b = self.a, self.b
        with np.errstate(invalid="ignore", divide="ignore"):
            log_pdf = (
                special.xlogy(a - 1.0, x) + special.xlog1py(b - 1.0, -x)
                - special.betaln(a, b)
            )
            return np.where((x < 0.0) | (x > 1.0), 0.0, np.exp(log_pdf))

    def cdf(self, x):
        """The regularized incomplete beta function I_x(a, b), x clipped to
        [0, 1]."""
        from scipy import special

        x = np.asarray(x, dtype=np.float64)
        return special.betainc(self.a, self.b, np.clip(x, 0.0, 1.0))

    def sample(self, rng: np.random.Generator, size):
        return rng.beta(self.a, self.b, size=size)

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def breakpoints(self) -> tuple[float, ...]:
        return (0.0, 1.0)


@dataclass(frozen=True)
class UniformScore:
    """Uniform scores on a sub-interval of (0, 1)."""

    lo: float
    hi: float

    def __post_init__(self):
        width = self.hi - self.lo
        if not (0.0 <= self.lo < self.hi <= 1.0 and np.isfinite(1.0 / width)):
            raise InvalidRange(
                f"need 0 <= lo < hi <= 1 and a finite density 1/(hi - lo), "
                f"got ({self.lo}, {self.hi})"
            )

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def sample(self, rng: np.random.Generator, size):
        return rng.uniform(self.lo, self.hi, size=size)

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def breakpoints(self) -> tuple[float, ...]:
        return (self.lo, self.hi)


@dataclass(frozen=True)
class MixtureScore:
    """Finite mixture of Beta / uniform components."""

    components: tuple
    weights: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if len(self.components) != len(w) or len(w) == 0:
            raise InvalidRange("components and weights must match and be nonempty")
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise InvalidRange("weights must be positive and sum to 1")

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x, dtype=np.float64)
        for c, w in zip(self.components, self.weights):
            out = out + w * c.pdf(x)
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x, dtype=np.float64)
        for c, w in zip(self.components, self.weights):
            out = out + w * c.cdf(x)
        return out

    def sample(self, rng: np.random.Generator, size):
        size = (size,) if np.isscalar(size) else tuple(size)
        which = rng.choice(len(self.components), size=size, p=list(self.weights))
        out = np.empty(size, dtype=np.float64)
        for idx, c in enumerate(self.components):
            mask = which == idx
            cnt = int(mask.sum())
            if cnt:
                out[mask] = c.sample(rng, cnt)
        return out

    @property
    def support(self) -> tuple[float, float]:
        los, his = zip(*(c.support for c in self.components))
        return (min(los), max(his))

    def breakpoints(self) -> tuple[float, ...]:
        pts: set[float] = set()
        for c in self.components:
            pts.update(c.breakpoints())
        return tuple(sorted(pts))


@dataclass(frozen=True)
class AffinityDistributionSet:
    """One score distribution per expert.

    Construction verifies support in (0, 1), cdf endpoints, nonnegative pdf
    and unit normalization (by the quadrature rule, to 1e-6).
    """

    dists: tuple

    def __post_init__(self):
        if len(self.dists) < 2:
            raise InvalidRange("need at least two experts")
        grid = np.linspace(0.0, 1.0, 1025)
        for k, d in enumerate(self.dists):
            lo, hi = d.support
            if lo < 0.0 or hi > 1.0:
                raise InvalidRange(f"expert {k}: support outside (0, 1)")
            # Compared as ``<= tol`` so that a NaN fails the check.
            ends = np.abs([float(d.cdf(0.0)), float(d.cdf(1.0)) - 1.0])
            if not np.all(ends <= 1e-12):
                raise InvalidRange(f"expert {k}: cdf endpoints not 0 / 1")
            if np.any(d.pdf(grid) < 0.0):
                raise InvalidRange(f"expert {k}: negative pdf")
            try:
                mass = float(_gauss_legendre(
                    d.pdf, 0.0, 1.0, d.breakpoints(), QUAD_TOL, QUAD_MAX_DOUBLINGS,
                )[0])
            except NoConvergence as exc:
                raise InvalidRange(
                    f"expert {k}: pdf mass nan != 1: the quadrature did not converge ({exc})"
                ) from exc
            if not abs(mass - 1.0) <= PDF_NORMALIZATION_TOL:
                raise InvalidRange(f"expert {k}: pdf mass {mass} != 1")

    @property
    def E(self) -> int:
        return len(self.dists)

    def sample_matrix(self, size, rng: np.random.Generator) -> np.ndarray:
        """Raw (*size, E) sample: one ``sample(rng, size)`` call per expert,
        expert 0 first, so column k is i.i.d. from distribution k."""
        return np.stack([d.sample(rng, size) for d in self.dists], axis=-1)
