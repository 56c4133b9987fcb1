"""Per-expert affinity score distributions on (0, 1).

The quadrature routines need pointwise pdf / cdf evaluation at arbitrary
real arguments (scores get shifted by bias differences), closed-form-ish
cdfs, and knowledge of where the pdf is non-smooth so integrals can be
split at those points.  Beta components (shape parameters >= 1 so the
density stays bounded), sub-interval uniforms, and finite mixtures of the
two cover everything the experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate, stats

from .core import AffinityMatrix, ProblemDims
from .errors import InvalidRange

PDF_NORMALIZATION_TOL = 1e-6


@dataclass(frozen=True)
class BetaScore:
    """Beta(a, b) affinity scores; a, b >= 1 keeps the density bounded."""

    a: float
    b: float

    def __post_init__(self):
        if self.a < 1.0 or self.b < 1.0:
            raise InvalidRange("beta shapes must be >= 1 for a bounded density")

    def pdf(self, x):
        return stats.beta.pdf(x, self.a, self.b)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return stats.beta.cdf(np.clip(x, 0.0, 1.0), self.a, self.b)

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
    and unit normalization (numerically, to 1e-6).
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
            mass, _ = integrate.quad(
                lambda x: float(d.pdf(x)), 0.0, 1.0,
                points=sorted(set(d.breakpoints())), limit=200,
            )
            if not abs(mass - 1.0) <= PDF_NORMALIZATION_TOL:
                raise InvalidRange(f"expert {k}: pdf mass {mass} != 1")

    @property
    def E(self) -> int:
        return len(self.dists)

    def sample_matrix(self, T: int, rng: np.random.Generator) -> np.ndarray:
        """Raw T x E sample, column k drawn i.i.d. from distribution k."""
        cols = [d.sample(rng, (T,)) for d in self.dists]
        return np.column_stack(cols)


def identical(dist, E: int) -> AffinityDistributionSet:
    return AffinityDistributionSet(tuple([dist] * E))


def sample_affinities(
    dist: AffinityDistributionSet, dims: ProblemDims, rng: np.random.Generator
) -> AffinityMatrix:
    """T x E affinity draw wrapped as an AffinityMatrix.

    Samples are nudged off the exact endpoints to satisfy the strict (0, 1)
    container invariant; the shift is far below any tolerance in use.
    """
    if dims.E != len(dist.dists):
        raise InvalidRange(f"dims.E={dims.E} != {len(dist.dists)} distributions")
    values = dist.sample_matrix(dims.T, rng)
    values = np.clip(values, 1e-15, 1.0 - 1e-15)
    return AffinityMatrix(dims, values)
