"""Per-expert affinity score distributions on (0, 1).

The quadrature routines need pointwise pdf / cdf evaluation at arbitrary
real arguments (scores get shifted by bias differences), closed-form-ish
cdfs, and knowledge of where the pdf is non-smooth so integrals can be
split at those points.  Beta components (shape parameters >= 1 so the
density stays bounded), sub-interval uniforms, and finite mixtures of the
two cover everything the experiments use.

The lab's one quadrature rule lives here too: piecewise Gauss-Legendre,
with nodes per segment in proportion to the square root of its width, all
doubled until two estimates agree.  A distribution set checks each
density's mass with it, and ``stochastic`` integrates its selection moments
and edge weights with it.

Everything here is numpy and ``math``: the Gauss-Legendre nodes come from
Newton's method on the Legendre recurrence, ln B(a, b) from ``math.lgamma``,
and the Beta cdf from its continued fraction, so no part of the lab loads
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidRange, NoConvergence

PDF_NORMALIZATION_TOL = 1e-6
# The quadrature rule: _QUAD_BASE_NODES nodes for a segment as wide as the
# whole interval, and fewer, down to a 32nd, for narrower ones
# (_segment_counts); doubled at most QUAD_MAX_DOUBLINGS times until two
# successive estimates agree to QUAD_TOL in every component.  The integrand
# sees at most _QUAD_BLOCK_NODES nodes per call, to bound its working set.
QUAD_TOL = 1e-8
QUAD_MAX_DOUBLINGS = 5
_QUAD_BASE_NODES = 256
_QUAD_BLOCK_NODES = 2048
# Newton's method stops once no node moves by more than _EPS; from
# Tricomi's guesses it takes 3 steps at 256 to 8,192 nodes.
_EPS = float(np.finfo(np.float64).eps)
_NEWTON_MAX_STEPS = 10
# The Beta cdf's continued fraction gives up beyond _CF_MAX_TERMS terms per
# side.  Beta(1e6, 1e6), far past what the quadrature can integrate, needs
# 1,053.
_CF_MAX_TERMS = 10_000


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_{n-1}(x), n >= 1, by the three-term recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}."""
    prev, cur = np.ones_like(x), x.copy()
    tmp = np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, cur, out=tmp)
        tmp *= (2 * k + 1) / (k + 1)
        prev *= k / (k + 1)
        np.subtract(tmp, prev, out=prev)
        prev, cur = cur, prev
    return cur, prev


@lru_cache(maxsize=32)
def _leggauss(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1], nodes ascending.

    Newton's method on P_n, evaluated by the three-term recurrence, from
    Tricomi's initial guesses (Hale & Townsend 2013, SIAM J. Sci. Comput.
    35), for the nonnegative nodes only: the rule is symmetric, so the
    negative half is their mirror image.  A node leaves the iteration once
    its step is at most ``_EPS``.  Each weight is 2 / ((1 - x^2) P_n'(x)^2),
    and the weights are rescaled to sum to exactly 2, as Hale and Townsend
    do.  The nodes match ``scipy.special.roots_legendre``'s to 2.2e-16 up to
    8,192 nodes; 8,192 nodes take about 0.17 s on a 2-vCPU Xeon.
    """
    m = n // 2
    k = np.arange(1, m + 1)
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n**3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)) * np.cos(theta)
    if n % 2:
        x = np.append(x, 0.0)  # P_n(0) = 0 exactly for odd n
    deriv = np.empty_like(x)
    todo = np.arange(x.size)
    for _ in range(_NEWTON_MAX_STEPS):
        xt = x[todo]
        pn, pm = _legendre(n, xt)
        d = n * (pm - xt * pn) / (1.0 - xt * xt)  # P_n'(xt)
        step = pn / d
        x[todo] = xt - step
        deriv[todo] = d
        todo = todo[np.abs(step) > _EPS]
        if not todo.size:
            break
    else:
        raise NoConvergence(f"Newton's method for {n} Gauss-Legendre nodes did not converge")
    w = 2.0 / ((1.0 - x * x) * deriv * deriv)
    nodes = np.concatenate([-x[:m], x[m:], x[:m][::-1]])
    weights = np.concatenate([w[:m], w[m:], w[:m][::-1]])
    return nodes, weights * (2.0 / weights.sum())


def _segment_counts(edges: np.ndarray, n: int) -> list[int]:
    """Nodes per segment of ``edges`` at n nodes for the whole interval
    [a, b]: a segment of width h gets the power of two at or above
    n sqrt(h / (b - a)), and never fewer than n / 32.

    Every cut is where some density has an |x - c|^alpha endpoint
    singularity, at which an m-node Gauss-Legendre rule errs by about
    C h^(alpha+1) m^(-2 alpha - 2); m ~ sqrt(h) keeps each segment at the
    longest one's error whatever alpha is.  For a power of two n, a single
    segment (a zero-width one too) gets exactly n, no segment more than n,
    and every count doubles with n.
    """
    total = float(edges[-1] - edges[0])
    if not total > 0.0:
        return [n] * (edges.size - 1)
    counts = []
    for h in np.diff(edges).tolist():
        target = n * math.sqrt(h / total)
        m = max(n // 32, 1)
        while m < target:
            m *= 2
        counts.append(m)
    return counts


def _segment_nodes(edges: np.ndarray, n: int):
    """Gauss-Legendre nodes/weights for every segment, concatenated in
    segment order, with ``_segment_counts(edges, n)`` nodes per segment."""
    counts = _segment_counts(edges, n)
    rules = [_leggauss(m) for m in counts]
    lo, hi = edges[:-1], edges[1:]
    half = np.repeat(0.5 * (hi - lo), counts)
    nodes = np.repeat(0.5 * (hi + lo), counts) + half * np.concatenate([x for x, _ in rules])
    weights = half * np.concatenate([w for _, w in rules])
    return nodes, weights


def _gauss_legendre(f, a: float, b: float, cuts, tol: float, max_doublings: int):
    """Integrate a vector-valued integrand f: (m,) -> (c, m) over [a, b],
    split at the ``cuts`` inside it, by Gauss-Legendre on every segment.
    It starts from ``_QUAD_BASE_NODES`` nodes for the whole width, spread
    over the segments by ``_segment_counts``, and doubles every segment's
    count until two successive estimates agree to ``tol``.

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
                f"quadrature estimate is not finite at {n} nodes per full-width segment"
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
        f"quadrature moved by {change:.3g} > tol {tol:.3g} "
        f"at {n} nodes per full-width segment"
    )


def _cf_coefficients(a: float, b: float) -> tuple[float, ...]:
    """The coefficients c_1, ..., c_n of the continued fraction
    I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) / (1 + c_1 x / (1 + c_2 x / ...))
    (Numerical Recipes, 3rd ed., section 6.4), last first.

    c_1 = -(a + b) / (a + 1), c_2m = m (b - m) / ((a + 2m - 1)(a + 2m)) and
    c_2m+1 = -(a + m)(a + b + m) / ((a + 2m)(a + 2m + 1)).  The depth n is
    where a forward modified-Lentz pass at x* = (a + 1) / (a + b + 2), the
    point of its side where the fraction converges slowest, moves by at most
    ``_EPS``; it takes O(sqrt(max(a, b))) terms.  Raises ``NoConvergence``
    past ``_CF_MAX_TERMS`` terms.
    """
    x = (a + 1.0) / (a + b + 2.0)
    coeffs = [-(a + b) / (a + 1.0)]
    d = 1.0 / _nonzero(1.0 + coeffs[0] * x)
    c = 1.0
    m = 0
    while len(coeffs) < _CF_MAX_TERMS:
        m += 1
        coeffs.append(m * (b - m) / ((a + 2 * m - 1.0) * (a + 2 * m)))
        coeffs.append(-(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1.0)))
        for cj in coeffs[-2:]:
            d = 1.0 / _nonzero(1.0 + cj * x * d)
            c = _nonzero(1.0 + cj * x / c)
            delta = c * d
        if abs(delta - 1.0) <= _EPS:
            return tuple(reversed(coeffs))
    raise NoConvergence(
        f"the Beta({a}, {b}) cdf's continued fraction needs more than {_CF_MAX_TERMS} terms"
    )


def _nonzero(v: float) -> float:
    """Lentz's guard: v, or 1e-300 where |v| is smaller."""
    return 1e-300 if abs(v) < 1e-300 else v


def _continued_fraction(backward: tuple[float, ...], y: np.ndarray) -> np.ndarray:
    """1 + c_1 y / (1 + c_2 y / (... (1 + c_n y))), evaluated from the last
    term back, in place: each term is one divide, multiply and add."""
    t = np.ones_like(y)
    for c in backward:
        np.divide(y, t, out=t)
        np.multiply(t, c, out=t)
        np.add(t, 1.0, out=t)
    return t


@lru_cache(maxsize=256)
def _beta_terms(a: float, b: float):
    """ln B(a, b) and the continued-fraction coefficients of I_x(a, b) below
    x* = (a + 1) / (a + b + 2) and of I_{1-x}(b, a) above it."""
    try:
        ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    except OverflowError:  # a shape above about 2.5e305
        raise InvalidRange(f"ln B({a}, {b}) overflows a float") from None
    return ln_beta, _cf_coefficients(a, b), _cf_coefficients(b, a)


@dataclass(frozen=True)
class BetaScore:
    """Beta(a, b) affinity scores; a, b >= 1 keeps the density bounded.

    Construction also picks the cdf's continued-fraction depths.  It raises
    ``NoConvergence`` for shapes that need more than ``_CF_MAX_TERMS`` terms,
    and ``InvalidRange`` where ln B(a, b) overflows.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (1.0 <= self.a < math.inf and 1.0 <= self.b < math.inf):
            raise InvalidRange(f"need finite beta shapes >= 1: ({self.a}, {self.b})")
        _beta_terms(self.a, self.b)

    def pdf(self, x):
        """x^(a-1) (1-x)^(b-1) / B(a, b) on [0, 1], in log space, and 0
        outside it; a NaN argument gives NaN.  A shape of exactly 1 drops its
        log term, so the density at 0 (a = 1) or 1 (b = 1) is finite and not
        exp(0 * -inf).

        Within 1e-12 relative of ``scipy.stats.beta.pdf`` for shapes up to
        100 (8.2e-13 at worst over 400 random shape pairs, in the far
        tails).  The log form loses
        digits as the shapes grow, about 1e-9 relative at a = b = 1e6, still
        far inside the 1e-6 mass tolerance of a distribution set.
        """
        x = np.asarray(x, dtype=np.float64)
        a, b = self.a, self.b
        with np.errstate(invalid="ignore", divide="ignore"):
            log_pdf = 0.0 * x - _beta_terms(a, b)[0]  # 0 * x keeps a NaN x NaN
            if a != 1.0:
                log_pdf = log_pdf + (a - 1.0) * np.log(x)
            if b != 1.0:
                log_pdf = log_pdf + (b - 1.0) * np.log1p(-x)
            return np.where((x < 0.0) | (x > 1.0), 0.0, np.exp(log_pdf))

    def cdf(self, x):
        """The regularized incomplete beta function I_x(a, b): exactly 0 for
        x <= 0 and 1 for x >= 1, NaN for NaN.

        Inside (0, 1), with r = x^a (1 - x)^b / B(a, b) = exp(a log x +
        b log1p(-x) - ln B): r / (a t) below x* = (a + 1) / (a + b + 2) and
        1 - r / (b t') above it, where t and t' are the continued fractions of
        ``_cf_coefficients`` for (a, b) at x and for (b, a) at 1 - x, each at
        the fixed depth picked for its side.  Largest absolute difference from
        ``scipy.stats.beta.cdf``: 1.8e-15 for shapes up to 3, 7.2e-14 up to
        50, 9.3e-13 at (1e3, 1e3) and 3.3e-10 at (1e5, 1e5); the rounding of
        r's exponent grows with the shapes.
        """
        ln_beta, lower, upper = _beta_terms(self.a, self.b)
        a, b = self.a, self.b
        x = np.asarray(x, dtype=np.float64)
        out = np.asarray(np.clip(x, 0.0, 1.0))  # 0-d stays an array
        inside = (out > 0.0) & (out < 1.0)
        v = out[inside]
        r = np.exp(a * np.log(v) + b * np.log1p(-v) - ln_beta)
        below = v < (a + 1.0) / (a + b + 2.0)
        above = ~below
        r[below] /= a * _continued_fraction(lower, v[below])
        r[above] = 1.0 - r[above] / (b * _continued_fraction(upper, 1.0 - v[above]))
        out[inside] = r
        return out

    def sample(self, rng: np.random.Generator, size):
        return rng.beta(self.a, self.b, size=size)

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
        if not (np.all(w > 0) and abs(w.sum() - 1.0) <= 1e-12):
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

    def breakpoints(self) -> tuple[float, ...]:
        pts: set[float] = set()
        for c in self.components:
            pts.update(c.breakpoints())
        return tuple(sorted(pts))


@dataclass(frozen=True)
class AffinityDistributionSet:
    """One score distribution per expert.

    Construction verifies support in (0, 1), read as each distribution's
    first and last breakpoint, cdf endpoints, nonnegative pdf and unit
    normalization (by the quadrature rule, to 1e-6).
    """

    dists: tuple

    def __post_init__(self):
        if len(self.dists) < 2:
            raise InvalidRange("need at least two experts")
        grid = np.linspace(0.0, 1.0, 1025)
        for k, d in enumerate(self.dists):
            cuts = d.breakpoints()
            if cuts[0] < 0.0 or cuts[-1] > 1.0:
                raise InvalidRange(f"expert {k}: support outside (0, 1)")
            # Compared as ``<= tol`` so that a NaN fails the check.
            ends = np.abs([float(d.cdf(0.0)), float(d.cdf(1.0)) - 1.0])
            if not np.all(ends <= 1e-12):
                raise InvalidRange(f"expert {k}: cdf endpoints not 0 / 1")
            if np.any(d.pdf(grid) < 0.0):
                raise InvalidRange(f"expert {k}: negative pdf")
            try:
                mass = float(_gauss_legendre(
                    d.pdf, 0.0, 1.0, cuts, QUAD_TOL, QUAD_MAX_DOUBLINGS,
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
