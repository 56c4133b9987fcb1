import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import roots_legendre

from alflb import distributions
from alflb.core import RandomSource
from alflb.distributions import (
    AffinityDistributionSet,
    BetaScore,
    MixtureScore,
    UniformScore,
)
from alflb.errors import InvalidRange, NoConvergence

EPS = np.finfo(np.float64).eps


class TestComponents:
    def test_beta_shapes_validated(self):
        with pytest.raises(InvalidRange):
            BetaScore(0.5, 2.0)
        BetaScore(1.0, 1.0)  # uniform limit is fine

    @pytest.mark.parametrize(
        "a,b", [(math.nan, 2.0), (2.0, math.nan), (math.inf, 2.0), (2.0, math.inf)]
    )
    def test_non_finite_beta_shape_rejected_first(self, monkeypatch, a, b):
        # a NaN shape passes a `< 1` check; either kind of shape would run
        # the continued fraction out to its 10,000-term cap
        def unreachable(*args):
            raise AssertionError("the continued fraction ran")

        monkeypatch.setattr(distributions, "_beta_terms", unreachable)
        with pytest.raises(InvalidRange, match="finite"):
            BetaScore(a, b)

    def test_uniform_interval_validated(self):
        with pytest.raises(InvalidRange):
            UniformScore(0.8, 0.2)
        with pytest.raises(InvalidRange):
            UniformScore(-0.1, 0.5)
        # 1 / (hi - lo) overflows to inf: the density is not finite
        with pytest.raises(InvalidRange, match="finite density"):
            UniformScore(0.0, 5e-324)

    def test_uniform_pdf_cdf(self):
        d = UniformScore(0.2, 0.8)
        assert d.pdf(np.array([0.5]))[0] == pytest.approx(1.0 / 0.6)
        assert d.pdf(np.array([0.1]))[0] == 0.0
        assert float(d.cdf(0.2)) == 0.0
        assert float(d.cdf(0.8)) == 1.0
        assert float(d.cdf(0.5)) == pytest.approx(0.5)

    def test_mixture_weights_validated(self):
        comps = (UniformScore(0.0, 0.5), UniformScore(0.5, 1.0))
        with pytest.raises(InvalidRange):
            MixtureScore(comps, (0.6, 0.6))
        with pytest.raises(InvalidRange):
            MixtureScore(comps, (1.0,))

    @pytest.mark.parametrize(
        "weights", [(math.nan, math.nan), (math.nan, 1.0), (0.5, math.nan), (math.inf, 1.0)]
    )
    def test_non_finite_mixture_weights_rejected(self, weights):
        comps = (BetaScore(2.0, 2.0), UniformScore(0.1, 0.9))
        with pytest.raises(InvalidRange, match="weights"):
            MixtureScore(comps, weights)

    def test_mixture_cdf_is_weighted_sum(self):
        mix = MixtureScore(
            (UniformScore(0.0, 0.4), BetaScore(2.0, 2.0)), (0.3, 0.7)
        )
        x = np.linspace(0.0, 1.0, 11)
        want = 0.3 * UniformScore(0.0, 0.4).cdf(x) + 0.7 * BetaScore(2.0, 2.0).cdf(x)
        np.testing.assert_allclose(mix.cdf(x), want, atol=1e-14)

    def test_breakpoints_merged(self):
        mix = MixtureScore(
            (UniformScore(0.1, 0.6), UniformScore(0.4, 0.9)), (0.5, 0.5)
        )
        assert mix.breakpoints() == (0.1, 0.4, 0.6, 0.9)


def _cdf_atol(a: float, b: float) -> float:
    """The cdf's absolute tolerance against ``scipy.stats.beta.cdf``, by
    the larger shape.  The error is the rounding of the prefactor
    exp(a log x + b log1p(-x) - ln B), which grows with the shapes; the
    largest seen over 3,000 random shape pairs in [1, 50] (each on 257 grid
    points, 64 random points and x* +- 3e-16) was 1.8e-15 for shapes up to
    3, 5.2e-15 up to 10 and 7.2e-14 up to 50, and 9.3e-13 at (1e3, 1e3) and
    3.3e-10 at (1e5, 1e5) on the oracle grid plus x*'s neighbourhood."""
    for bound, atol in ((3.0, 4e-15), (10.0, 1.5e-14), (50.0, 2e-13),
                        (1e3, 2e-12), (1e5, 1e-9)):
        if max(a, b) <= bound:
            return atol
    raise ValueError(f"no tolerance stated for Beta({a}, {b})")


def _branches_at(a: float, b: float, x: np.ndarray):
    """Both branches of ``BetaScore.cdf`` at the same points: the continued
    fraction of I_x(a, b) and 1 - I_{1-x}(b, a), each at its chosen depth."""
    ln_beta, lower, upper = distributions._beta_terms(a, b)
    r = np.exp(a * np.log(x) + b * np.log1p(-x) - ln_beta)
    return (r / (a * distributions._continued_fraction(lower, x)),
            1.0 - r / (b * distributions._continued_fraction(upper, 1.0 - x)))


class TestBetaOracle:
    """The numpy Beta density and cdf against ``scipy.stats.beta``, kept
    here as the oracle.

    Tolerance: the pdf agrees to rtol 1e-12 (the log-space form rounds the
    log density; the worst gap seen at these points is about 1.1e-13); the
    cdf, a continued fraction at a fixed depth per side, to the absolute
    tolerance ``_cdf_atol`` states per shape range.
    """

    SHAPES = [(1.0, 1.0), (1.0, 2.5), (2.5, 1.0), (1.01, 1.01), (1.5, 3.0),
              (2.2, 2.4), (10.0, 50.0)]
    INSIDE = np.concatenate([[0.0, 1.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-12,
                              np.nextafter(1.0, 0.0)],
                             np.linspace(0.0, 1.0, 4097)])
    OUTSIDE = np.array([-np.inf, -1e6, -1.0, -1e-12, -5e-324,
                        np.nextafter(1.0, 2.0), 1.0 + 1e-12, 2.0, 1e6, np.inf])

    @pytest.mark.parametrize("a,b", SHAPES)
    def test_pdf_matches_scipy_stats(self, a, b):
        got = BetaScore(a, b).pdf(self.INSIDE)
        want = stats.beta.pdf(self.INSIDE, a, b)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # the endpoints exactly: 0 where the density vanishes there
        assert (got[0] == 0.0) == (a > 1.0)
        assert (got[1] == 0.0) == (b > 1.0)

    @pytest.mark.parametrize("a,b", [(1.01, 1.01), (1.5, 3.0)])
    def test_pdf_at_the_smallest_subnormal(self, a, b):
        # scipy.stats flushes the density to 0 at x = 5e-324; the density
        # there is x^(a-1) / B(a, b) > 0 for these shapes
        x = 5e-324
        want = math.exp((a - 1.0) * math.log(x) - math.lgamma(a) - math.lgamma(b)
                        + math.lgamma(a + b))
        assert float(BetaScore(a, b).pdf(x)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("a,b", SHAPES)
    def test_pdf_is_zero_outside_support(self, a, b):
        got = BetaScore(a, b).pdf(self.OUTSIDE)
        assert np.array_equal(got, np.zeros_like(self.OUTSIDE))
        assert float(BetaScore(a, b).pdf(-0.5)) == 0.0

    @pytest.mark.parametrize("a,b", SHAPES + [(1e3, 1e3), (1e5, 1e5)])
    def test_cdf_matches_scipy_stats(self, a, b):
        x_star = (a + 1.0) / (a + b + 2.0)
        x = np.concatenate([self.INSIDE, x_star + np.linspace(-0.01, 0.01, 401)])
        got = BetaScore(a, b).cdf(x)
        want = stats.beta.cdf(x, a, b)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=_cdf_atol(a, b))

    @pytest.mark.parametrize("a,b", SHAPES)
    def test_cdf_is_exactly_0_and_1_outside_the_open_interval(self, a, b):
        d = BetaScore(a, b)
        below = np.concatenate([self.OUTSIDE[self.OUTSIDE < 0.0], [0.0, -0.0]])
        above = np.concatenate([self.OUTSIDE[self.OUTSIDE > 0.0], [1.0]])
        assert np.array_equal(d.cdf(below), np.zeros_like(below))
        assert np.array_equal(d.cdf(above), np.ones_like(above))
        assert float(d.cdf(0.0)) == 0.0 and float(d.cdf(1.0)) == 1.0

    @pytest.mark.parametrize("a,b", SHAPES)
    def test_cdf_is_nondecreasing(self, a, b):
        got = BetaScore(a, b).cdf(np.linspace(0.0, 1.0, 4097))
        assert np.all(np.diff(got) >= 0.0)

    @pytest.mark.parametrize("a,b", SHAPES + [(1e3, 1e3)])
    def test_cdf_branches_agree_at_and_beside_x_star(self, a, b):
        x_star = (a + 1.0) / (a + b + 2.0)
        x = np.array([np.nextafter(np.nextafter(x_star, 0.0), 0.0),
                      np.nextafter(x_star, 0.0), x_star,
                      np.nextafter(x_star, 1.0)])
        below, above = _branches_at(a, b, x)
        np.testing.assert_allclose(below, above, rtol=0.0, atol=_cdf_atol(a, b))
        # the cdf takes the lower branch strictly below x*, the upper from x* on
        got = BetaScore(a, b).cdf(x)
        assert np.array_equal(got, np.concatenate([below[:2], above[2:]]))
        np.testing.assert_allclose(got, stats.beta.cdf(x, a, b), rtol=0.0,
                                   atol=_cdf_atol(a, b))

    @given(a=st.floats(1.0, 50.0), b=st.floats(1.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_cdf_matches_scipy_stats_for_any_shapes(self, a, b):
        x_star = (a + 1.0) / (a + b + 2.0)
        x = np.concatenate([np.linspace(0.0, 1.0, 257),
                            x_star + np.arange(-3, 4) * EPS])
        got = BetaScore(a, b).cdf(x)
        np.testing.assert_allclose(got, stats.beta.cdf(x, a, b), rtol=0.0,
                                   atol=_cdf_atol(a, b))
        assert np.all(np.diff(got[:257]) >= 0.0)

    def test_nan_propagates(self):
        d = BetaScore(2.0, 3.0)
        assert np.isnan(d.pdf(np.nan)) and np.isnan(d.cdf(np.nan))
        got = d.cdf(np.array([0.2, np.nan, -1.0, 2.0]))
        assert np.isnan(got[1]) and not np.isnan(got[[0, 2, 3]]).any()

    def test_nan_propagates_through_the_uniform_shape(self):
        d = BetaScore(1.0, 1.0)
        assert np.isnan(d.pdf(np.nan)) and np.isnan(d.cdf(np.nan))
        got = d.cdf(np.array([0.2, np.nan, -1.0, 2.0]))
        assert np.isnan(got[1]) and not np.isnan(got[[0, 2, 3]]).any()

    def test_cdf_depth_search_is_capped(self):
        # the continued fraction needs about sqrt(a) terms at x*: 1,053 at
        # 1e6, past 10,000 at 1e12
        BetaScore(1e6, 1e6)
        with pytest.raises(NoConvergence, match="more than 10000 terms"):
            BetaScore(1e12, 1e12)
        with pytest.raises(InvalidRange, match="overflows"):
            BetaScore(1e306, 1.0)


class TestGaussLegendre:
    """The Newton rule of ``distributions._leggauss`` against
    ``scipy.special.roots_legendre``, kept here as the oracle for the nodes.
    Its weights are checked by what a Gauss rule must do: integrate x^k
    exactly for every k <= 2n - 1 (here to 8 eps; the worst seen is 9.2e-16,
    at 8,192 nodes) and sum to 2."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64, 128, 256, 512, 8192])
    def test_nodes_match_roots_legendre(self, n):
        x, w = distributions._leggauss(n)
        want, _ = roots_legendre(n)
        np.testing.assert_allclose(x, want, rtol=0.0, atol=2 * EPS)
        assert np.all(np.diff(x) > 0.0)
        # symmetric, with an exact 0 node for odd n
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert (n % 2 == 1) == (0.0 in x)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64, 128, 256, 512, 8192])
    def test_weights_integrate_every_monomial_of_degree_below_2n(self, n):
        x, w = distributions._leggauss(n)
        assert abs(w.sum() - 2.0) <= 2 * EPS
        power = np.ones_like(x)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(w @ power - exact) <= 8 * EPS, k
            power *= x


def _edges(seed: int, slivers: float) -> np.ndarray:
    """[a, b] cut at a few random points and, around each, at +- ``slivers``,
    as the shifted frame of the stochastic lab cuts at p_j and p_j + 1."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 0.5)
    b = a + rng.uniform(0.5, 1.5)
    centers = rng.uniform(a + 0.05, b - 0.05, size=3)
    cuts = np.concatenate([centers, centers - slivers, centers + slivers])
    return np.array([a, *sorted({c for c in cuts if a < c < b}), b])


class TestSegmentAllocation:
    """``_segment_counts``: a segment of width h of [a, b] gets the power of
    two at or above n sqrt(h / (b - a)) nodes, and at least n / 32."""

    @pytest.mark.parametrize("n", [256, 512, 8192])
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-0.3, 1.2), (0.25, 0.2500001)])
    def test_one_segment_keeps_n_nodes(self, n, a, b):
        edges = np.array([a, b])
        assert distributions._segment_counts(edges, n) == [n]
        x, w = distributions._leggauss(n)
        half = 0.5 * (b - a)
        nodes, weights = distributions._segment_nodes(edges, n)
        assert np.array_equal(nodes, 0.5 * (b + a) + half * x)
        assert np.array_equal(weights, half * w)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("slivers", [1e-2, 1e-3, 1e-9])
    def test_counts_follow_the_square_root_of_the_width(self, seed, slivers):
        edges = _edges(seed, slivers)
        share = np.diff(edges) / (edges[-1] - edges[0])
        n = 256
        counts = np.array(distributions._segment_counts(edges, n))
        for _ in range(distributions.QUAD_MAX_DOUBLINGS):
            target = n * np.sqrt(share)
            assert np.all((counts & (counts - 1)) == 0)  # powers of two
            assert np.all((counts >= n // 32) & (counts <= n))
            assert np.all(counts >= target)
            # the smallest such power of two
            assert np.all((counts == n // 32) | (counts / 2 < target))
            n *= 2
            doubled = np.array(distributions._segment_counts(edges, n))
            assert np.array_equal(doubled, 2 * counts)
            counts = doubled

    @pytest.mark.parametrize("seed", range(3))
    def test_nodes_fill_their_segments(self, seed):
        edges = _edges(seed, 1e-3)
        counts = distributions._segment_counts(edges, 512)
        nodes, weights = distributions._segment_nodes(edges, 512)
        assert nodes.size == weights.size == sum(counts)
        start = 0
        for lo, hi, m in zip(edges[:-1], edges[1:], counts):
            seg = slice(start, start + m)
            assert np.all((nodes[seg] > lo) & (nodes[seg] < hi))
            assert abs(weights[seg].sum() - (hi - lo)) <= 4 * EPS * (hi - lo)
            start += m

    def test_zero_width_interval_integrates_to_zeros(self):
        def f(x):
            return np.stack([np.ones_like(x), x])

        with np.errstate(all="raise"):
            got = distributions._gauss_legendre(
                f, 0.3, 0.3, (0.3,), distributions.QUAD_TOL,
                distributions.QUAD_MAX_DOUBLINGS,
            )
        assert np.array_equal(got, np.zeros(2))

    @pytest.mark.parametrize("c", [0.2, 0.4, 0.77])
    def test_endpoint_singularity_between_sliver_cuts(self, c):
        # |x - c|^1.5 has an endpoint singularity at c on both sides; the
        # cuts at c +- 0.01 leave two slivers beside it.  Nodes in
        # proportion to the width miss the closed form by 1.4e-12, the
        # square-root rule by about 1.4e-15.
        got = distributions._gauss_legendre(
            lambda x: np.abs(x - c) ** 1.5, 0.0, 1.0, (c - 0.01, c, c + 0.01),
            distributions.QUAD_TOL, distributions.QUAD_MAX_DOUBLINGS,
        )[0]
        exact = (c**2.5 + (1.0 - c) ** 2.5) / 2.5
        assert abs(got - exact) <= 1e-12


class TestDistributionSet:
    def test_validation_passes_for_proper_densities(self):
        AffinityDistributionSet(
            (BetaScore(2.0, 3.0), UniformScore(0.1, 0.9), BetaScore(1.5, 1.5))
        )

    def test_needs_two_experts(self):
        with pytest.raises(InvalidRange):
            AffinityDistributionSet((BetaScore(2.0, 2.0),))

    def test_nan_pdf_mass_rejected(self):
        class NanPdf(UniformScore):
            def pdf(self, x):
                return np.full(np.shape(x), np.nan)

        with pytest.raises(InvalidRange, match="mass nan"):
            AffinityDistributionSet((NanPdf(0.1, 0.9), UniformScore(0.1, 0.9)))

    def test_unconverged_mass_rejected(self, monkeypatch):
        # the full rule gives up on this spike too, after 8,192 nodes; one
        # doubling keeps the test short
        monkeypatch.setattr(distributions, "QUAD_MAX_DOUBLINGS", 1)
        with pytest.raises(InvalidRange, match="mass nan != 1: the quadrature did not converge"):
            AffinityDistributionSet((BetaScore(1e6, 1e6), BetaScore(2.0, 2.0)))

    def test_nan_cdf_endpoint_rejected(self):
        class NanCdf(UniformScore):
            def cdf(self, x):
                return np.full(np.shape(x), np.nan)

        with pytest.raises(InvalidRange, match="endpoints"):
            AffinityDistributionSet((NanCdf(0.1, 0.9), UniformScore(0.1, 0.9)))


class TestSampling:
    def test_column_means_in_ci(self):
        ds = AffinityDistributionSet((UniformScore(0.2, 0.8),) * 3)
        T = 100_000
        rng = RandomSource(0, stream=9).generator()
        values = ds.sample_matrix(T, rng)
        assert values.shape == (T, 3)
        se = (0.6 / np.sqrt(12.0)) / np.sqrt(T)
        assert np.all(np.abs(values.mean(axis=0) - 0.5) < 4 * se)

    def test_fixed_seed_reproduces(self):
        ds = AffinityDistributionSet((BetaScore(2.0, 5.0), UniformScore(0.1, 0.7)))
        a = ds.sample_matrix(64, RandomSource(7, 3).generator())
        b = ds.sample_matrix(64, RandomSource(7, 3).generator())
        np.testing.assert_array_equal(a, b)

    def test_draw_order_is_expert_by_expert(self):
        # one sample(rng, size) call per expert, expert 0 first, stacked on
        # the last axis; an int size gives the old column_stack of (T,) draws
        ds = AffinityDistributionSet((
            MixtureScore((UniformScore(0.0, 0.4), BetaScore(3.0, 2.0)), (0.3, 0.7)),
            BetaScore(2.0, 5.0),
            UniformScore(0.1, 0.7),
        ))
        m, T = 5, 7
        got = ds.sample_matrix((m, T), RandomSource(7, 3).generator())
        rng = RandomSource(7, 3).generator()
        want = np.stack([d.sample(rng, (m, T)) for d in ds.dists], axis=-1)
        assert got.shape == (m, T, 3)
        np.testing.assert_array_equal(got, want)

        got = ds.sample_matrix(T, RandomSource(8, 3).generator())
        rng = RandomSource(8, 3).generator()
        want = np.column_stack([d.sample(rng, (T,)) for d in ds.dists])
        assert got.shape == (T, 3)
        np.testing.assert_array_equal(got, want)

    def test_mixture_sampling_hits_both_components(self):
        mix = MixtureScore(
            (UniformScore(0.0, 0.3), UniformScore(0.7, 1.0)), (0.5, 0.5)
        )
        x = mix.sample(np.random.default_rng(2), 4000)
        lo = (x < 0.3).mean()
        assert 0.45 < lo < 0.55
        assert not np.any((x > 0.3) & (x < 0.7))

