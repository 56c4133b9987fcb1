import numpy as np
import pytest

from alflb.core import ProblemDims, RandomSource
from alflb.distributions import (
    AffinityDistributionSet,
    BetaScore,
    MixtureScore,
    UniformScore,
    identical,
    sample_affinities,
)
from alflb.errors import InvalidRange


class TestComponents:
    def test_beta_shapes_validated(self):
        with pytest.raises(InvalidRange):
            BetaScore(0.5, 2.0)
        BetaScore(1.0, 1.0)  # uniform limit is fine

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


class TestDistributionSet:
    def test_validation_passes_for_proper_densities(self):
        AffinityDistributionSet(
            (BetaScore(2.0, 3.0), UniformScore(0.1, 0.9), BetaScore(1.5, 1.5))
        )

    def test_needs_two_experts(self):
        with pytest.raises(InvalidRange):
            AffinityDistributionSet((BetaScore(2.0, 2.0),))

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_nan_pdf_mass_rejected(self):
        class NanPdf(UniformScore):
            def pdf(self, x):
                return np.full(np.shape(x), np.nan)

        with pytest.raises(InvalidRange, match="mass nan"):
            AffinityDistributionSet((NanPdf(0.1, 0.9), UniformScore(0.1, 0.9)))

    def test_nan_cdf_endpoint_rejected(self):
        class NanCdf(UniformScore):
            def cdf(self, x):
                return np.full(np.shape(x), np.nan)

        with pytest.raises(InvalidRange, match="endpoints"):
            AffinityDistributionSet((NanCdf(0.1, 0.9), UniformScore(0.1, 0.9)))

    def test_identical_helper(self):
        ds = identical(BetaScore(2.0, 2.0), 4)
        assert ds.E == 4


class TestSampling:
    def test_column_means_in_ci(self):
        ds = identical(UniformScore(0.2, 0.8), 3)
        dims = ProblemDims(T=100_000, E=3, K=1)
        rng = RandomSource(0, stream=9).generator()
        gamma = sample_affinities(ds, dims, rng)
        se = (0.6 / np.sqrt(12.0)) / np.sqrt(dims.T)
        assert np.all(np.abs(gamma.values.mean(axis=0) - 0.5) < 4 * se)

    def test_samples_strictly_inside_unit_interval(self):
        ds = identical(BetaScore(1.0, 6.0), 2)  # piles mass near 0
        dims = ProblemDims(T=5000, E=2, K=1)
        rng = RandomSource(1, stream=9).generator()
        gamma = sample_affinities(ds, dims, rng)
        assert gamma.values.min() > 0.0 and gamma.values.max() < 1.0

    def test_fixed_seed_reproduces(self):
        ds = AffinityDistributionSet((BetaScore(2.0, 5.0), UniformScore(0.1, 0.7)))
        dims = ProblemDims(T=64, E=2, K=1)
        a = sample_affinities(ds, dims, RandomSource(7, 3).generator())
        b = sample_affinities(ds, dims, RandomSource(7, 3).generator())
        np.testing.assert_array_equal(a.values, b.values)

    def test_expert_count_mismatch(self):
        ds = identical(BetaScore(2.0, 2.0), 3)
        with pytest.raises(InvalidRange):
            sample_affinities(ds, ProblemDims(T=4, E=2, K=1), np.random.default_rng(0))

    def test_mixture_sampling_hits_both_components(self):
        mix = MixtureScore(
            (UniformScore(0.0, 0.3), UniformScore(0.7, 1.0)), (0.5, 0.5)
        )
        x = mix.sample(np.random.default_rng(2), 4000)
        lo = (x < 0.3).mean()
        assert 0.45 < lo < 0.55
        assert not np.any((x > 0.3) & (x < 0.7))

