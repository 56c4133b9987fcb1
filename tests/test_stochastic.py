import math

import numpy as np
import pytest
from scipy import integrate

from alflb import stochastic
from alflb.core import RandomSource
from alflb.distributions import (
    AffinityDistributionSet,
    BetaScore,
    UniformScore,
)
from alflb.errors import InvalidRange, NoConvergence
from alflb.stochastic import (
    HESSIAN_RTOL,
    RATIO_SLACK,
    Z_BOUND,
    GradientMomentReport,
    RegretAccounting,
    check_gradient_moments,
    edge_weights_quadrature,
    expected_loss,
    expected_loss_minimizer,
    hessian_fd_errors,
    hessian_identity_holds,
    quadratic_form,
    regret_experiment,
    selection_moments,
    sigma_squared,
    strong_convexity_estimate,
)
from reference_quadrature import pi_monte_carlo


def test_sigma_squared_plugin():
    assert sigma_squared(8, 4, 2) == pytest.approx(64.0)
    assert sigma_squared(64, 8, 2) == pytest.approx(6144.0)
    assert sigma_squared(10, 5, 5) == pytest.approx(0.0)  # K=E is deterministic


def _pi(dist, p, K):
    """The quadrature selection probabilities alone."""
    return selection_moments(dist, p, K)[0]


class TestPiQuadrature:
    def test_two_identical_uniforms_symmetric(self):
        ds = AffinityDistributionSet((UniformScore(0.0, 1.0),) * 2)
        np.testing.assert_allclose(_pi(ds, np.zeros(2), 1), 0.5, atol=1e-8)

    def test_four_identical_betas_topk2(self):
        ds = AffinityDistributionSet((BetaScore(2.0, 2.0),) * 4)
        np.testing.assert_allclose(_pi(ds, np.zeros(4), 2), 0.5, atol=1e-8)

    def test_shifted_uniform_analytic(self):
        # P(U + d > U') = 1 - (1-d)^2/2 for two standard uniforms
        ds = AffinityDistributionSet((UniformScore(0.0, 1.0),) * 2)
        d = 0.3
        pi = _pi(ds, np.array([d, 0.0]), 1)
        assert pi[0] == pytest.approx(1.0 - (1.0 - d) ** 2 / 2.0, abs=1e-7)
        assert pi[1] == pytest.approx((1.0 - d) ** 2 / 2.0, abs=1e-7)

    def test_normalization(self):
        ds = AffinityDistributionSet(
            (BetaScore(2.0, 4.0), UniformScore(0.1, 0.8), BetaScore(3.0, 1.5))
        )
        for K in (1, 2):
            pi = _pi(ds, np.array([0.05, 0.0, -0.05]), K)
            assert abs(pi.sum() - K) <= 1e-6

    def test_matches_monte_carlo(self):
        ds = AffinityDistributionSet((UniformScore(0.0, 1.0),) * 3)
        p = np.array([0.2, 0.0, -0.2])
        pi_q = _pi(ds, p, 1)
        rng = RandomSource(42, 5).generator()
        pi_mc, se = pi_monte_carlo(ds, p, 1, samples=200_000, rng=rng)
        assert np.all(np.abs(pi_q - pi_mc) <= 4 * se)

    def test_thirty_experts_top_fifteen(self):
        # C(29, <=14) ~ 2.7e8 rival subsets per expert: far beyond subset
        # enumeration, a few recursion steps per node for Poisson-binomial
        E, K = 30, 15
        ds = AffinityDistributionSet((BetaScore(1.0, 1.0),) * E)
        p = np.zeros(E)
        pi_q = _pi(ds, p, K)
        assert abs(pi_q.sum() - K) <= 1e-9
        rng = RandomSource(44, 5).generator()
        pi_mc, se = pi_monte_carlo(ds, p, K, samples=100_000, rng=rng)
        assert np.all(np.abs(pi_q - pi_mc) <= 4 * se)

    def test_non_convergence_raises(self, monkeypatch):
        # a tolerance of 0 is never met; one doubling keeps the test short
        # (the rules of the last two doublings, 4,096 and 8,192 nodes, take
        # about 3 s to generate)
        monkeypatch.setattr(stochastic, "QUAD_MAX_DOUBLINGS", 1)
        monkeypatch.setattr(stochastic, "QUAD_TOL", 0.0)
        ds = AffinityDistributionSet((BetaScore(2.0, 2.0),) * 3)
        with pytest.raises(NoConvergence):
            _pi(ds, np.zeros(3), 1)

    def test_non_finite_estimate_raises_at_once(self):
        # no doubling can mend a NaN: the rule stops at its first estimate,
        # one integrand call on a single segment of 256 nodes
        calls = []

        def f(w):
            calls.append(w.size)
            return np.full(w.shape, np.nan)

        with pytest.raises(NoConvergence, match="not finite"):
            stochastic.piecewise_gauss_vec(f, 0.0, 1.0)
        assert calls == [256]

    @pytest.mark.parametrize("excess", [1e-6, -1e-6, np.nan])
    def test_out_of_range_pi_raises(self, monkeypatch, excess):
        # pi is range-checked before the clip: a quadrature that strays
        # past [0, 1] by more than 1e-9, or a NaN, must not be clipped
        # silently
        E = 3
        value = 1.0 + excess if excess > 0 else excess
        monkeypatch.setattr(
            stochastic, "piecewise_gauss_vec",
            lambda *args, **kw: np.full(2 * E, value),
        )
        ds = AffinityDistributionSet((BetaScore(2.0, 2.0),) * E)
        with pytest.raises(InvalidRange, match="selection probabilities"):
            selection_moments(ds, np.zeros(E), 1)

    def test_rounding_within_margin_is_clipped(self, monkeypatch):
        monkeypatch.setattr(
            stochastic, "piecewise_gauss_vec",
            lambda *args, **kw: np.array([1.0 + 1e-12, -1e-12, 0.5, 0.0]),
        )
        ds = AffinityDistributionSet((BetaScore(2.0, 2.0),) * 2)
        pi, _ = selection_moments(ds, np.zeros(2), 1)
        assert pi.tolist() == [1.0, 0.0]


class TestPiMonteCarlo:
    def test_sum_is_exactly_k(self):
        ds = AffinityDistributionSet((BetaScore(2.0, 2.0),) * 5)
        rng = RandomSource(3, 5).generator()
        pi, _ = pi_monte_carlo(ds, np.zeros(5), 2, samples=5000, rng=rng)
        assert pi.sum() == pytest.approx(2.0, abs=1e-12)

    def test_minimum_sample_count(self):
        ds = AffinityDistributionSet((BetaScore(2.0, 2.0),) * 2)
        with pytest.raises(InvalidRange):
            pi_monte_carlo(ds, np.zeros(2), 1, samples=10,
                           rng=np.random.default_rng(0))


class TestGradientMoments:
    def test_plugin_formulas_identical_dists(self):
        # E=4, K=2, T=8, p=0: pi = 0.5 so the variance formula gives
        # 8*(2 - 4*0.25) = 8 and the second moment 64*(1 - 1) + 8 = 8
        ds = AffinityDistributionSet((BetaScore(2.0, 2.0),) * 4)
        rng = RandomSource(4, 6).generator()
        report = check_gradient_moments(
            ds, np.zeros(4), 2, 8, replicas=4000, rng=rng
        )
        assert report.expected_var == pytest.approx(8.0, abs=1e-6)
        assert report.expected_second_moment == pytest.approx(8.0, abs=1e-6)
        np.testing.assert_allclose(report.expected_mean, 0.0, atol=1e-6)
        assert report.max_abs_z <= 4.0

    def test_heterogeneous_config(self):
        ds = AffinityDistributionSet(
            (BetaScore(2.0, 3.0), BetaScore(3.0, 2.0), UniformScore(0.1, 0.9))
        )
        rng = RandomSource(5, 6).generator()
        report = check_gradient_moments(
            ds, np.array([0.05, -0.05, 0.0]), 1, 12,
            replicas=4000, rng=rng,
        )
        assert report.max_abs_z <= 4.0


class TestEdgeWeights:
    def test_read_only_symmetric_array(self):
        ds = AffinityDistributionSet(
            (BetaScore(2.0, 3.0), BetaScore(3.0, 2.0), UniformScore(0.1, 0.9),
             BetaScore(2.5, 2.5))
        )
        w = edge_weights_quadrature(ds, np.array([0.02, -0.01, 0.0, -0.01]), 2)
        assert w.shape == (4, 4) and not w.flags.writeable
        assert np.array_equal(w, w.T)
        assert np.all(np.diag(w) == 0.0) and np.all(w >= 0.0)

    def test_quadratic_form_matches_double_loop(self):
        rng = np.random.default_rng(6)
        E = 5
        m = np.abs(rng.standard_normal((E, E)))
        m = 0.5 * (m + m.T)
        np.fill_diagonal(m, 0.0)
        delta = rng.standard_normal(E)
        want = sum(
            m[k, l] * (delta[k] - delta[l]) ** 2
            for k in range(E)
            for l in range(k + 1, E)
        )
        assert quadratic_form(m, delta) == pytest.approx(want, abs=1e-12)

    def test_zero_sum_identity_uniform_weights(self):
        # with all w_kl = 1 the form is sum_{k<l}(d_k-d_l)^2 = E ||d||^2
        # for zero-sum d
        rng = np.random.default_rng(7)
        for E in (2, 3, 5, 8):
            ones = np.ones((E, E)) - np.eye(E)
            for _ in range(20):
                d = rng.standard_normal(E)
                d -= d.mean()
                lhs = quadratic_form(ones, d)
                rhs = E * float(d @ d)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_two_expert_reduction(self):
        # E=2, K=1: the rival product is empty, so
        # w_01 = int phi_0(v - p_0) phi_1(v - p_1) dv
        ds = AffinityDistributionSet((BetaScore(2.0, 2.0), BetaScore(3.0, 1.5)))
        p = np.array([0.1, -0.1])
        w = edge_weights_quadrature(ds, p, 1)
        want, _ = integrate.quad(
            lambda v: ds.dists[0].pdf(v - p[0]) * ds.dists[1].pdf(v - p[1]),
            p[1], 1.0 + p[1], limit=200,
        )
        assert w[0, 1] == pytest.approx(want, rel=1e-6)
        assert w[0, 1] == w[1, 0]

    def test_finite_difference_identity(self):
        ds = AffinityDistributionSet(
            (BetaScore(2.0, 3.0), BetaScore(2.5, 2.5), BetaScore(3.0, 2.0),
             UniformScore(0.05, 0.95))
        )
        p = np.array([0.04, -0.02, 0.0, -0.02])
        K = 2
        w = edge_weights_quadrature(ds, p, K)
        rng = np.random.default_rng(8)
        h = 1e-3
        for _ in range(5):
            delta = rng.standard_normal(4)
            delta -= delta.mean()
            delta /= np.linalg.norm(delta)
            quad_form = quadratic_form(w, delta)
            plus = _pi(ds, p + h * delta, K)
            minus = _pi(ds, p - h * delta, K)
            fd = float(delta @ (plus - minus)) / (2 * h)
            assert quad_form == pytest.approx(fd, rel=1e-3)


class TestStrongConvexity:
    def test_kappa_one_is_singleton_domain(self):
        ds = AffinityDistributionSet((BetaScore(2.0, 2.0),) * 3)
        rng = np.random.default_rng(9)
        est = strong_convexity_estimate(ds, 1, kappa=1.0, T=8, grid_points=5, rng=rng)
        w0 = edge_weights_quadrature(ds, np.zeros(3), 1)
        assert est.c_hat == pytest.approx(w0[~np.eye(3, dtype=bool)].min(), abs=1e-12)
        assert est.mu == pytest.approx(8 * est.c_hat * 3)

    def test_positive_for_positive_densities(self):
        ds = AffinityDistributionSet((BetaScore(1.5, 1.5),) * 3)
        rng = np.random.default_rng(10)
        est = strong_convexity_estimate(ds, 1, kappa=0.7, T=8, grid_points=10, rng=rng)
        assert est.c_hat > 0.0

    def test_kappa_validated(self):
        ds = AffinityDistributionSet((BetaScore(2.0, 2.0),) * 2)
        with pytest.raises(InvalidRange):
            strong_convexity_estimate(ds, 1, kappa=0.0, T=8, grid_points=4,
                                      rng=np.random.default_rng(0))


class TestExpectedLossMinimizer:
    def test_loss_derives_the_target_load(self):
        # off the zero-sum subspace the loss reads L = K T / E through sum p,
        # which no iterate of the minimizer shows
        ds = AffinityDistributionSet(
            (BetaScore(2.0, 3.0), BetaScore(3.0, 2.0), UniformScore(0.1, 0.9))
        )
        p = np.array([0.1, -0.02, 0.05])
        K, T = 1, 8
        pi, value = expected_loss(ds, p, K, T)
        want_pi, f_k = selection_moments(ds, p, K)
        np.testing.assert_array_equal(pi, want_pi)
        assert value == T * f_k - (K * T / 3) * float(p.sum())
        assert value != T * f_k

    def test_identical_distributions_give_zero(self):
        ds = AffinityDistributionSet((BetaScore(2.0, 2.0),) * 4)
        p_star = expected_loss_minimizer(ds, 2, 8)
        assert np.abs(p_star).max() <= 1e-9

    def test_two_expert_equal_width_uniforms(self):
        # X1 ~ U(0.1, 0.9), X2 ~ U(0.2, 1.0): same width, offset 0.1, so
        # the biases must exactly cancel the offset: p* = (0.05, -0.05)
        ds = AffinityDistributionSet((UniformScore(0.1, 0.9), UniformScore(0.2, 1.0)))
        p_star = expected_loss_minimizer(ds, 1, 8)
        np.testing.assert_allclose(p_star, [0.05, -0.05], atol=1e-5)
        assert abs(p_star.sum()) <= 1e-12

    def test_first_order_condition(self):
        ds = AffinityDistributionSet(
            (BetaScore(2.0, 3.0), BetaScore(2.5, 2.5), BetaScore(3.0, 2.0))
        )
        T, K = 12, 1
        L = K * T / 3
        p_star = expected_loss_minimizer(ds, K, T)
        np.testing.assert_allclose(T * _pi(ds, p_star, K), L, atol=1e-6 * T)

    def test_minimum_beats_nearby_points(self):
        ds = AffinityDistributionSet((BetaScore(2.0, 4.0), BetaScore(4.0, 2.0)))
        T, K = 8, 1
        p_star = expected_loss_minimizer(ds, K, T)
        f_star = expected_loss(ds, p_star, K, T)[1]
        rng = np.random.default_rng(11)
        for _ in range(5):
            d = rng.standard_normal(2)
            d -= d.mean()
            d *= 0.05 / np.abs(d).max()
            f_near = expected_loss(ds, p_star + d, K, T)[1]
            assert f_near >= f_star - 1e-9


class TestRegretExperiment:
    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    def test_first_round_at_zero_minimizer_has_no_regret(self, K):
        # at round 1 the iterate is p = 0 = p*, and both sides route by
        # router.topk and score by router.lagrangian, so they give the same
        # loss exactly
        ds = AffinityDistributionSet((BetaScore(2.0, 2.0),) * 6)
        rng = RandomSource(14, 7).generator()
        acct = regret_experiment(
            ds, 16, K, mu=50.0, p_star=np.zeros(6),
            rounds=1, replicas=16, rng=rng,
        )
        assert acct.mean_cum_regret[0] == 0.0
        assert np.all(acct.final_per_replica == 0)

    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    def test_f_star_equals_value_only_partition(self, K, monkeypatch):
        # f* of each round, scored by router.lagrangian on router.topk's set,
        # against the sum of the K largest shifted scores read off a value
        # partition: the same cells added in another order, so equal to
        # 1e-14 * (1 + |f*|) for K > 1 and exactly for K = 1
        calls = []
        stochastic_lagrangian = stochastic.lagrangian

        def recording(gamma, chosen, p, L):
            f = stochastic_lagrangian(gamma, chosen, p, L)
            calls.append((gamma, p, L, f))
            return f

        monkeypatch.setattr(stochastic, "lagrangian", recording)
        ds = AffinityDistributionSet(
            (BetaScore(2.0, 2.0), UniformScore(0.1, 0.9), BetaScore(2.0, 5.0)) * 2
        )
        p_star = np.array([0.05, -0.02, 0.1, -0.08, 0.0, -0.05])
        regret_experiment(
            ds, 24, K, mu=50.0, p_star=p_star,
            rounds=3, replicas=16, rng=RandomSource(15, 7).generator(),
        )
        star = [(g, p, L, f) for g, p, L, f in calls if p.ndim == 1]
        assert len(star) == 3
        for block, ps, L, f_star in star:
            top = -np.partition(-(block + ps), K - 1, axis=2)[:, :, :K]
            want = top.sum(axis=(1, 2)) - L * ps.sum()
            if K == 1:
                np.testing.assert_array_equal(f_star, want)
            else:
                assert np.all(np.abs(f_star - want) <= 1e-14 * (1.0 + np.abs(want)))

    def test_start_at_optimum_gap_near_zero(self):
        ds = AffinityDistributionSet((BetaScore(2.0, 2.0),) * 4)
        T, K = 8, 2
        rng = RandomSource(12, 7).generator()
        acct = regret_experiment(
            ds, T, K, mu=1e6, p_star=np.zeros(4),
            rounds=100, replicas=64, rng=rng,
        )
        mean = float(acct.final_per_replica.mean())
        se = float(acct.final_per_replica.std(ddof=1)) / np.sqrt(64)
        assert abs(mean) <= 4 * se + 1e-6
        assert acct.sigma2 == pytest.approx(sigma_squared(T, 4, K))

    def test_bound_curve_shape(self):
        ds = AffinityDistributionSet((BetaScore(2.0, 2.0),) * 4)
        rng = RandomSource(13, 7).generator()
        acct = regret_experiment(
            ds, 8, 1, mu=50.0, p_star=np.zeros(4),
            rounds=50, replicas=8, rng=rng,
        )
        want = sigma_squared(8, 4, 1) / (2 * 50.0) * (1 + np.log(np.arange(1, 51)))
        np.testing.assert_allclose(acct.bound, want, atol=1e-12)
        assert acct.mean_cum_regret.shape == (50,)
        assert acct.mean_diam.shape == (50,)

    @pytest.mark.parametrize("mu", [0.0, -1.0, np.nan, np.inf])
    def test_mu_not_finite_and_positive_raises(self, mu):
        # the step 1/(mu n) and the bound sigma^2 / (2 mu) divide by it
        ds = AffinityDistributionSet((BetaScore(2.0, 2.0),) * 4)
        with pytest.raises(InvalidRange, match="mu must be finite and > 0") as exc:
            regret_experiment(
                ds, 8, 1, mu=mu, p_star=np.zeros(4), rounds=1, replicas=2,
                rng=np.random.default_rng(0),
            )
        assert exc.value.field == "mu"


def _above(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def _moment_report(mean_z=(0.0, 0.0), var_z=0.0, second_moment_z=0.0):
    zeros = np.zeros(2)
    return GradientMomentReport(
        pi=zeros, expected_mean=zeros, empirical_mean=zeros, mean_z=np.array(mean_z),
        expected_var=0.0, var_z=var_z, expected_second_moment=0.0,
        second_moment_z=second_moment_z,
    )


def _accounting(regret, bound):
    n = len(regret)
    return RegretAccounting(
        rounds=n, sigma2=1.0, mean_cum_regret=np.array(regret, dtype=np.float64),
        bound=np.array(bound, dtype=np.float64), mean_diam=np.zeros(n),
        s_n_proxy=np.zeros(n), diam_violations=0, final_per_replica=np.zeros(1),
    )


class TestVerdictRules:
    """A statistic at its threshold passes, the next double above it fails,
    and NaN fails."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize(
        "field,verdict",
        [("mean_z", "mean_unbiased"), ("var_z", "variance_formula"),
         ("second_moment_z", "second_moment_formula")],
    )
    def test_moment_rules(self, field, verdict, sign):
        def report(z):
            return _moment_report(**{field: (0.0, z) if field == "mean_z" else z})

        assert getattr(report(sign * Z_BOUND), verdict)
        assert not getattr(report(sign * _above(Z_BOUND)), verdict)
        assert not getattr(report(np.nan), verdict)
        # the other two verdicts do not read this z
        others = {"mean_unbiased", "variance_formula", "second_moment_formula"} - {verdict}
        assert all(getattr(report(np.nan), v) for v in others)
        assert np.isnan(report(np.nan).max_abs_z)
        assert report(sign * Z_BOUND).max_abs_z == Z_BOUND

    def test_hessian_rule(self):
        assert hessian_identity_holds(np.array([0.0, HESSIAN_RTOL]))
        assert not hessian_identity_holds(np.array([0.0, _above(HESSIAN_RTOL)]))
        assert not hessian_identity_holds(np.array([np.nan, 0.0]))

    def test_regret_bound_rule(self):
        for regret, ok in [(2.0, True), (_above(2.0), False), (np.nan, False)]:
            within, _ = _accounting([1.0, regret], [2.0, 2.0]).checkpoint_verdicts([2])
            assert within == {2: ok}

    def test_regret_ratio_rule(self):
        # checkpoint 1 has ratio R_1 / (1 + ln 1) = R_1; the largest R_5 whose
        # ratio R_5 / (1 + ln 5) is within R_1 (1 + RATIO_SLACK) passes
        def nonincreasing(r5):
            return _accounting([1.0, 0, 0, 0, r5], [1e9] * 5).checkpoint_verdicts([1, 5])[1]

        c = 1.0 + math.log(5)
        r5 = c * (1.0 + RATIO_SLACK)
        # the rule's own rounding may put the boundary a few doubles away
        for _ in range(4):
            if nonincreasing(r5):
                break
            r5 = float(np.nextafter(r5, -np.inf))
        for _ in range(4):
            if not nonincreasing(_above(r5)):
                break
            r5 = _above(r5)
        assert nonincreasing(r5) and not nonincreasing(_above(r5))
        # the boundary is R_1 (1 + RATIO_SLACK), above R_1 itself
        assert 1.0 < r5 / c <= 1.0 + RATIO_SLACK < _above(r5) / c
        assert not nonincreasing(np.nan)

    def test_regret_rule_skips_checkpoints_past_rounds(self):
        acct = _accounting([1.0, 1.5, 1.8], [2.0, 2.0, 2.0])
        within, nonincreasing = acct.checkpoint_verdicts([1, 3, 4, 100])
        assert within == {1: True, 3: True} and nonincreasing
        with pytest.raises(InvalidRange) as err:  # no vacuous pass
            acct.checkpoint_verdicts([4, 100])
        assert err.value.field == "checkpoints"


_BIAS_DS = AffinityDistributionSet(
    (BetaScore(2.0, 3.0), BetaScore(3.0, 2.0), UniformScore(0.1, 0.9))
)
_W3 = np.ones((3, 3)) - np.eye(3)
# Every public entry that takes a bias, called with that bias.
_BIAS_ENTRIES = {
    "selection_moments": lambda p: selection_moments(_BIAS_DS, p, 1),
    "edge_weights_quadrature": lambda p: edge_weights_quadrature(_BIAS_DS, p, 1),
    "check_gradient_moments": lambda p: check_gradient_moments(
        _BIAS_DS, p, 1, 8, replicas=10, rng=np.random.default_rng(0)
    ),
    "hessian_fd_errors": lambda p: hessian_fd_errors(
        _BIAS_DS, p, 1, _W3, np.random.default_rng(0), 1
    ),
    "expected_loss": lambda p: expected_loss(_BIAS_DS, p, 1, 8),
    "regret_experiment": lambda p: regret_experiment(
        _BIAS_DS, 8, 1, mu=50.0, p_star=p, rounds=1, replicas=2,
        rng=np.random.default_rng(0),
    ),
}


@pytest.mark.parametrize("entry", sorted(_BIAS_ENTRIES))
@pytest.mark.parametrize(
    "bad",
    [[0.0, np.nan, 0.0], [0.0, -np.inf, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
    ids=["nan", "inf", "short", "long"],
)
def test_bad_bias_rejected_at_every_entry(entry, bad):
    with pytest.raises(InvalidRange, match="bias"):
        _BIAS_ENTRIES[entry](np.array(bad))
