"""Online / stochastic machinery.

Selection probabilities and expected routed value by piecewise
Gauss-Legendre quadrature in the shifted-score frame, with the rival counts
as Poisson-binomial tails, Monte Carlo verification of the gradient moment
formulas, Hessian edge weights with the strong-convexity estimate, the
expected-loss minimizer, and the logarithmic-regret experiment.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .balancer import project_zero_sum
from .distributions import (
    QUAD_MAX_DOUBLINGS, QUAD_TOL, AffinityDistributionSet, _gauss_legendre,
)
from .errors import InvalidRange, NoConvergence
from .router import lagrangian, loads, topk

MOMENT_BATCH = 512       # replicas per check_gradient_moments block
SAMPLE_AHEAD = 2         # score blocks drawn ahead of the block being routed
MINIMIZER_MAX_ITER = 500
# The verdict rules.  A Monte Carlo moment agrees with its formula when its
# z-score is at most Z_BOUND in absolute value; the Hessian identity holds
# when every relative error is at most HESSIAN_RTOL; the regret ratio
# R_n / (1 + ln n) must not grow from one checkpoint to the next by more
# than the relative RATIO_SLACK.  NaN fails every rule.
Z_BOUND = 4.0
HESSIAN_RTOL = 1e-3
RATIO_SLACK = 1e-9
# The central-difference step of the Hessian check.
FD_STEP = 1e-3


def sigma_squared(T: int, E: int, K: int) -> float:
    """Worst-case squared gradient norm T^2 (K - K^2/E)."""
    return T * T * (K - K * K / E)


def check_kappa(kappa: float) -> float:
    """The diameter margin kappa must lie in (0, 1]."""
    if not (0.0 < kappa <= 1.0):
        raise InvalidRange(f"kappa must lie in (0, 1], got {kappa}", field="kappa")
    return kappa


def _bias(p, E: int) -> np.ndarray:
    """A bias vector from a caller: a finite float array of shape (E,)."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (E,):
        raise InvalidRange(f"bias must have shape ({E},), got {p.shape}")
    if not np.isfinite(p).all():
        raise InvalidRange("bias entries must be finite")
    return p


def _sampled_blocks(dist: AffinityDistributionSet, sizes, rng: np.random.Generator):
    """Yield ``dist.sample_matrix(size, rng)`` for each size in ``sizes``, in
    order, drawn on one worker thread up to SAMPLE_AHEAD blocks ahead of the
    block the caller holds.

    The worker makes the serial loop's ``rng`` calls, in its order and no
    more, so the blocks and, once the last block is yielded, the state of
    ``rng`` are the serial loop's.  numpy's generators fill their output with
    the interpreter lock released, so the caller's routing overlaps the
    draws.  The caller must not use ``rng`` until the generator is exhausted
    or closed.  A draw's exception is raised at its block, and closing the
    generator, or any exit from it, cancels the queued draws and joins the
    worker.
    """
    from concurrent.futures import ThreadPoolExecutor  # loads threads only on use

    pool = ThreadPoolExecutor(1)
    try:
        draws = (pool.submit(dist.sample_matrix, size, rng) for size in sizes)
        pending = deque(islice(draws, SAMPLE_AHEAD))
        while pending:
            block = pending.popleft().result()
            pending.extend(islice(draws, 1))
            yield block
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# Quadrature plumbing
# ---------------------------------------------------------------------------

def piecewise_gauss_vec(f, a: float, b: float, cuts=()):
    """Integrate a vector-valued integrand f: (m,) -> (c, m) over [a, b].

    The interval is split at ``cuts`` (pdf / cdf kinks) and each segment is
    integrated with the lab's Gauss-Legendre rule, with nodes per segment
    in proportion to the square root of its width
    (``distributions._segment_counts``), every count doubled at most
    ``QUAD_MAX_DOUBLINGS`` times until two successive estimates agree to
    ``QUAD_TOL`` in every component; raises ``NoConvergence`` when the
    doublings run out or an estimate is not finite.

    The stochastic lab integrates only through this name, and reads both
    constants here at each call, so replacing or counting it touches
    neither the rule nor the mass check of a distribution set.
    """
    return _gauss_legendre(f, a, b, cuts, QUAD_TOL, QUAD_MAX_DOUBLINGS)


def _shifted_frame(dist: AffinityDistributionSet, p: np.ndarray):
    """Range and cuts in the shifted frame w = v + p_j: every expert's
    shifted support, cut at its shifted breakpoints and at p_j, p_j + 1."""
    cuts = set()
    for d, pj in zip(dist.dists, p):
        cuts.update(bp + pj for bp in d.breakpoints())
        cuts.update((pj, pj + 1.0))
    return float(p.min()), float(p.max()) + 1.0, cuts


def _shifted_densities(dist: AffinityDistributionSet, p: np.ndarray, w: np.ndarray):
    """Rows pdf_j(w - p_j) and cdf_j(w - p_j) = P(X_j + p_j <= w), (E, m)."""
    pdf = np.stack([d.pdf(w - pj) for d, pj in zip(dist.dists, p)])
    cdf = np.stack([d.cdf(w - pj) for d, pj in zip(dist.dists, p)])
    return pdf, cdf


def _leave_one_out_tails(cdf: np.ndarray, K: int):
    """For each row i of ``cdf`` (n, m), the probabilities that at most and
    exactly K-1 of the other rows exceed the node (row j with 1 - cdf[j]):
    the Poisson-binomial count recursion, truncated to r < K, over prefixes
    and suffixes, joined around row i (Hong 2013, CSDA 59).
    """
    n, m = cdf.shape
    comp = 1.0 - cdf

    def running(order):
        out = np.zeros((n + 1, K, m))
        out[0, 0] = 1.0
        for s, j in enumerate(order):
            np.multiply(out[s], cdf[j], out=out[s + 1])
            out[s + 1, 1:] += out[s, :-1] * comp[j]
        return out

    before = running(range(n))[:n]                      # before[i]: rows < i
    after = running(range(n - 1, -1, -1))[n - 1 :: -1]  # after[i]: rows > i
    at_most = np.zeros((n, m))
    exactly = np.zeros((n, m))
    tail = np.zeros((n, m))  # P(at most s of the rows after i exceed)
    for s in range(K):
        tail += after[:, s]
        at_most += before[:, K - 1 - s] * tail
        exactly += before[:, K - 1 - s] * after[:, s]
    return at_most, exactly


# ---------------------------------------------------------------------------
# Selection probabilities
# ---------------------------------------------------------------------------

def selection_moments(
    dist: AffinityDistributionSet, p: np.ndarray, K: int
) -> tuple[np.ndarray, float]:
    """Quadrature (pi(p), F_K(p)): the per-expert probabilities (E,) of
    landing in the Top-K set, and the expected routed Top-K value F_K of a
    single token.

    In the shifted frame w, pi_k = int pdf_k(w - p_k) Q_k(w) dw and expert
    k adds int w pdf_k(w - p_k) Q_k(w) dw to F_K, where Q_k(w) is the
    probability that at most K-1 rivals' shifted scores exceed w.  All 2E
    integrals share one node set.  A pi_k outside [0, 1] by more than 1e-9,
    or NaN, raises; the rounding within that margin is clipped.
    """
    E = dist.E
    p = _bias(p, E)

    def f(w: np.ndarray) -> np.ndarray:
        pdf, cdf = _shifted_densities(dist, p, w)
        base = pdf * _leave_one_out_tails(cdf, K)[0]
        return np.concatenate([base, w * base])

    a, b, cuts = _shifted_frame(dist, p)
    rows = piecewise_gauss_vec(f, a, b, cuts)
    pi = rows[:E]
    if not np.all((pi >= -1e-9) & (pi <= 1.0 + 1e-9)):
        raise InvalidRange("selection probabilities must lie in [0, 1]")
    return np.clip(pi, 0.0, 1.0), float(rows[E:].sum())


# ---------------------------------------------------------------------------
# Gradient moment verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientMomentReport:
    pi: np.ndarray
    expected_mean: np.ndarray
    empirical_mean: np.ndarray
    mean_z: np.ndarray
    expected_var: float
    var_z: float
    expected_second_moment: float
    second_moment_z: float

    @property
    def max_abs_z(self) -> float:
        """The largest |z| of the three moments; NaN if any z is NaN."""
        return float(np.max(np.abs(
            np.append(self.mean_z, (self.var_z, self.second_moment_z))
        )))

    @property
    def mean_unbiased(self) -> bool:
        return bool(np.all(np.abs(self.mean_z) <= Z_BOUND))

    @property
    def variance_formula(self) -> bool:
        return bool(abs(self.var_z) <= Z_BOUND)

    @property
    def second_moment_formula(self) -> bool:
        return bool(abs(self.second_moment_z) <= Z_BOUND)


def check_gradient_moments(
    dist: AffinityDistributionSet,
    p: np.ndarray,
    K: int,
    T: int,
    replicas: int,
    rng: np.random.Generator,
) -> GradientMomentReport:
    """Monte Carlo check of the mean / variance / second-moment formulas
    against quadrature selection probabilities.  z-scores use the empirical
    replica spread; a spread of 0, where a z-score is undefined, raises
    ``InvalidRange`` with field ``replicas``.  Replicas are drawn
    MOMENT_BATCH at a time, each block expert by expert, so the draws depend
    on MOMENT_BATCH.  The blocks are drawn on one worker thread while the
    caller's thread routes earlier ones; the draws, and the state ``rng`` is
    left in, are those of drawing each block just before routing it.  No
    other thread may use ``rng`` during the call.
    """
    E = dist.E
    L = K * T / E
    p = _bias(p, E)
    pi = selection_moments(dist, p, K)[0]
    grad_mean = T * pi - L
    sum_sq = float(np.square(pi).sum())
    expected_var = T * (K - sum_sq)
    expected_second = T * T * (sum_sq - K * K / E) + expected_var

    g_all = np.empty((replicas, E))
    sizes = [(min(MOMENT_BATCH, replicas - done), T) for done in range(0, replicas, MOMENT_BATCH)]
    done = 0
    with closing(_sampled_blocks(dist, sizes, rng)) as blocks:
        for block in blocks:
            m = len(block)
            g_all[done : done + m] = loads(topk(block + p, K)[0], E) - L
            done += m

    emp_mean = g_all.mean(axis=0)
    mean_se = g_all.std(axis=0, ddof=1) / math.sqrt(replicas)
    dev_sq = np.square(g_all - grad_mean).sum(axis=1)
    var_se = float(dev_sq.std(ddof=1)) / math.sqrt(replicas)
    norm_sq = np.square(g_all).sum(axis=1)
    second_se = float(norm_sq.std(ddof=1)) / math.sqrt(replicas)
    if not (np.all(mean_se > 0.0) and var_se > 0.0 and second_se > 0.0):
        raise InvalidRange(
            f"the {replicas} replicas have a zero spread in a gradient moment, "
            "so its z-score is undefined",
            field="replicas",
        )

    mean_z = (emp_mean - grad_mean) / mean_se
    var_z = (float(dev_sq.mean()) - expected_var) / var_se
    second_z = (float(norm_sq.mean()) - expected_second) / second_se

    return GradientMomentReport(
        pi=pi,
        expected_mean=grad_mean,
        empirical_mean=emp_mean,
        mean_z=mean_z,
        expected_var=expected_var,
        var_z=float(var_z),
        expected_second_moment=expected_second,
        second_moment_z=float(second_z),
    )


# ---------------------------------------------------------------------------
# Hessian edge weights and strong convexity
# ---------------------------------------------------------------------------

def quadratic_form(w: np.ndarray, delta: np.ndarray) -> float:
    """sum_{k<l} w_kl (delta_k - delta_l)^2 of edge weights w (E, E), via
    the graph Laplacian."""
    lap = np.diag(w.sum(axis=1)) - w
    return float(delta @ lap @ delta)


def edge_weights_quadrature(
    dist: AffinityDistributionSet, p: np.ndarray, K: int
) -> np.ndarray:
    """Pairwise Hessian weights w_kl = int phi_k(v-p_k) phi_l(v-p_l)
    B^(K-1)(v) dv, where B^(K-1) is the probability that exactly K-1 of the
    other experts exceed v, as a read-only symmetric (E, E) array with a
    zero diagonal and entries >= 0.  All E(E-1)/2 integrals share one node
    set.
    """
    E = dist.E
    p = _bias(p, E)
    rows_k, rows_l = np.triu_indices(E, 1)

    def f(w: np.ndarray) -> np.ndarray:
        pdf, cdf = _shifted_densities(dist, p, w)
        rows = []
        for k in range(E - 1):
            # leaving rival l > k (index l - 1) out of the rivals of k
            exactly = _leave_one_out_tails(np.delete(cdf, k, axis=0), K)[1]
            rows.append(pdf[k] * pdf[k + 1 :] * exactly[k:])
        return np.concatenate(rows)

    a, b, cuts = _shifted_frame(dist, p)
    vals = np.maximum(piecewise_gauss_vec(f, a, b, cuts), 0.0)
    w = np.zeros((E, E))
    w[rows_k, rows_l] = w[rows_l, rows_k] = vals
    w.flags.writeable = False
    return w


def hessian_fd_errors(
    dist: AffinityDistributionSet, p: np.ndarray, K: int, weights: np.ndarray,
    rng: np.random.Generator, directions: int,
) -> np.ndarray:
    """|q - fd| / max(|fd|, 1e-12) of the Hessian quadratic form q of the
    edge weights against a central difference fd of pi with step
    ``FD_STEP``, along ``directions`` zero-sum unit directions (each one
    standard-normal draw of length E, centered and normalized)."""
    p = _bias(p, dist.E)
    errors = np.empty(directions)
    for i in range(directions):
        delta = project_zero_sum(rng.standard_normal(dist.E))
        delta /= np.linalg.norm(delta)
        quad_form = quadratic_form(weights, delta)
        plus = selection_moments(dist, p + FD_STEP * delta, K)[0]
        minus = selection_moments(dist, p - FD_STEP * delta, K)[0]
        fd = float(delta @ (plus - minus)) / (2.0 * FD_STEP)
        errors[i] = abs(quad_form - fd) / max(abs(fd), 1e-12)
    return errors


def hessian_identity_holds(errors: np.ndarray) -> bool:
    """The Hessian identity: every relative error of ``hessian_fd_errors``
    is at most HESSIAN_RTOL (a NaN error fails)."""
    return bool(np.all(errors <= HESSIAN_RTOL))


@dataclass(frozen=True)
class StrongConvexityEstimate:
    c_hat: float       # grid minimum of min_{k<l} w_kl (upper bound on the inf)
    mu: float          # T * c_hat * E


def _domain_grid(E: int, kappa: float, grid_points: int, rng: np.random.Generator):
    """Zero-sum candidate biases with diameter <= 1 - kappa, boundary-biased."""
    d = 1.0 - kappa
    pts = [np.zeros(E)]
    if d > 0.0:
        # structured extreme points: +-d/2 sign patterns, mean-centered
        n_patterns = min(2**E - 2, max(grid_points // 2, 1))
        patterns = []
        if 2**E - 2 <= n_patterns:
            for bits in range(1, 2**E - 1):
                v = np.array([1.0 if bits >> j & 1 else -1.0 for j in range(E)])
                patterns.append(v)
        else:
            while len(patterns) < n_patterns:
                v = rng.choice([-1.0, 1.0], size=E)
                if not np.all(v == v[0]):
                    patterns.append(v)
        for v in patterns:
            pts.append(project_zero_sum(0.5 * d * v))
        # random interior / boundary points
        while len(pts) < grid_points:
            q = project_zero_sum(rng.uniform(-0.5 * d, 0.5 * d, size=E))
            diam = q.max() - q.min()
            if diam > 0:
                if rng.random() < 0.5:
                    q *= d / diam  # push to the diameter boundary
                elif diam > d:
                    q *= d / diam
            pts.append(q)
    return pts[:grid_points]


def strong_convexity_estimate(
    dist: AffinityDistributionSet,
    K: int,
    kappa: float,
    T: int,
    grid_points: int,
    rng: np.random.Generator,
) -> StrongConvexityEstimate:
    """Grid scan of the minimum pairwise curvature weight over the zero-sum,
    diameter-limited bias domain.  The result is an upper bound on the true
    infimum, used as a practical strong-convexity estimate.
    """
    check_kappa(kappa)
    grid = _domain_grid(dist.E, kappa, grid_points, rng)
    offdiag = ~np.eye(dist.E, dtype=bool)
    best = math.inf
    for q in grid:
        best = min(best, float(edge_weights_quadrature(dist, q, K)[offdiag].min()))
    return StrongConvexityEstimate(c_hat=best, mu=T * best * dist.E)


# ---------------------------------------------------------------------------
# Expected loss and its minimizer
# ---------------------------------------------------------------------------

def expected_loss(
    dist: AffinityDistributionSet, p: np.ndarray, K: int, T: int
) -> tuple[np.ndarray, float]:
    """pi(p) and the expected loss T F_K(p) - (K T / E) sum_k p_k, by quadrature."""
    p = _bias(p, dist.E)
    pi, value = selection_moments(dist, p, K)
    return pi, T * value - K * T / dist.E * float(p.sum())


def expected_loss_minimizer(dist: AffinityDistributionSet, K: int, T: int) -> np.ndarray:
    """The zero-sum minimizer (E,) of the expected loss, by projected
    gradient descent with the exact quadrature gradient T pi(p) - L 1,
    L = K T / E, to a gradient sup-norm of 1e-6 T.
    """
    tolerance = 1e-6 * T
    L = K * T / dist.E
    p = np.zeros(dist.E)
    pi, fval = expected_loss(dist, p, K, T)
    step = 1.0 / T
    for _ in range(MINIMIZER_MAX_ITER):
        grad_z = project_zero_sum(T * pi - L)
        if np.abs(grad_z).max() <= tolerance:
            return p
        # backtracking line search with a mild re-expansion on success
        while True:
            cand = project_zero_sum(p - step * grad_z)
            pi_c, f_cand = expected_loss(dist, cand, K, T)
            if f_cand <= fval - 0.25 * step * float(grad_z @ grad_z):
                p, pi, fval = cand, pi_c, f_cand
                step *= 1.5
                break
            step *= 0.5
            if step < 1e-14:
                raise NoConvergence("line search collapsed")
    grad_z = project_zero_sum(T * pi - L)
    if np.abs(grad_z).max() <= tolerance:
        return p
    raise NoConvergence(f"gradient sup-norm {np.abs(grad_z).max():.3g} > {tolerance:.3g}")


# ---------------------------------------------------------------------------
# Regret experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegretAccounting:
    """Per-round regret trace averaged over replicas.

    s_n is a plug-in proxy estimated from realized loads (quadrature
    per-round would dominate the runtime).
    """

    rounds: int
    sigma2: float
    mean_cum_regret: np.ndarray    # (N,)
    bound: np.ndarray              # (N,) sigma^2/(2 mu) (1 + ln n)
    mean_diam: np.ndarray          # (N,)
    s_n_proxy: np.ndarray          # (N,)
    diam_violations: int           # rounds with diam > 1 - kappa
    final_per_replica: np.ndarray  # (R,) cumulative regret at round N

    def checkpoint_verdicts(self, checkpoints) -> tuple[dict[int, bool], bool]:
        """The logarithmic-regret rule at the 1-based ``checkpoints`` up to
        ``rounds`` (later ones are skipped): per checkpoint n, whether the
        mean regret R_n is within the bound; and whether R_n / (1 + ln n)
        never grows, up to RATIO_SLACK, from one checkpoint to the next.
        Raises ``InvalidRange`` when no checkpoint is up to ``rounds``."""
        ns = [n for n in checkpoints if n <= self.rounds]
        if not ns:  # nothing would be checked, so nothing may pass
            raise InvalidRange(f"no checkpoint is <= rounds = {self.rounds}", field="checkpoints")
        within = {n: bool(self.mean_cum_regret[n - 1] <= self.bound[n - 1]) for n in ns}
        ratios = [self.mean_cum_regret[n - 1] / (1.0 + math.log(n)) for n in ns]
        nonincreasing = all(
            b <= a * (1.0 + RATIO_SLACK) for a, b in zip(ratios, ratios[1:])
        )
        return within, nonincreasing


def regret_experiment(
    dist: AffinityDistributionSet,
    T: int,
    K: int,
    mu: float,
    p_star: np.ndarray,
    rounds: int,
    replicas: int,
    rng: np.random.Generator,
    kappa: float = 0.1,
) -> RegretAccounting:
    """Online gradient descent with step 1/(mu n), paired against the fixed
    minimizer on the same sampled batches.

    Each step projects the biases onto the zero-sum subspace only, not onto
    the domain of diameter at most 1 - kappa where ``mu`` holds; a round
    whose iterate leaves that domain in any replica is only counted in
    ``diam_violations``.

    Each round's (replicas, T) score block is drawn on one worker thread
    while the caller's thread routes earlier rounds; the draws, and the
    state ``rng`` is left in, are those of drawing each block at the start
    of its round.  No other thread may use ``rng`` during the call.

    Raises InvalidRange when mu is not finite or not > 0: the step and the
    bound divide by it.
    """
    if not (math.isfinite(mu) and mu > 0.0):
        raise InvalidRange(
            f"the strong-convexity constant mu must be finite and > 0, got {mu}",
            field="mu",
        )
    E = dist.E
    L = K * T / E
    ps = _bias(p_star, E)
    sig2 = sigma_squared(T, E, K)

    P = np.zeros((replicas, E))
    cum = np.zeros(replicas)
    mean_cum = np.empty(rounds)
    mean_diam = np.empty(rounds)
    s_proxy = np.empty(rounds)
    diam_violations = 0
    d_cap = 1.0 - kappa

    with closing(_sampled_blocks(dist, [(replicas, T)] * rounds, rng)) as blocks:
        for n, block in enumerate(blocks, 1):
            # both sides route by one kernel and score by one Lagrangian, so
            # their cells add in the same order
            chosen = topk(block + P[:, None, :], K)[0]
            f_iter = lagrangian(block, chosen, P, L)
            f_star = lagrangian(block, topk(block + ps, K)[0], ps, L)

            cum += f_iter - f_star
            mean_cum[n - 1] = cum.mean()
            diams = P.max(axis=1) - P.min(axis=1)
            mean_diam[n - 1] = float(diams.mean())
            if np.any(diams > d_cap):
                diam_violations += 1

            counts = loads(chosen, E)
            s_proxy[n - 1] = float(np.square(counts / T).sum(axis=1).mean())
            g = counts - L
            P = project_zero_sum(P - g / (mu * n))

    bound = sig2 / (2.0 * mu) * (1.0 + np.log(np.arange(1, rounds + 1)))
    return RegretAccounting(
        rounds=rounds,
        sigma2=sig2,
        mean_cum_regret=mean_cum,
        bound=bound,
        mean_diam=mean_diam,
        s_n_proxy=s_proxy,
        diam_violations=diam_violations,
        final_per_replica=cum.copy(),
    )
