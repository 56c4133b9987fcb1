"""Serial reference loops for the two sampling loops of ``alflb.stochastic``.

``check_gradient_moments`` and ``regret_experiment`` draw their score blocks
on a worker thread ahead of the block they route.  These are the same two
computations with every block drawn on the calling thread just before it is
routed, as one plain loop, kept as the oracle that the threaded versions
must match bit for bit, together with the state they leave ``rng`` in.
"""

from __future__ import annotations

import math

import numpy as np

from alflb.balancer import project_zero_sum
from alflb.router import lagrangian, loads, topk
from alflb.stochastic import (
    MOMENT_BATCH, GradientMomentReport, RegretAccounting, selection_moments, sigma_squared,
)


def serial_gradient_moments(dist, p, K, T, replicas, rng) -> GradientMomentReport:
    E = dist.E
    L = K * T / E
    p = np.asarray(p, dtype=np.float64)
    pi = selection_moments(dist, p, K)[0]
    grad_mean = T * pi - L
    sum_sq = float(np.square(pi).sum())
    expected_var = T * (K - sum_sq)
    expected_second = T * T * (sum_sq - K * K / E) + expected_var

    g_all = np.empty((replicas, E))
    done = 0
    while done < replicas:
        m = min(MOMENT_BATCH, replicas - done)
        block = dist.sample_matrix((m, T), rng)
        g_all[done : done + m] = loads(topk(block + p, K)[0], E) - L
        done += m

    emp_mean = g_all.mean(axis=0)
    mean_se = g_all.std(axis=0, ddof=1) / math.sqrt(replicas)
    dev_sq = np.square(g_all - grad_mean).sum(axis=1)
    var_se = float(dev_sq.std(ddof=1)) / math.sqrt(replicas)
    norm_sq = np.square(g_all).sum(axis=1)
    second_se = float(norm_sq.std(ddof=1)) / math.sqrt(replicas)
    return GradientMomentReport(
        pi=pi,
        expected_mean=grad_mean,
        empirical_mean=emp_mean,
        mean_z=(emp_mean - grad_mean) / mean_se,
        expected_var=expected_var,
        var_z=float((float(dev_sq.mean()) - expected_var) / var_se),
        expected_second_moment=expected_second,
        second_moment_z=float((float(norm_sq.mean()) - expected_second) / second_se),
    )


def serial_regret(dist, T, K, mu, p_star, rounds, replicas, rng, kappa=0.1) -> RegretAccounting:
    E = dist.E
    L = K * T / E
    ps = np.asarray(p_star, dtype=np.float64)
    P = np.zeros((replicas, E))
    cum = np.zeros(replicas)
    mean_cum = np.empty(rounds)
    mean_diam = np.empty(rounds)
    s_proxy = np.empty(rounds)
    diam_violations = 0
    for n in range(1, rounds + 1):
        block = dist.sample_matrix((replicas, T), rng)
        chosen = topk(block + P[:, None, :], K)[0]
        f_iter = lagrangian(block, chosen, P, L)
        f_star = lagrangian(block, topk(block + ps, K)[0], ps, L)
        cum += f_iter - f_star
        mean_cum[n - 1] = cum.mean()
        diams = P.max(axis=1) - P.min(axis=1)
        mean_diam[n - 1] = float(diams.mean())
        if np.any(diams > 1.0 - kappa):
            diam_violations += 1
        counts = loads(chosen, E)
        s_proxy[n - 1] = float(np.square(counts / T).sum(axis=1).mean())
        P = project_zero_sum(P - (counts - L) / (mu * n))
    sig2 = sigma_squared(T, E, K)
    return RegretAccounting(
        rounds=rounds,
        sigma2=sig2,
        mean_cum_regret=mean_cum,
        bound=sig2 / (2.0 * mu) * (1.0 + np.log(np.arange(1, rounds + 1))),
        mean_diam=mean_diam,
        s_n_proxy=s_proxy,
        diam_violations=diam_violations,
        final_per_replica=cum.copy(),
    )
