"""The shared-node Poisson-binomial quadrature against the subset-enumeration
reference in ``reference_quadrature``.

Tolerance: every pi_k, F_K and w_kl agrees to abs 1e-12.  Both sides
integrate the same function to a 1e-8 convergence test, but with the
smooth shapes below each estimate is exact to a few ulps, so what is left
is the rounding of the frame shift and of the recursion against the
subset sums (about 1e-15).
"""

import numpy as np
import pytest

import reference_quadrature as ref
from alflb.distributions import (
    AffinityDistributionSet,
    BetaScore,
    MixtureScore,
    UniformScore,
)
from alflb.stochastic import edge_weights_quadrature, selection_moments

ABS_TOL = 1e-12

SETS = {
    "beta": (BetaScore(2.0, 2.0), BetaScore(2.0, 3.5), BetaScore(3.0, 2.0),
             BetaScore(2.5, 2.5), BetaScore(4.0, 2.0)),
    "uniform": (UniformScore(0.0, 1.0), UniformScore(0.1, 0.9), UniformScore(0.2, 0.7),
                UniformScore(0.3, 1.0)),
    "mixture": (
        MixtureScore((UniformScore(0.0, 0.4), UniformScore(0.5, 1.0)), (0.5, 0.5)),
        MixtureScore((UniformScore(0.0, 0.5), BetaScore(3.0, 2.0)), (0.4, 0.6)),
        BetaScore(2.0, 2.0),
        UniformScore(0.05, 0.95),
    ),
}


def _bias(kind: str, E: int) -> np.ndarray:
    if kind == "zero":
        return np.zeros(E)
    q = np.random.default_rng(E).uniform(-0.15, 0.15, size=E)
    return q - q.mean()


CASES = [
    (name, K, bias)
    for name, dists in SETS.items()
    for K in range(1, len(dists))
    for bias in ("zero", "random_zero_sum")
]


@pytest.mark.parametrize("name,K,bias", CASES, ids=[f"{n}-K{k}-{b}" for n, k, b in CASES])
def test_matches_enumeration(name, K, bias):
    dist = AffinityDistributionSet(SETS[name])
    p = _bias(bias, dist.E)

    pi, value = selection_moments(dist, p, K)
    pi_ref, value_ref = ref.selection_moments(dist, p, K)
    np.testing.assert_allclose(pi, pi_ref, rtol=0, atol=ABS_TOL)
    assert abs(value - value_ref) <= ABS_TOL

    w = edge_weights_quadrature(dist, p, K)
    w_ref = ref.edge_weights_quadrature(dist, p, K)
    np.testing.assert_allclose(w, w_ref, rtol=0, atol=ABS_TOL)
