"""The benchmark's workloads: alflb CLI configs generated from the seed.

Each workload is a list of named configs that one process runs one after
another with ``parallel=1``.  Config seeds are drawn from the benchmark seed,
so the same seed gives the same configs.  Every config passes all of its
checks; the workloads differ in which layer does the work.
"""

from __future__ import annotations

import random

import numpy as np

# Shapes and schedules of the criterion-1/2/4 trace fixture.
RUN_DIMS = [(40, 4), (80, 8), (200, 16), (120, 6), (64, 8), (96, 12), (160, 16)]
SCHEDULES = [("deepseek_sign", 0.001), ("inverse_n", 1.0), ("inverse_sqrt_n", 0.02)]
TRACE_ITERATIONS = 150
# A sign-schedule plateau: with u = 1e-6 routing changes a few times in 10^4
# iterations, which is the case event-driven stepping skips.  It runs as six
# configs with their own seeds, so that each is timed over a fraction of a
# second rather than as one long sample.
PLATEAU = {"T": 64, "E": 4, "u": 1e-6, "iterations": 2_500, "runs": 6}
# The ten criterion-3 balance shapes.
BALANCE_DIMS = [
    (16, 4), (32, 8), (24, 6), (64, 8), (48, 6),
    (8, 2), (36, 6), (40, 8), (64, 4), (56, 8),
]

LARGE_TRACE = {"T": 4096, "E": 64, "u": 1e-3, "iterations": 100}
LARGE_COMPARE = {"T": 2048, "E": 64, "K": 8, "u": 1e-3, "iterations": 100}


def _beta(a, b):
    return {"type": "beta", "a": a, "b": b}


def _uniform(lo, hi):
    return {"type": "uniform", "lo": lo, "hi": hi}


# Criterion-5-style moment sets (distributions, bias, K, T).
MOMENT_SETS = {
    "moment_mixed_e5k2": (
        [_beta(2.0, 2.5), _beta(2.5, 2.0), _uniform(0.1, 0.9), _beta(3.0, 3.0),
         _uniform(0.2, 0.8)],
        [0.02, -0.02, 0.0, 0.01, -0.01], 2, 32,
    ),
    "moment_mixture_e3k2": (
        [{"type": "mixture", "components": [_uniform(0.0, 0.4), _uniform(0.5, 1.0)],
          "weights": [0.5, 0.5]},
         _beta(2.0, 2.0), _uniform(0.05, 0.95)],
        [0.0, 0.05, -0.05], 2, 24,
    ),
}
# Criterion-7-style Hessian sets (distributions, bias, K, directions); the
# E=8, K=3 set makes the subset enumeration grow.
HESSIAN_SETS = {
    "hessian_e4k2": (
        [_beta(2.0, 2.5), _beta(2.5, 2.0), _beta(3.0, 3.0), _uniform(0.05, 0.95)],
        [0.03, -0.01, -0.02, 0.0], 2, 10,
    ),
    "hessian_e8k3": (
        [_beta(2.0, 2.0), _beta(2.2, 2.4), _beta(2.4, 2.2), _beta(2.6, 2.0),
         _beta(2.0, 2.6), _beta(2.3, 2.5), _beta(2.5, 2.3), _beta(2.1, 2.1)],
        [0.0] * 8, 3, 3,
    ),
}
# Criterion-8 distributions with a reduced grid and round count.
REGRET_BETAS = [
    (2.0, 2.5), (2.1, 2.4), (2.2, 2.3), (2.3, 2.2),
    (2.4, 2.1), (2.5, 2.0), (2.2, 2.4), (2.4, 2.2),
]
REGRET = {"T": 64, "K": 2, "kappa": 0.8, "grid_points": 6, "rounds": 600,
          "replicas": 32, "checkpoints": [60, 600]}


def _starts_in_band(seed: int, T: int, E: int) -> bool:
    """True when routing at p = 0 already puts every load within E-1 of L.

    Such a balance_check instance runs exactly 1 + 200 settle + 1 = 202
    iterations.  An instance that must first move its biases into the band
    takes about 1/u iterations, and u = 0.9 * ubar spans 1e-8..1e-3 across
    seeds, so one instance could take 10^5 iterations and the pass length
    would depend on the seed.  That long regime is measured by the plateau
    run, whose iteration count is fixed.
    """
    from alflb.core import BiasVector, RandomSource
    from alflb.router import RawScoreMatrix, route_topk, softmax_affinities

    # The CLI draws balance_check affinities from stream 1 of the config seed.
    rng = RandomSource(seed, stream=1).generator()
    gamma = softmax_affinities(RawScoreMatrix(rng.standard_normal((T, E))))
    loads = route_topk(gamma, BiasVector.zeros(E), 1).loads.counts
    return bool(np.all(np.abs(loads - T // E) <= E - 1))


def _dims(T, E, K=1):
    return {"T": T, "E": E, "K": K}


def small_lab(rng: random.Random) -> dict[str, dict]:
    configs = {}
    for sched, u in SCHEDULES:
        for T, E in RUN_DIMS:
            configs[f"trace_{sched}_{T}x{E}"] = {
                "kind": "deterministic_run", "seed": rng.randrange(2**32),
                "dims": _dims(T, E), "schedule": {"kind": sched, "u": u},
                "iterations": TRACE_ITERATIONS,
            }
    for i in range(PLATEAU["runs"]):
        configs[f"plateau_sign_64x4_{i}"] = {
            "kind": "deterministic_run", "seed": rng.randrange(2**32),
            "dims": _dims(PLATEAU["T"], PLATEAU["E"]),
            "schedule": {"kind": "deepseek_sign", "u": PLATEAU["u"]},
            "iterations": PLATEAU["iterations"],
        }
    for T, E in BALANCE_DIMS:
        seed = rng.randrange(2**32)
        while not _starts_in_band(seed, T, E):
            seed = rng.randrange(2**32)
        configs[f"balance_{T}x{E}"] = {
            "kind": "balance_check", "seed": seed, "dims": _dims(T, E),
            "u_fraction": 0.9, "instances": 1,
        }
    return configs


def large_trace(rng: random.Random) -> dict[str, dict]:
    t, c = LARGE_TRACE, LARGE_COMPARE
    return {
        f"trace_sign_{t['T']}x{t['E']}": {
            "kind": "deterministic_run", "seed": rng.randrange(2**32),
            "dims": _dims(t["T"], t["E"]),
            "schedule": {"kind": "deepseek_sign", "u": t["u"]},
            "iterations": t["iterations"],
        },
        f"compare_{c['T']}x{c['E']}k{c['K']}": {
            "kind": "schedule_compare", "seed": rng.randrange(2**32),
            "dims": _dims(c["T"], c["E"], c["K"]), "u": c["u"],
            "iterations": c["iterations"],
        },
    }


def stochastic(rng: random.Random) -> dict[str, dict]:
    configs = {}
    for name, (dists, bias, K, T) in MOMENT_SETS.items():
        configs[name] = {
            "kind": "moment_check", "seed": rng.randrange(2**32),
            "distributions": dists, "bias": bias, "K": K, "T": T, "replicas": 10_000,
        }
    for name, (dists, bias, K, directions) in HESSIAN_SETS.items():
        configs[name] = {
            "kind": "hessian_check", "seed": rng.randrange(2**32),
            "distributions": dists, "bias": bias, "K": K, "directions": directions,
        }
    configs["regret_e8k2"] = {
        "kind": "regret_sweep", "seed": rng.randrange(2**32),
        "distributions": [_beta(a, b) for a, b in REGRET_BETAS], **REGRET,
    }
    return configs


WORKLOADS = {"small_lab": small_lab, "large_trace": large_trace, "stochastic": stochastic}


def generate(workload: str, seed: int) -> dict[str, dict]:
    """Configs of ``workload`` for benchmark seed ``seed``, by name."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
