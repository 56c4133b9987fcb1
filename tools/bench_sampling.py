"""Cost of score sampling, the Beta cdf and the quadrature nodes in the
stochastic lab.

Times one ``stochastic.check_gradient_moments`` call (10^4 replicas) on each
of the benchmark's two moment sets, and one round of
``stochastic.regret_experiment`` on the benchmark's regret config, beside the
time spent in the score distributions' ``sample`` methods, on whichever
thread draws, and the time the calling thread waits for its score blocks.
The configs are those of ``perfbench/workloads.py``'s
``stochastic`` workload at benchmark seed 1, loaded through
``alflb.cli.load_config``.  It also times one ``BetaScore.cdf`` call on 2,048
points of [0, 1] at four shape pairs, building the 8,192-node
Gauss-Legendre rule (``distributions._leggauss``, uncached), the largest the
quadrature asks for, and one ``stochastic.selection_moments`` and one
``stochastic.edge_weights_quadrature`` call at two biases: the regret
config's expected-loss minimizer p*, and the benchmark Hessian set's bias
p + FD_STEP delta along the first direction its check draws.  Beside each of
those two times it reports the nodes of the rule's first estimate (every
doubling doubles them) and the number of estimates in the call.  It runs
through the shared driver of ``tools/harness.py`` (``--parent CHECKOUT``
times a second checkout beside this one).

    python tools/bench_sampling.py --parent ../alflb-parent --out BENCH_sampling.json

This is not part of the test suite or of ``perfbench``.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import harness

MOMENT_CASES = ["moment_mixed_e5k2", "moment_mixture_e3k2"]
REGRET_CASE = "regret_e8k2"
HESSIAN_CASE = "hessian_e8k3"
QUAD_FUNCTIONS = ["selection_moments", "edge_weights_quadrature"]
CDF_SHAPES = [(2.0, 2.5), (2.2, 2.4), (3.0, 3.0), (10.0, 50.0)]
CDF_POINTS = 2048
LEGGAUSS_NODES = 8192
CELLS = ([{"case": name} for name in MOMENT_CASES + [REGRET_CASE]]
         + [{"case": "beta_cdf", "a": a, "b": b} for a, b in CDF_SHAPES]
         + [{"case": "leggauss", "n": LEGGAUSS_NODES}]
         + [{"case": "quadrature", "config": name, "function": function}
            for name in (REGRET_CASE, HESSIAN_CASE) for function in QUAD_FUNCTIONS])
BENCH_SEED = 1
MOMENT_RUNS = 4       # check_gradient_moments calls per child, after a warm-up
REGRET_ROUNDS = 100   # regret rounds per sample
REGRET_RUNS = 4       # samples per child, after a warm-up
CDF_CALLS = 200       # cdf calls per sample
CDF_RUNS = 5          # samples per child, after a warm-up
LEGGAUSS_RUNS = 3     # rules built per child, after a warm-up
QUAD_CALLS = 10       # quadrature calls per sample
QUAD_RUNS = 5         # samples per child, after a warm-up


def _config(name: str):
    """The parsed benchmark config ``name``, by the alflb on ``sys.path``."""
    sys.path.insert(0, str(harness.HERE / "perfbench"))
    import workloads

    from alflb.cli import load_config

    raw = workloads.generate("stochastic", BENCH_SEED)[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(raw))
        return load_config(path)


def _moment_samples(cfg) -> dict[str, list[float]]:
    from alflb.core import RandomSource
    from alflb.stochastic import check_gradient_moments

    params = cfg.params
    samples = []
    for run in range(MOMENT_RUNS + 1):
        rng = RandomSource(cfg.seed, stream=2).generator()
        t0 = time.perf_counter()
        check_gradient_moments(
            params["distributions"], params["bias"], params["K"], params["T"],
            params["replicas"], rng,
        )
        if run:  # the first call is a warm-up
            samples.append(time.perf_counter() - t0)
    return {"call_s": samples}


def _regret_samples(cfg) -> dict[str, list[float]]:
    """µs per regret round: ``round_us`` in total; ``sampling_us`` inside the
    distributions' ``sample`` methods (the outermost call only, so a
    mixture's components are not counted twice), on whichever thread draws;
    and ``wait_us``, the time the calling thread spends getting its score
    blocks: inside the ``sample`` calls it makes itself, and waiting on
    ``stochastic._sampled_blocks`` where a worker thread draws them."""
    import threading
    from contextlib import closing

    from alflb import distributions, stochastic
    from alflb.core import RandomSource
    from alflb.stochastic import (
        expected_loss_minimizer, regret_experiment, strong_convexity_estimate,
    )

    spent = [0.0]
    waited = [0.0]
    depth = [0]  # one thread draws at a time, so one count serves both
    caller = threading.current_thread()

    def timed(sample):
        def wrapper(self, rng, size):
            depth[0] += 1
            t0 = time.perf_counter()
            try:
                return sample(self, rng, size)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    dt = time.perf_counter() - t0
                    spent[0] += dt
                    if threading.current_thread() is caller:
                        waited[0] += dt

        return wrapper

    for cls in (distributions.BetaScore, distributions.UniformScore,
                distributions.MixtureScore):
        cls.sample = timed(cls.sample)

    def waiting(sampled_blocks):
        def wrapper(*args):
            with closing(sampled_blocks(*args)) as blocks:
                while True:
                    t0 = time.perf_counter()
                    block = next(blocks, None)
                    waited[0] += time.perf_counter() - t0
                    if block is None:
                        return
                    yield block

        return wrapper

    if hasattr(stochastic, "_sampled_blocks"):  # a checkout that draws on the caller has none
        stochastic._sampled_blocks = waiting(stochastic._sampled_blocks)

    params = cfg.params
    dist, T, K = params["distributions"], params["T"], params["K"]
    rng = RandomSource(cfg.seed, stream=4).generator()
    sc = strong_convexity_estimate(dist, K, params["kappa"], T, params["grid_points"], rng)
    p_star = expected_loss_minimizer(dist, K, T)
    out = {"round_us": [], "sampling_us": [], "wait_us": []}
    for run in range(REGRET_RUNS + 1):
        spent[0] = waited[0] = 0.0
        t0 = time.perf_counter()
        regret_experiment(
            dist, T, K, sc.mu, p_star, REGRET_ROUNDS, params["replicas"], rng,
            kappa=params["kappa"],
        )
        total = time.perf_counter() - t0
        if run:  # the first pass is a warm-up
            out["round_us"].append(total / REGRET_ROUNDS * 1e6)
            out["sampling_us"].append(spent[0] / REGRET_ROUNDS * 1e6)
            out["wait_us"].append(waited[0] / REGRET_ROUNDS * 1e6)
    return out


def _cdf_samples(a: float, b: float) -> dict[str, list[float]]:
    """µs per ``BetaScore(a, b).cdf`` call on ``CDF_POINTS`` points."""
    import numpy as np

    from alflb.distributions import BetaScore

    d = BetaScore(a, b)
    x = np.linspace(0.0, 1.0, CDF_POINTS)
    d.cdf(x)  # a warm-up: the first call may load what the cdf needs
    samples = []
    for _ in range(CDF_RUNS):
        t0 = time.perf_counter()
        for _ in range(CDF_CALLS):
            d.cdf(x)
        samples.append((time.perf_counter() - t0) / CDF_CALLS * 1e6)
    return {"call_us": samples}


def _leggauss_samples(n: int) -> dict[str, list[float]]:
    """s to build the n-node rule, past ``_leggauss``'s cache."""
    from alflb.distributions import _leggauss

    build = _leggauss.__wrapped__
    build(256)  # a warm-up: the first call may load what the rule needs
    samples = []
    for _ in range(LEGGAUSS_RUNS):
        t0 = time.perf_counter()
        build(n)
        samples.append(time.perf_counter() - t0)
    return {"build_s": samples}


def _quadrature_bias(name: str, cfg):
    """The bias the quadrature cell of config ``name`` integrates at: p* of
    the regret config, or p + FD_STEP delta of the Hessian config, delta
    being the first zero-sum unit direction ``hessian_fd_errors`` draws."""
    import numpy as np

    from alflb.balancer import project_zero_sum
    from alflb.core import RandomSource
    from alflb.stochastic import FD_STEP, expected_loss_minimizer

    params = cfg.params
    dist, K = params["distributions"], params["K"]
    if name == REGRET_CASE:
        return expected_loss_minimizer(dist, K, params["T"])
    rng = RandomSource(cfg.seed, stream=3).generator()
    delta = project_zero_sum(rng.standard_normal(dist.E))
    delta /= np.linalg.norm(delta)
    return np.asarray(params["bias"]) + FD_STEP * delta


def _quadrature_samples(name: str, function: str) -> dict[str, list[float]]:
    """ms per ``function`` call at the bias of ``_quadrature_bias``, and the
    nodes of the first estimate and the estimates in one call."""
    from alflb import distributions, stochastic

    cfg = _config(name)
    dist, K = cfg.params["distributions"], cfg.params["K"]
    p = _quadrature_bias(name, cfg)
    call = getattr(stochastic, function)
    sizes = []
    segment_nodes = distributions._segment_nodes

    def counted(edges, n):
        nodes, weights = segment_nodes(edges, n)
        sizes.append(nodes.size)
        return nodes, weights

    distributions._segment_nodes = counted
    try:
        call(dist, p, K)  # a warm-up, which also counts the nodes
    finally:
        distributions._segment_nodes = segment_nodes
    out = {"call_ms": [], "nodes_per_estimate": [float(sizes[0])],
           "estimates": [float(len(sizes))]}
    for _ in range(QUAD_RUNS):
        t0 = time.perf_counter()
        for _ in range(QUAD_CALLS):
            call(dist, p, K)
        out["call_ms"].append((time.perf_counter() - t0) / QUAD_CALLS * 1e3)
    return out


def measure(cell: dict) -> dict[str, list[float]]:
    """The samples of ``cell`` for the alflb on ``sys.path``."""
    if cell["case"] == "beta_cdf":
        return _cdf_samples(cell["a"], cell["b"])
    if cell["case"] == "leggauss":
        return _leggauss_samples(cell["n"])
    if cell["case"] == "quadrature":
        return _quadrature_samples(cell["config"], cell["function"])
    cfg = _config(cell["case"])
    return _moment_samples(cfg) if cell["case"] in MOMENT_CASES else _regret_samples(cfg)


if __name__ == "__main__":
    sys.exit(harness.main(
        CELLS, measure, script=__file__, doc=__doc__, out="BENCH_sampling.json",
        header={
            "what": "s per check_gradient_moments call (10^4 replicas) on the "
                    "benchmark's moment sets; µs per regret round on its "
                    "regret config, with the sample() time on whichever "
                    "thread draws and the calling thread's wait for score "
                    "blocks; "
                    "µs per BetaScore.cdf call on 2,048 points of [0, 1]; s "
                    "to build the 8,192-node Gauss-Legendre rule; ms per "
                    "selection_moments and edge_weights_quadrature call at "
                    "the regret config's p* and at the Hessian set's "
                    "p + h delta, with the nodes of the rule's first "
                    "estimate and the estimates per call",
            "benchmark_seed": BENCH_SEED,
            "regret_rounds_per_sample": REGRET_ROUNDS,
        },
    ))
