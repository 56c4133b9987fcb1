"""Cost of score sampling in the stochastic lab.

Times one ``stochastic.check_gradient_moments`` call (10^4 replicas) on each
of the benchmark's two moment sets, and one round of
``stochastic.regret_experiment`` on the benchmark's regret config, split into
the time spent in the score distributions' ``sample`` methods and the rest of
the round.  The configs are those of ``perfbench/workloads.py``'s
``stochastic`` workload at benchmark seed 1, loaded through
``alflb.cli.load_config``.  It writes the medians to a JSON file.

With ``--parent CHECKOUT`` the same harness also times the alflb under
``CHECKOUT/src``, so the file holds a before/after pair from one machine.
Each case is timed in a fresh interpreter, ``ROUNDS`` times per checkout, the
two checkouts in alternating order, so slow drifts of the host fall on both
columns alike.

    python tools/bench_sampling.py --parent ../alflb-parent --out BENCH_sampling.json

This is not part of the test suite or of ``perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_topk import _cpu_model

MOMENT_CASES = ["moment_mixed_e5k2", "moment_mixture_e3k2"]
REGRET_CASE = "regret_e8k2"
CASES = MOMENT_CASES + [REGRET_CASE]
BENCH_SEED = 1
MOMENT_RUNS = 4       # check_gradient_moments calls per child, after a warm-up
REGRET_ROUNDS = 100   # regret rounds per sample
REGRET_RUNS = 4       # samples per child, after a warm-up
ROUNDS = 5
HERE = Path(__file__).resolve().parent.parent


def _config(name: str):
    """The parsed benchmark config ``name``, by the alflb on ``sys.path``."""
    sys.path.insert(0, str(HERE / "perfbench"))
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
    """µs per regret round, in total and inside the distributions' ``sample``
    methods (the outermost call only, so a mixture's components are not
    counted twice)."""
    from alflb import distributions
    from alflb.core import RandomSource
    from alflb.stochastic import (
        expected_loss_minimizer, regret_experiment, strong_convexity_estimate,
    )

    spent = [0.0]
    depth = [0]

    def timed(sample):
        def wrapper(self, rng, size):
            depth[0] += 1
            t0 = time.perf_counter()
            try:
                return sample(self, rng, size)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    spent[0] += time.perf_counter() - t0

        return wrapper

    for cls in (distributions.BetaScore, distributions.UniformScore,
                distributions.MixtureScore):
        cls.sample = timed(cls.sample)

    params = cfg.params
    dist, T, K = params["distributions"], params["T"], params["K"]
    L = K * T / dist.E
    rng = RandomSource(cfg.seed, stream=4).generator()
    sc = strong_convexity_estimate(dist, K, params["kappa"], T, params["grid_points"], rng)
    p_star = expected_loss_minimizer(dist, K, T, L)
    out = {"round_us": [], "sampling_us": [], "rest_us": []}
    for run in range(REGRET_RUNS + 1):
        spent[0] = 0.0
        t0 = time.perf_counter()
        regret_experiment(
            dist, T, K, sc.mu, p_star, REGRET_ROUNDS, params["replicas"], rng,
            kappa=params["kappa"],
        )
        total = time.perf_counter() - t0
        if run:  # the first pass is a warm-up
            out["round_us"].append(total / REGRET_ROUNDS * 1e6)
            out["sampling_us"].append(spent[0] / REGRET_ROUNDS * 1e6)
            out["rest_us"].append((total - spent[0]) / REGRET_ROUNDS * 1e6)
    return out


def measure(case: int) -> dict[str, list[float]]:
    """The samples of ``CASES[case]`` for the alflb on ``sys.path``."""
    name = CASES[case]
    cfg = _config(name)
    return _moment_samples(cfg) if name in MOMENT_CASES else _regret_samples(cfg)


def _run_child(src: Path, case: int) -> dict[str, list[float]]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", str(case)],
        env=env, check=True, capture_output=True, text=True,
    )
    out = json.loads(proc.stdout)
    if not Path(out["stochastic"]).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"{src}: the child imported {out['stochastic']}")
    return out["samples"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, default=None,
                    help="a second checkout to time beside this one")
    ap.add_argument("--out", type=Path, default=Path("BENCH_sampling.json"))
    ap.add_argument("--measure", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure is not None:
        samples = measure(args.measure)
        from alflb import stochastic

        json.dump({"stochastic": stochastic.__file__, "samples": samples}, sys.stdout)
        return 0

    sources = {"change": HERE / "src"}
    if args.parent is not None:
        sources = {"parent": args.parent.resolve() / "src", **sources}
    samples = {column: [{} for _ in CASES] for column in sources}
    for r in range(ROUNDS):
        for case in range(len(CASES)):
            order = list(sources) if (r + case) % 2 == 0 else list(reversed(sources))
            for column in order:
                for metric, values in _run_child(sources[column], case).items():
                    samples[column][case].setdefault(metric, []).extend(values)

    import numpy as np

    rows = []
    for case, name in enumerate(CASES):
        for metric in samples["change"][case]:
            row = {"case": name, "metric": metric}
            digits = 4 if metric.endswith("_s") else 1
            for column in sources:
                values = samples[column][case][metric]
                row[column] = round(statistics.median(values), digits)
                q1, _, q3 = statistics.quantiles(values, n=4)
                row[f"{column}_quartiles"] = [round(q1, digits), round(q3, digits)]
            if "parent" in row:
                row["change_over_parent"] = round(row["change"] / row["parent"], 3)
            rows.append(row)
    report = {
        "what": "median (and quartiles) s per check_gradient_moments call "
                "(10^4 replicas) on the benchmark's moment sets, and µs per "
                "regret round on its regret config, split into sample() time "
                "and the rest",
        "benchmark_seed": BENCH_SEED,
        "samples_per_cell": {"call_s": MOMENT_RUNS * ROUNDS,
                             "round_us": REGRET_RUNS * ROUNDS},
        "regret_rounds_per_sample": REGRET_ROUNDS,
        "machine": {
            "cpu": _cpu_model(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
        },
        "columns": list(sources),
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=2, ensure_ascii=False) + "\n")
    for row in rows:
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
