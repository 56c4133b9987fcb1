"""The part of the alflb API that the benchmark under ``perfbench/`` drives.

``perfbench/tests`` is not part of the Tier-1 suite, so this guard keeps a
trim of the public surface from breaking the benchmark unnoticed.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import alflb.cli
from alflb.core import BiasVector, RandomSource
from alflb.router import RawScoreMatrix, route_topk, softmax_affinities

# The layer modules whose public functions the benchmark's tracer wraps.
TRACED_LAYERS = (
    "core", "router", "balancer", "deterministic", "distributions", "stochastic", "cli",
)


def test_traced_layer_modules_import():
    for layer in TRACED_LAYERS:
        importlib.import_module(f"alflb.{layer}")


def test_workload_screen_routes_at_zero_bias():
    # the balance-check screen: routing at p = 0 on stream 1 of a config seed
    T, E = 16, 4
    rng = RandomSource(3, stream=1).generator()
    gamma = softmax_affinities(RawScoreMatrix(rng.standard_normal((T, E))))
    loads = route_topk(gamma, BiasVector.zeros(E), 1).loads.counts
    assert loads.shape == (E,) and int(loads.sum()) == T


def test_cli_entry_points():
    assert alflb.cli.KINDS == (
        "deterministic_run", "balance_check", "moment_check",
        "hessian_check", "regret_sweep", "schedule_compare",
    )
    assert list(inspect.signature(alflb.cli.load_config).parameters) == ["path"]
    assert {"cfg", "out_dir", "parallel"} <= set(inspect.signature(alflb.cli.run).parameters)


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 7])
def test_benchmark_configs_load(tmp_path, seed):
    # every config the benchmark generates must pass load_config
    workloads = _perfbench_workloads()
    for workload in workloads.WORKLOADS:
        for name, cfg in workloads.generate(workload, seed).items():
            path = tmp_path / f"{workload}_{name}.json"
            path.write_text(json.dumps(cfg))
            assert alflb.cli.load_config(path).kind == cfg["kind"], path.name
