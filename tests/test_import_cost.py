"""What the CLI imports, checked in a fresh interpreter.

The whole lab needs only numpy: scipy's import alone costs about a second of
start-up, and ``scipy.special`` alone about 0.3 s.  Each case imports
``alflb.cli`` in a subprocess, so that what pytest and the other tests have
imported cannot hide a module-level import, then parses and runs small
configs of the given kinds (only parses them, with ``--parse-only``) and
reports which scipy modules are loaded, and whether the thread pool
(``concurrent.futures.thread``) is: the stochastic lab loads it when it first
draws score blocks, and the fixed-score lab when it splits a routing of a
large trace on a host with more than one CPU, never while importing or
parsing.  The control cases have the probe import ``scipy.special`` itself,
and run a config that draws or splits, to show that it reports what is there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import alflb
from alflb.cli import KINDS

SRC = Path(alflb.__file__).resolve().parent.parent

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import alflb.cli
flags = {a for a in sys.argv[3:] if a.startswith("--")}
if "--import-scipy-special" in flags:
    import scipy.special
for i, path in enumerate(a for a in sys.argv[3:] if a not in flags):
    cfg = alflb.cli.load_config(path)
    if "--parse-only" not in flags:
        status = alflb.cli.run(cfg, out_dir=f"{sys.argv[2]}/{i}")
        assert status == 0, (path, status)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent"))))
"""
THREAD_POOL = "concurrent.futures.thread"

FIXED_SCORE = {
    "trace": {
        "kind": "deterministic_run", "seed": 1, "dims": {"T": 16, "E": 4, "K": 1},
        "schedule": {"kind": "deepseek_sign", "u": 0.001}, "iterations": 20,
    },
    "balance": {
        "kind": "balance_check", "seed": 2, "dims": {"T": 8, "E": 4, "K": 1},
        "instances": 2,
    },
    "compare": {
        "kind": "schedule_compare", "seed": 3, "dims": {"T": 16, "E": 4, "K": 2},
        "u": 0.01, "iterations": 20,
    },
}
MOMENT = {
    "kind": "moment_check", "seed": 4,
    "distributions": [
        {"type": "beta", "a": 2.0, "b": 3.0},
        {"type": "beta", "a": 1.5, "b": 1.5},
        {"type": "uniform", "lo": 0.1, "hi": 0.9},
    ],
    "T": 8, "K": 1, "replicas": 200,
}
STOCHASTIC = {
    "moment": MOMENT,
    "hessian": {
        "kind": "hessian_check", "seed": 5,
        "distributions": MOMENT["distributions"], "K": 1, "directions": 2,
    },
    "regret": {
        "kind": "regret_sweep", "seed": 6,
        "distributions": [
            {"type": "beta", "a": 2.0, "b": 2.5},
            {"type": "beta", "a": 2.1, "b": 2.4},
        ],
        "T": 8, "K": 1, "kappa": 0.8, "rounds": 100, "replicas": 4,
        "grid_points": 6, "checkpoints": [10, 100],
    },
}


def _loaded(tmp_path, configs, *flags) -> list[str]:
    paths = []
    for name, cfg in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        paths.append(str(path))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), str(tmp_path / "out"), *flags, *paths],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _scipy_modules(tmp_path, configs, *flags) -> list[str]:
    return [m for m in _loaded(tmp_path, configs, *flags) if m.split(".")[0] == "scipy"]


def test_fixed_score_kinds_load_no_scipy(tmp_path):
    assert _scipy_modules(tmp_path, FIXED_SCORE) == []


def test_probe_reports_scipy_it_loads(tmp_path):
    loaded = _scipy_modules(tmp_path, {"moment": MOMENT}, "--import-scipy-special")
    assert "scipy" in loaded and "scipy.special" in loaded


def test_stochastic_kinds_load_no_scipy(tmp_path):
    assert _scipy_modules(tmp_path, STOCHASTIC) == []


def test_import_and_parsing_load_no_thread_pool(tmp_path):
    configs = {**FIXED_SCORE, **STOCHASTIC}
    assert sorted(cfg["kind"] for cfg in configs.values()) == sorted(KINDS)
    assert THREAD_POOL not in _loaded(tmp_path, configs, "--parse-only")


def test_probe_reports_the_thread_pool_of_a_draw(tmp_path):
    assert THREAD_POOL in _loaded(tmp_path, {"moment": MOMENT})


def _trace(T, E):
    return {
        "kind": "deterministic_run", "seed": 7, "dims": {"T": T, "E": E, "K": 1},
        "schedule": {"kind": "deepseek_sign", "u": 0.001}, "iterations": 2,
    }


def test_probe_reports_the_thread_pool_of_a_split_trace(tmp_path):
    # 2048 x 64 routes one-row blocks, split on two threads where the probe
    # may use two CPUs; 80 x 8 routes guessed blocks on the calling thread
    split = len(os.sched_getaffinity(0)) > 1
    assert (THREAD_POOL in _loaded(tmp_path, {"large": _trace(2048, 64)})) == split
    assert THREAD_POOL not in _loaded(tmp_path, {"small": _trace(80, 8)})
