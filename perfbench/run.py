"""alflb benchmark: time-to-verdict, memory and set-up of the CLI lab.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small_lab --seed 1 --seconds 30 --trace 0

The workloads are defined in workloads.py and listed, with the reason each
was chosen, in BENCHMARK.json.  A run

  1. writes the workload's configs, generated from ``--seed``;
  2. with ``--trace 0``, measures set-up: a fresh interpreter that imports
     ``alflb.cli`` and parses every config, several times (``setup_s``);
  3. runs the configs in a fresh worker process (worker.py) through
     ``alflb.cli.load_config`` and ``alflb.cli.run`` for ``--seconds`` and
     checks every output; with ``--trace 1`` the worker also traces the
     layers (tracer.py) and reports the per-layer metrics.

``wall_s`` is the median over passes of a pass's time with each config's
time divided by the time of a reference kernel of the same kind of work
beside it (calibrate.py), so that a host whose speed drifts under other load
gives the same figure for the same code.  The raw pass times are reported
beside it.  ``setup_s`` is not scaled: import time does not follow any
kernel, so it is the median of several fresh interpreters.

The second-to-last line of stdout is a JSON object with the machine, the
timing samples (median, upper percentile, count), every verdict and the
failed-check ratio; the last line is the result in the benchmark's format.
The exit status is 0 when every check passed, 1 when one failed and 2 when
the benchmark could not run (for instance without ``src/alflb``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
DEFAULT_SEED = 1
SETUP_PROBES = 5
DEADLINE_S = 170.0

_SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import alflb.cli
for path in sys.argv[2:]:
    alflb.cli.load_config(path)
"""


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def timing(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples above it
    (the maximum when there are fewer than twenty samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 20:
        q = math.floor(100 * (n - 10) / n)
        upper = (f"p{q}", ordered[max(0, math.ceil(q / 100 * n) - 1)])
    else:
        upper = ("max", ordered[-1])
    return {"median": statistics.median(ordered), upper[0]: upper[1], "n": n}


def scaled(walls: list[float], kernels: list[float], workload: str) -> list[float]:
    """Each time divided by the reference kernel's time beside it, in
    seconds on a host where the kernel takes its ``reference_s``."""
    ref = calibrate.reference_s(workload)
    return [w / k * ref for w, k in zip(walls, kernels)]


def scaled_passes(config_walls: dict[str, list[float]],
                  kernel_walls: dict[str, list[float]], workload: str) -> list[float]:
    """Each pass's scaled time: the sum of its configs' scaled times.  A
    config takes at most a few seconds, so the kernel beside it ran at about
    the speed the config ran at."""
    per_config = [scaled(config_walls[k], kernel_walls[k], workload) for k in config_walls]
    return [sum(times) for times in zip(*per_config)]


def measure_setup(paths: list[Path]) -> list[float]:
    cmd = [sys.executable, "-c", _SETUP_PROBE, str(SRC), *map(str, paths)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return samples


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    began = time.perf_counter()

    if not (SRC / "alflb" / "__init__.py").is_file():
        print(f"perfbench: no alflb package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    paths = {}
    for name, raw in workloads.generate(args.workload, args.seed).items():
        paths[name] = work / "configs" / f"{name}.json"
        paths[name].write_text(json.dumps(raw, indent=1))
    (work / "configs.json").write_text(json.dumps({k: str(v) for k, v in paths.items()}))

    reference = None
    if args.seed == DEFAULT_SEED:
        reference = work / "reference.json"
        recorded = json.loads((HERE / "reference.json").read_text())
        reference.write_text(json.dumps(recorded["discrete"].get(args.workload, {})))

    setup = [] if args.trace else measure_setup(list(paths.values()))

    cmd = [
        sys.executable, str(HERE / "worker.py"), "--src", str(SRC), "--workload", args.workload,
        "--configs", str(work / "configs.json"), "--out", str(work),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(work / "result.json"),
    ]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - began))
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {timeout:.0f} s", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 2
    res = json.loads((work / "result.json").read_text())

    walls = res["walls"]["untraced"]
    passes = scaled_passes(res["config_walls"], res["kernel_walls"], args.workload)
    ratio = res["failed"] / res["attempted"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine(),
        "wall_s": {"unit": "s", "scaled": "by the reference kernel", **timing(passes)},
        "setup_s": {"unit": "s", **timing(setup)} if setup else None,
        "raw_pass_wall_s": {"unit": "s", **timing(walls)},
        "kernel_s": {"unit": "s", **timing(sum(res["kernel_walls"].values(), []))},
        "config_wall_s": {
            k: {"unit": "s", "scaled_median": statistics.median(
                scaled(v, res["kernel_walls"][k], args.workload)),
                "raw": timing(v)}
            for k, v in res["config_walls"].items()
        },
        "peak_rss_mib": {"unit": "MiB", "value": res["peak_rss_mib"]},
        "checks_failed_ratio": {"unit": "ratio", "value": ratio,
                                "failed": res["failed"], "attempted": res["attempted"]},
        "failures": res["failures"],
        "verdicts": res["verdicts"],
        "discrete": res["discrete"],
    }
    if args.trace:
        values = res["per_layer"]
        details["traced_wall_s"] = {"unit": "s", **timing(res["walls"]["traced"])}
    else:
        values = {
            "wall_s": statistics.median(passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": res["peak_rss_mib"],
        }
    units = declared_metrics(args.trace)
    missing = set(units) - set(values)
    if missing:
        print(f"perfbench: no value for {sorted(missing)}", file=sys.stderr)
        return 2
    correct = res["failed"] == 0
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
