"""Run one workload's configs through the alflb CLI, repeatedly, in this
process, and check every output.

Started by run.py in a fresh interpreter, so the peak resident set it reports
belongs to this workload alone.  Passes repeat until ``--seconds`` have been
used; with ``--trace 1`` the first half of the time runs untraced and the
second half traced, and the traced passes give the per-layer metrics.  Each
untraced config's time is recorded with the time of the workload's reference
kernel (calibrate.py) run beside it.

Checks, each counted as attempted and, when it does not hold, as failed:
  * every verdict in summary.json is true; a run that exits non-zero counts
    all of its verdicts as failed, and a run that raises counts one failure;
  * on the first pass, for the seed the reference was recorded at, the
    discrete columns of trace.csv and balance.csv match the reference digest;
  * on every later pass, each config's artifacts are byte-identical to the
    first pass's, traced or not.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import tracer as tracing

# Columns compared against the reference; float columns are left out so that
# a permitted rounding change is not a failure.
DISCRETE_COLUMNS = {
    "trace.csv": ("num_switches", "max_load", "min_load", "tie_flag"),
    "balance.csv": ("iterations_run", "converged", "stayed", "max_load_step"),
}
CALIBRATE_EVERY_S = 0.25


def discrete_digest(out: Path) -> str | None:
    h = hashlib.sha256()
    found = False
    for fname, cols in DISCRETE_COLUMNS.items():
        path = out / fname
        if not path.is_file():
            continue
        found = True
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                h.update((",".join(row[c] for c in cols) + "\n").encode())
    return h.hexdigest() if found else None


def artifacts(out: Path) -> tuple[str, int]:
    """Digest over every file's name and bytes, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), size


def run_pass(cli, configs: dict[str, Path], out_root: Path, workload: str):
    """Time one closed-loop pass over every config: from the first
    load_config to the last summary.json written, and each config from its
    load_config to its summary.json.  The workload's reference kernel runs at
    the start and end of the pass and before a config once CALIBRATE_EVERY_S
    has passed since it last ran; each config is paired with the mean of the
    kernel times on either side of it.  The kernel's own time is not in the pass's.
    Returns (wall, {name: (config wall, kernel time)}, codes)."""
    shutil.rmtree(out_root, ignore_errors=True)
    codes = {}
    spans = {}
    pending = []  # configs run since the kernel last ran
    wall = 0.0
    kernel = calibrate.kernel_s(workload)
    last = time.perf_counter()
    for name, path in configs.items():
        if pending and time.perf_counter() - last >= CALIBRATE_EVERY_S:
            now = calibrate.kernel_s(workload)
            spans.update({k: (t, (kernel + now) / 2) for k, t in pending})
            pending, kernel, last = [], now, time.perf_counter()
        c0 = time.perf_counter()
        try:
            cfg = cli.load_config(path)
            codes[name] = cli.run(cfg, out_dir=out_root / name, parallel=1)
        except Exception:  # a crash is a failed check, not the end of the run
            traceback.print_exc()
            codes[name] = None
        pending.append((name, time.perf_counter() - c0))
        wall += pending[-1][1]
    now = calibrate.kernel_s(workload)
    spans.update({k: (t, (kernel + now) / 2) for k, t in pending})
    return wall, spans, codes


def inspect_pass(out_root: Path, codes: dict) -> dict[str, dict]:
    results = {}
    for name, code in codes.items():
        out = out_root / name
        summary = out / "summary.json"
        if code is None or not summary.is_file():
            results[name] = {"code": code, "verdicts": None}
            continue
        digest, size = artifacts(out)
        results[name] = {
            "code": code,
            "verdicts": json.loads(summary.read_text())["verdicts"],
            "artifacts": digest,
            "bytes": size,
            "discrete": discrete_digest(out),
        }
    return results


class Checks:
    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def add(self, results: dict[str, dict]):
        for name, r in results.items():
            if r["verdicts"] is None:
                self._check(False, f"{name}: crashed")
                continue
            for key, ok in r["verdicts"].items():
                self._check(ok and r["code"] == 0, f"{name}: verdict {key}")
            if self.first is None:
                if self.reference is not None and name in self.reference:
                    self._check(r["discrete"] == self.reference[name],
                                f"{name}: discrete outputs differ from the reference")
            else:
                prev = self.first.get(name, {})
                self._check(r["artifacts"] == prev.get("artifacts"),
                            f"{name}: artifacts differ from the first pass")
        if self.first is None:
            self.first = results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True, help="directory holding the alflb package")
    ap.add_argument("--workload", required=True, choices=sorted(calibrate.KERNELS),
                    help="whose reference kernel to time beside the configs")
    ap.add_argument("--configs", required=True, help="JSON map of config name to path")
    ap.add_argument("--out", required=True, help="work directory for artifacts")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=None, help="JSON map of config name to digest")
    ap.add_argument("--result", required=True, help="where to write the result JSON")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import alflb
    import alflb.cli as cli

    if src not in Path(alflb.__file__).resolve().parents:
        print(f"alflb imported from {alflb.__file__}, not from {src}", file=sys.stderr)
        return 2

    configs = {k: Path(v) for k, v in json.loads(Path(args.configs).read_text()).items()}
    reference = json.loads(Path(args.reference).read_text()) if args.reference else None
    out = Path(args.out)
    checks = Checks(reference)
    walls = {"untraced": [], "traced": []}
    config_walls = {name: [] for name in configs}
    kernel_walls = {name: [] for name in configs}
    verdicts = {}
    tracer = None
    budget = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    for mode in ("untraced", "traced") if args.trace else ("untraced",):
        if mode == "traced":
            tracer = tracing.Tracer()
            tracing.install(tracer)
            start = time.perf_counter()
        while not walls[mode] or time.perf_counter() - start < budget:
            wall, spans, codes = run_pass(cli, configs, out / "artifacts", args.workload)
            results = inspect_pass(out / "artifacts", codes)
            checks.add(results)
            walls[mode].append(wall)
            if mode == "untraced":
                for name, (t, k) in spans.items():
                    config_walls[name].append(t)
                    kernel_walls[name].append(k)
            verdicts.setdefault(mode, {k: r["verdicts"] for k, r in results.items()})
            artifact_bytes = sum(r.get("bytes", 0) for r in results.values())
            if tracer is not None:
                tracer.take()

    result = {
        "walls": walls,
        "config_walls": config_walls,
        "kernel_walls": kernel_walls,
        "verdicts": verdicts,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures[:20],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "discrete": {k: r.get("discrete") for k, r in (checks.first or {}).items()},
    }
    if tracer is not None:
        per_pass = [tracing.layer_metrics(tracer, log) for log in tracer.logs]
        layers = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
        layers["cli.artifact_bytes"] = artifact_bytes
        layers["trace.wall_s"] = statistics.median(walls["traced"])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(walls["untraced"])
        result["per_layer"] = layers
        tracer.write(out / "spans.tsv.gz")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
