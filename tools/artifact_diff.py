"""Byte-for-byte comparison of the CLI's artifacts between two checkouts.

Generates every config of the benchmark's workloads (``perfbench/workloads.py``,
imported read-only, with this checkout's alflb) at the given benchmark seeds,
runs each through ``alflb.cli.main`` once under this checkout's ``src`` and
once under ``--parent CHECKOUT``'s, each checkout in one fresh interpreter,
and compares the exit codes and every file each run wrote, byte for byte.
It lists the runs whose exit code or files differ and exits 1 on any
difference, 0 when every run agrees.

    python tools/artifact_diff.py --parent ../alflb-parent --seeds 1 7

This is not part of the test suite or of ``perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def run_configs(runs_file: Path) -> int:
    """Child mode: run each ``(kind, config, out)`` of ``runs_file`` through
    the alflb on ``sys.path`` and write the exit codes beside it."""
    from alflb import cli

    runs = json.loads(runs_file.read_text())
    codes = [
        cli.main([kind.replace("_", "-"), "--config", config, "--out", out])
        for kind, config, out in runs
    ]
    result = {"cli": cli.__file__, "codes": codes}
    runs_file.with_suffix(".codes.json").write_text(json.dumps(result))
    return 0


def _configs(seeds: list[int], config_root: Path) -> list[tuple[str, str, str]]:
    """Write every workload config at ``seeds``; (kind, config path, run id)."""
    sys.path[:0] = [str(HERE / "perfbench"), str(HERE / "src")]
    import workloads

    out = []
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            for name, cfg in workloads.generate(workload, seed).items():
                run_id = f"{workload}/seed{seed}/{name}"
                path = config_root / f"{run_id}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(cfg))
                out.append((cfg["kind"], str(path), run_id))
    return out


def _run_checkout(src: Path, configs, out_root: Path) -> list[int]:
    """Exit codes of every config, run by one child under ``src``."""
    runs = [(kind, path, str(out_root / run_id)) for kind, path, run_id in configs]
    out_root.mkdir(parents=True)
    runs_file = out_root / "runs.json"
    runs_file.write_text(json.dumps(runs))
    # what the runs print (config errors, tracebacks) is kept, not compared
    with open(out_root / "stderr.txt", "w") as err:
        subprocess.run(
            [sys.executable, __file__, "--run", str(runs_file)],
            env=dict(os.environ, PYTHONPATH=str(src)), check=True,
            stdout=subprocess.DEVNULL, stderr=err,
        )
    result = json.loads(runs_file.with_suffix(".codes.json").read_text())
    if not Path(result["cli"]).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"{src}: the child imported {result['cli']}")
    return result["codes"]


def _files(run_dir: Path) -> dict[str, bytes]:
    if not run_dir.is_dir():
        return {}
    return {
        str(p.relative_to(run_dir)): p.read_bytes()
        for p in sorted(run_dir.rglob("*")) if p.is_file()
    }


def compare(parent: Path, seeds: list[int], work: Path) -> list[str]:
    """The differences between the two checkouts' runs, one line each."""
    configs = _configs(seeds, work / "configs")
    codes = {
        side: _run_checkout(src / "src", configs, work / side)
        for side, src in (("parent", parent), ("change", HERE))
    }
    diffs = []
    files = 0
    for (_, _, run_id), a, b in zip(configs, codes["parent"], codes["change"]):
        if a != b:
            diffs.append(f"{run_id}: exit code {a} -> {b}")
        before = _files(work / "parent" / run_id)
        after = _files(work / "change" / run_id)
        files += len(after)
        for name in sorted(before.keys() | after.keys()):
            if before.get(name) != after.get(name):
                what = "differs" if name in before and name in after else (
                    "only in the parent" if name in before else "only in the change"
                )
                diffs.append(f"{run_id}/{name}: {what}")
    print(f"{len(configs)} runs at seeds {seeds}, {files} files written by the change; "
          f"exit codes {sorted(set(codes['change']))}")
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="the checkout to compare against")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7],
                    help="benchmark seeds to generate the configs at")
    ap.add_argument("--work", type=Path, default=None,
                    help="keep the configs and artifacts in this new directory")
    ap.add_argument("--run", type=Path, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run is not None:
        return run_configs(args.run)
    if args.parent is None:
        ap.error("--parent is required")

    parent = args.parent.resolve()
    if args.work is not None:
        args.work.mkdir(parents=True)
        diffs = compare(parent, args.seeds, args.work)
    else:
        with tempfile.TemporaryDirectory() as work:
            diffs = compare(parent, args.seeds, Path(work))
    for line in diffs:
        print(line)
    print("identical" if not diffs else f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
