"""Benchmark self-test: counts repeat exactly and tracing changes no verdict.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "run.py"
COUNTS = (
    "router.route_calls", "router.changed_ratio", "deterministic.iterations",
    "deterministic.switch_records", "stochastic.quad_nodes", "distributions.draws",
    "cli.artifact_bytes",
)


def _run(trace: int, workload: str = "small_lab", seed: int = 5):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=RUN.parents[1], stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0
    return details, result


def test_counts_repeat_and_tracing_keeps_verdicts():
    first_details, first = _run(trace=1)
    _, second = _run(trace=1)
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["router.route_calls"]["value"] > 0

    verdicts = first_details["verdicts"]
    assert verdicts["traced"] == verdicts["untraced"]
    untraced_details, _ = _run(trace=0)
    assert untraced_details["verdicts"]["untraced"] == verdicts["traced"]
