"""Record reference.json: the discrete-output digests of every workload at
the default seed.

    python3 perfbench/record_reference.py

Run it only when a change is meant to alter discrete outputs (switch counts,
loads, tie flags, balance iterations), and say so where the change is
described.  Each workload runs one pass at the default seed.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import DEFAULT_SEED, HERE
from workloads import WORKLOADS


def main() -> int:
    discrete = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(DEFAULT_SEED), "--seconds", "0", "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=300,
        )
        if proc.returncode not in (0, 1):  # 1: the old reference no longer matches
            return proc.returncode
        details = json.loads(proc.stdout.splitlines()[-2])
        discrete[workload] = {k: v for k, v in details["discrete"].items() if v is not None}
    (HERE / "reference.json").write_text(
        json.dumps({"seed": DEFAULT_SEED, "discrete": discrete}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
