"""Write the golden outputs the benchmark checks against.

Run once from the root of a checkout of the commit whose behaviour the
benchmark freezes:

    python3 perfbench/capture.py

Each workload runs once, untraced, at every seed of GOLDEN_SEEDS (at seed
0 only if it takes no seed); its output files replace
``perfbench/golden/<workload>/seed<n>/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from check import GOLDEN, golden_dir
from run import HERE, worker_env
from workloads import GOLDEN_SEEDS, WORKLOADS


def main() -> int:
    root = Path.cwd()
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name, workload in WORKLOADS.items():
        for seed in GOLDEN_SEEDS if workload.seeded else (0,):
            out = golden_dir(workload, seed)
            out.mkdir(parents=True)
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), name, str(seed), str(out),
                 "0", "pass"],
                cwd=root, env=worker_env(root), capture_output=True, text=True, check=True,
            )
            report = json.loads(proc.stdout.splitlines()[-1])
            if any(c["rc"] != 0 or c["error"] for c in report["commands"]):
                print(f"{name} seed {seed}: a command failed: {report['commands']}",
                      file=sys.stderr)
                return 1
            print(f"{name} seed {seed}: {', '.join(sorted(p.name for p in out.iterdir()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
