"""Benchmark of the torus-qi command line: end-to-end and per-layer metrics.

Run from the root of a checkout (the directory holding ``src/torusqi``):

    python3 perfbench/run.py --workload sparse --seed 0 --seconds 50 --trace 0

Each pass of a workload is a fresh interpreter (``worker.py``) that runs
the workload's ``torus-qi`` commands in sequence through
``torusqi.cli.main``, with ``PYTHONPATH=src`` and BLAS threads capped at
the number of usable CPUs.  Every pass's outputs are checked row by row
against the captures in ``golden/`` (see ``check.py``).

``--trace 0`` runs SETUP_PROBES probes (a fresh interpreter that stops at
the first layer call) and then whole passes while one more, as long as the
last, brings the run's end nearer to ``--seconds``, at least one.  It
reports the medians of ``setup_s`` (probes and passes),
``wall_s``, ``cpu_s`` and ``peak_rss_mb`` (passes).

``--trace 1`` alternates untraced and traced passes (``tracer.py``) in the
same way, at least one of each, and reports the median of every
per-layer metric over the traced passes, the tracing overhead (median
traced minus median untraced ``wall_s``), and the share of the traced
wall that span self-times cover, which must be within 10% of 1.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted`` and ``failed`` (output rows)
and ``metrics``.  The exit code is 0 when a result was printed, 2 when the
checkout has no library to measure, and 1 when no pass could be measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import check_pass
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6
RUN_LIMIT_S = 170.0  # a run must end within 180 s
COVERAGE_TOLERANCE = 0.10


class MeasureError(RuntimeError):
    """No pass of the workload produced a report."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env(root: Path) -> dict[str, str]:
    """Environment of a worker: the checkout's library, BLAS threads <= CPUs."""
    threads = str(len(os.sched_getaffinity(0)))
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Bench:
    """Spawns worker passes of one workload and checks their outputs."""

    def __init__(self, root: Path, workload, seed: int, tmp: Path) -> None:
        self.root, self.workload, self.seed, self.tmp = root, workload, seed, tmp
        self.started = _now()
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.env = worker_env(root)

    def elapsed(self) -> float:
        return _now() - self.started

    def spawn(self, mode: str) -> dict | None:
        """Run one worker; check its outputs unless it is a probe."""
        self.spawned += 1
        out_dir = self.tmp / f"{self.spawned}"
        out_dir.mkdir()
        stdout, stderr = out_dir / "stdout", out_dir / "stderr"
        argv = [sys.executable, str(HERE / "worker.py"), self.workload.name,
                str(self.seed), str(out_dir)]
        with open(stdout, "w") as out, open(stderr, "w") as err:
            spawned_at = _now()
            proc = subprocess.Popen(argv + [repr(spawned_at), mode], stdout=out,
                                    stderr=err, cwd=self.root, env=self.env)
            try:
                proc.wait(timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
            except subprocess.TimeoutExpired:
                self.errors.append(f"{mode} pass timed out")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        report = None
        lines = stdout.read_text().splitlines()
        if proc.returncode == 0 and lines:
            report = json.loads(lines[-1])
            self.errors += report["errors"]
        else:
            tail = stderr.read_text()[-2000:]
            self.errors.append(f"{mode} worker exited {proc.returncode}: {tail}")
        if mode != "probe":
            owed, bad = check_pass(self.workload, report and report["commands"], out_dir,
                                   self.seed)
            self.attempted += owed
            self.failed += bad
        return report

    def room_for(self, duration: float) -> bool:
        return self.elapsed() + duration < RUN_LIMIT_S


def metric_units(root: Path, kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "no percentile with 10 samples beyond it"
    k = n - 11
    return f"p{100.0 * (k + 1) / n:.0f} {sorted(values)[k]:.6g}"


def timed_run(s: Bench, seconds: float, units: dict[str, str]) -> tuple[dict, list[dict]]:
    setups = []
    for _ in range(SETUP_PROBES):
        report = s.spawn("probe")
        if report and "setup_s" in report:
            setups.append(report["setup_s"])
    passes: list[dict] = []
    last = 0.0
    while (not passes or s.elapsed() + last / 2 < seconds) and s.room_for(last):
        begun = s.elapsed()
        report = s.spawn("pass")
        last = s.elapsed() - begun
        if report is None:
            break
        passes.append(report)
        if "setup_s" in report:
            setups.append(report["setup_s"])
    if not passes or not setups:
        raise MeasureError("no untraced pass completed")
    samples = {name: setups if name == "setup_s" else [p[name] for p in passes]
               for name in units}
    for name, values in samples.items():
        print(f"{name:12s} median {statistics.median(values):.6g} {units[name]}"
              f"  {_tail(values)}  n={len(values)}"
              f"  samples {' '.join(f'{v:.4g}' for v in values)}")
    for i, command in enumerate(s.workload.commands):
        walls = [p["commands"][i]["wall_s"] for p in passes]
        print(f"  command {i + 1} ({' '.join(command.argv[:3])} ...)"
              f"  median {statistics.median(walls):.6g} s")
    metrics = {name: {"value": statistics.median(values), "unit": units[name]}
               for name, values in samples.items()}
    return metrics, passes


def traced_run(s: Bench, seconds: float, units: dict[str, str]) -> tuple[dict, list[dict]]:
    plain: list[dict] = []
    traced: list[dict] = []
    last = 0.0
    while (not traced or s.elapsed() + last / 2 < seconds) and s.room_for(last):
        begun = s.elapsed()
        a = s.spawn("pass")
        b = s.spawn("trace")
        last = s.elapsed() - begun
        if a is None or b is None:
            break
        plain.append(a)
        traced.append(b)
    if not traced:
        raise MeasureError("no traced pass completed")
    overhead = (statistics.median(t["wall_s"] for t in traced)
                - statistics.median(p["wall_s"] for p in plain))
    values = {name: statistics.median(t["layers"][name] for t in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_s"] = overhead
    for t in traced:
        if abs(t["layers"]["trace.coverage"] - 1.0) > COVERAGE_TOLERANCE:
            s.errors.append(f"span self-times cover {t['layers']['trace.coverage']:.3f} "
                            "of the traced wall")
    if set(values) != set(units):
        s.errors.append(f"traced metrics differ from per_layer: {set(values) ^ set(units)}")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
        print(f"{name:36s} {metrics[name]['value']:.6g} {unit}")
    print(f"tracing overhead {overhead:+.4g} s on a median untraced wall of "
          f"{statistics.median(p['wall_s'] for p in plain):.4g} s "
          f"({len(traced)} traced, {len(plain)} untraced passes)")
    return metrics, traced + plain


def _metadata(s: Bench, reports: list[dict]) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=s.root, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((s.root / "src" / "torusqi").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": s.workload.name,
        "seed": s.seed,
        "runs": len(reports),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        **reports[0]["meta"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "torusqi" / "cli.py").is_file():
        print(f"perfbench: no src/torusqi under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        s = Bench(root, WORKLOADS[args.workload], args.seed, Path(tmp))
        try:
            if args.trace:
                run, kind = traced_run, "per_layer"
            else:
                run, kind = timed_run, "end_to_end"
            metrics, reports = run(s, args.seconds, metric_units(root, kind))
        except MeasureError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            for error in s.errors:
                print(f"perfbench: {error}", file=sys.stderr)
            return 1
        print("meta " + json.dumps(_metadata(s, reports)))
    for error in s.errors:
        print(f"error: {error}")
    print(f"failed_ops   {s.failed}/{s.attempted} rows = "
          f"{s.failed / s.attempted:.6g} share")
    print(json.dumps({
        "correct": s.failed == 0 and not s.errors,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
