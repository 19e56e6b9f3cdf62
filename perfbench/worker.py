"""One pass of a workload in a fresh interpreter; prints one JSON line.

Run by ``run.py``, never by hand:

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR SPAWNED_AT MODE

SPAWNED_AT is the runner's CLOCK_MONOTONIC reading just before it started
this process, so ``setup_s`` covers interpreter start, the numpy, scipy and
torusqi imports, and argument parsing, up to the first layer call: the
entry of the subcommand runner that ``torusqi.cli.main`` dispatches to.

MODE is ``probe`` (stop at the first layer call), ``pass`` (run the
workload untraced) or ``trace`` (run it with per-layer spans, then verify
that every wrapped attribute was restored and run the window-count
self-check).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _hook_runners(cli, first_call: list, run: bool) -> None:
    """Record the first runner entry; in a probe, skip the runner itself."""

    def hook(runner):
        def entered(cfg):
            if not first_call:
                first_call.append(_now())
            return runner(cfg) if run else None

        return entered

    for name, runner in list(cli._RUNNERS.items()):
        cli._RUNNERS[name] = hook(runner)


def _run_commands(main, argvs) -> list[dict]:
    results = []
    for argv in argvs:
        start = _now()
        try:
            result = {"rc": main(argv), "error": None}
        except SystemExit as exc:
            result = {"rc": exc.code, "error": "SystemExit"}
        except Exception:  # a crash fails the rows this command owed
            result = {"rc": None, "error": traceback.format_exc(limit=3)}
        result["wall_s"] = _now() - start
        results.append(result)
    return results


def _self_check(errors: list[str]) -> None:
    """Pin the ROADMAP window figure: d=3, level 9 has 109 terms, 71,186 elements."""
    import numpy as np

    from torusqi import SparseGridSpec, build_sparse
    from tracer import window_elems_per_point

    q = build_sparse(lambda p: np.ones(len(p)), SparseGridSpec(9, 3), 2, 1.0)
    got = (len(q.terms), window_elems_per_point(q))
    if got != (109, 71186):
        errors.append(f"window self-check: d=3 level 9 gave (terms, elems/point) {got}")


def _metadata() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main() -> int:
    name, seed, out_dir, spawned_at, mode = sys.argv[1:6]
    import torusqi.cli as cli

    from workloads import WORKLOADS

    argvs = WORKLOADS[name].argvs(int(seed), out_dir)
    first_call: list[float] = []
    _hook_runners(cli, first_call, run=mode != "probe")
    report: dict = {"errors": []}
    if mode == "probe":
        _run_commands(cli.main, argvs[:1])
    elif mode == "pass":
        start = _now()
        report["commands"] = _run_commands(cli.main, argvs)
        report["wall_s"] = _now() - start
    else:
        import tracer

        t = tracer.Tracer()
        with tracer.installed(t):
            start = _now()
            report["commands"] = _run_commands(t.wrap(tracer.ROOT, cli.main), argvs)
            wall = _now() - start
        report["wall_s"] = wall
        report["layers"] = tracer.layer_metrics(t, wall)
        report["errors"] += [f"attribute not restored: {a}" for a in tracer.unrestored()]
        _self_check(report["errors"])
    if first_call:
        report["setup_s"] = first_call[0] - float(spawned_at)
    else:
        report["errors"].append("no command reached a layer call")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
    report["meta"] = _metadata()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
