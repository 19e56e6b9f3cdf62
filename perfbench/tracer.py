"""Per-layer spans recorded from outside the library.

The tracer replaces a module attribute that a caller looks up (for example
``torusqi.qi.psi_restricted``, which ``qi`` resolves at call time) with a
wrapper that times the call, and puts the original back afterwards.  The
library source is not modified.  Spans nest through a stack, so each span
knows its parent; a span's self time is its duration minus the time its
direct child spans took.  Counts are computed from the call's arguments
and result after the span closes, from public fields only.

Helpers called once per node (``dyadic_key_angles``) or once per term and
dimension (``stencil_halfwidth``, ``laguerre_coeffs``) are not wrapped:
their cost stays in the caller's self time and the wrappers stay cheap.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

import torusqi.analysis
import torusqi.cli
import torusqi.kernel
import torusqi.qi

ROOT = "cli"
BYTES_PER_SAMPLE = 8  # float64 sample gathered per window element


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, start, child seconds]
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()  # (parent name, name) -> calls
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                duration = time.perf_counter() - frame[1]
                self.inclusive[name] += duration
                self.self_time[name] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
                self.calls[(parent, name)] += 1
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def calls_to(self, name: str, parent: str | None = None) -> int:
        return sum(n for (p, c), n in self.calls.items()
                   if c == name and (parent is None or p == parent))


def window_elems_per_point(q) -> int:
    """Kernel-weighted samples the windowed evaluation touches per point.

    Sum over combination terms (one term for a full interpolant) of
    prod_r min(2 hw_r + 1, n_r), from ``stencil_halfwidths`` and
    ``grid.counts``.
    """
    components = [c for _, c in q.terms] if hasattr(q, "terms") else [q]
    return sum(
        math.prod(min(2 * hw + 1, n) for hw, n in zip(c.stencil_halfwidths, c.grid.counts))
        for c in components
    )


def _count_evaluate(counts, args, result) -> None:
    q, points = args[0], args[1]
    n = len(points)
    terms = len(q.terms) if hasattr(q, "terms") else 1
    dims = q.spec.dims if hasattr(q, "terms") else q.grid.dims
    counts["qi.evaluate_points"] += n
    counts["qi.window_elems"] += n * window_elems_per_point(q)
    counts["qi.evaluate_term_dims"] += terms * dims


def _count_evaluate_on_grid(counts, args, result) -> None:
    # one GEMM per axis: M_r x N_r kernel matrix against the remaining axes,
    # already contracted ones at their M size, pending ones at their N size
    q, axes = args[0], args[1]
    ms = [len(a) for a in axes]
    ns = list(q.grid.counts)
    for r in range(len(ns)):
        batch = math.prod(ms[:r]) * math.prod(ns[r + 1:])
        counts["qi.evaluate_on_grid_flops_computed"] += 2 * ms[r] * ns[r] * batch


def _counter(metric, measure):
    def count(counts, args, result) -> None:
        counts[metric] += measure(args, result)

    return count


# (owner, attribute the caller looks up, span name, counter)
_PATCHES = (
    (torusqi.cli, "build_full", "qi.build_full", None),
    (torusqi.cli, "build_sparse", "qi.build_sparse", None),
    (torusqi.cli, "evaluate", "qi.evaluate", _count_evaluate),
    (torusqi.cli, "evaluate_on_grid", "qi.evaluate_on_grid", _count_evaluate_on_grid),
    (torusqi.cli, "error_norms", "analysis.error_norms", None),
    (torusqi.cli, "lcg_uniform_points", "analysis.lcg_uniform_points", None),
    (torusqi.cli, "make_gp", "analysis.make_gp", None),
    (torusqi.cli, "offset_eval_axis", "analysis.offset_eval_axis", None),
    (torusqi.cli, "gp_eval", "analysis.gp_eval", None),
    (torusqi.cli, "convergence_rates", "analysis.convergence_rates", None),
    (torusqi.cli, "sparse_grid_count_formula", "grid.sparse_grid_count_formula", None),
    (torusqi.cli, "strang_fix_certify", "kernel.strang_fix_certify", None),
    (torusqi.qi, "psi_restricted", "kernel.psi_restricted",
     _counter("kernel.psi_restricted_elems", lambda a, r: np.size(r))),
    (torusqi.qi, "sparse_grid_points", "grid.sparse_grid_points",
     _counter("grid.sparse_nodes", lambda a, r: len(r))),
    (torusqi.qi, "combination_terms", "grid.combination_terms",
     _counter("grid.combination_terms", lambda a, r: len(r))),
    (torusqi.qi, "full_grid_nodes", "grid.full_grid_nodes",
     _counter("grid.full_grid_points", lambda a, r: len(r))),
    (torusqi.kernel, "psi_fourier_analytic", "kernel.psi_fourier_analytic", None),
    (torusqi.kernel, "jet_psi2_hat", "specfun.jet_psi2_hat", None),
    (torusqi.analysis.TestFunctionGp, "__call__", "analysis.target",
     _counter("analysis.target_points", lambda a, r: len(r))),
)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced attribute; restore all of them on exit, even on error."""
    originals = []
    try:
        for owner, attr, name, count in _PATCHES:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def unrestored() -> list[str]:
    """Traced attributes that are still wrappers (empty after a clean exit)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in _PATCHES
        if hasattr(owner.__dict__[attr], "__wrapped__")
    ]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose workload took wall_s."""
    t, c = tracer, tracer.counts
    evaluate_s = t.inclusive["qi.evaluate"]
    analytic_calls = t.calls_to("kernel.psi_fourier_analytic")
    jet_calls = t.calls_to("specfun.jet_psi2_hat")
    term_dims = c["qi.evaluate_term_dims"]
    evaluate_psi_calls = t.calls_to("kernel.psi_restricted", parent="qi.evaluate")
    return {
        "qi.evaluate_s": evaluate_s,
        "qi.evaluate_self_s": t.self_time["qi.evaluate"],
        "qi.evaluate_points": c["qi.evaluate_points"],
        "qi.window_elems": c["qi.window_elems"],
        "qi.window_bytes_computed": BYTES_PER_SAMPLE * c["qi.window_elems"],
        "qi.window_elems_per_s": c["qi.window_elems"] / evaluate_s if evaluate_s else 0.0,
        "qi.window_reuse_ratio": 1.0 - evaluate_psi_calls / term_dims if term_dims else 0.0,
        "kernel.psi_restricted_s": t.inclusive["kernel.psi_restricted"],
        "kernel.psi_restricted_elems": c["kernel.psi_restricted_elems"],
        "grid.sparse_grid_points_s": t.inclusive["grid.sparse_grid_points"],
        "grid.sparse_nodes": c["grid.sparse_nodes"],
        "grid.combination_terms": c["grid.combination_terms"],
        "qi.build_sparse_self_s": t.self_time["qi.build_sparse"],
        "analysis.target_s": t.inclusive["analysis.target"],
        "analysis.target_points": c["analysis.target_points"],
        "kernel.psi_fourier_analytic_s": t.inclusive["kernel.psi_fourier_analytic"],
        "kernel.psi_fourier_analytic_calls": analytic_calls,
        "kernel.series_hit_ratio": 1.0 - jet_calls / analytic_calls if analytic_calls else 0.0,
        "specfun.jet_psi2_hat_s": t.inclusive["specfun.jet_psi2_hat"],
        "specfun.jet_psi2_hat_calls": jet_calls,
        "kernel.strang_fix_certify_s": t.inclusive["kernel.strang_fix_certify"],
        "qi.evaluate_on_grid_s": t.inclusive["qi.evaluate_on_grid"],
        "qi.evaluate_on_grid_flops_computed": c["qi.evaluate_on_grid_flops_computed"],
        "qi.build_full_self_s": t.self_time["qi.build_full"],
        "grid.full_grid_nodes_s": t.inclusive["grid.full_grid_nodes"],
        "grid.full_grid_points": c["grid.full_grid_points"],
        "analysis.lcg_uniform_points_s": t.inclusive["analysis.lcg_uniform_points"],
        "analysis.error_norms_s": t.inclusive["analysis.error_norms"],
        "cli.self_s": t.self_time[ROOT],
        "trace.coverage": sum(t.self_time.values()) / wall_s,
    }
