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
One writer, :func:`_write_tables`, formats every table of every subcommand;
it refuses a non-finite number before any file is written, and it
renames its files into place only once all of them are written, so an OS
error while writing (exit 2) leaves none of a failed command's files.
Exit codes: 0 success, 2 invalid arguments, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import (
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
# build_full, build_sparse, evaluate and evaluate_on_grid are not called
# here: perfbench's tracer wraps them under these names
from .qi import (  # noqa: F401
    build_full,
    build_sparse,
    evaluate,
    evaluate_many,
    evaluate_on_grid,
    evaluate_sparse_product_levels,
    from_samples,
)
from .specfun import NumericsError

__all__ = ["main"]

TWO_PI = 2.0 * math.pi

# published 1D L-infinity reference levels for g_6 (N = 32..512), used by
# the table1 gamma sweep to pick the best-matching shape constant
_G6_LINF_REFERENCE = {
    0: {32: 7.057e-03, 64: 1.894e-03, 128: 4.824e-04, 256: 1.212e-04, 512: 3.034e-05},
    1: {32: 1.360e-03, 64: 1.043e-04, 128: 6.869e-06, 256: 4.350e-07, 512: 2.778e-08},
    2: {32: 6.334e-04, 64: 1.485e-05, 128: 2.563e-07, 256: 4.105e-09, 512: 6.453e-11},
}


def _fmt(x: float) -> str:
    return f"{x:.11e}"


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


def _field(name: str, x: int | float | None, path: Path) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise NumericsError(f"non-finite {name} = {x} in {path}")
    return _fmt(x)


def _write_tables(tables) -> None:
    """Write each ``(path, header, rows, sep)`` table, header line first.

    Every field is formatted before the first directory or file is made:
    integers with ``str``, floats with :func:`_fmt`, ``None`` as an empty
    field.  A non-finite float raises :class:`NumericsError` before any
    file is made.  Each table is then written to a temporary file beside
    its path, and the temporary files are renamed onto their paths only
    once every one is written and no path is a directory.  An ``OSError``
    before the renames (say, a directory at a path) leaves no table and no
    temporary file behind; directories made for the tables stay.
    """
    texts = []
    for path, header, rows, sep in tables:
        names = header.split(sep)
        lines = [header]
        for row in rows:
            lines.append(sep.join(_field(n, x, path) for n, x in zip(names, row, strict=True)))
        texts.append((path, "\n".join(lines) + "\n"))
    staged = []
    try:
        for path, text in texts:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.tmp")
            staged.append((tmp, path))
            with open(tmp, "w", newline="") as fh:
                fh.write(text)
        for _, path in staged:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for tmp, path in staged:
            tmp.replace(path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def _with_suffix(path: Path, tag: str) -> Path:
    return path.with_name(f"{path.stem}_{tag}{path.suffix}")


# ---------------------------------------------------------------------------
# Benchmark runners
# ---------------------------------------------------------------------------

def _convergence_table(out: Path, m: int, gamma: float, ns, errs) -> tuple:
    """Order m's table ``out_m<m>.csv`` from its (err_linf, err_l2) per N."""
    rates = [convergence_rates(list(zip(ns, col))) for col in zip(*errs)]
    rows = [(n, TWO_PI / n, gamma, e_inf, r_inf, e_l2, r_l2)
            for n, (e_inf, e_l2), r_inf, r_l2 in zip(ns, errs, *rates)]
    return _with_suffix(out, f"m{m}"), "N,h,gamma,err_linf,rate_linf,err_l2,rate_l2", rows, ","


def run_table1(args: argparse.Namespace) -> None:
    """1D convergence of g_p per kernel order; best gamma from the sweep.

    Only the errors a table prints or a choice reads are computed.  The
    whole (m, gamma) sweep is evaluated at the N's that choose each order's
    gamma (:func:`_choice_levels`), then only each order's chosen gamma at
    the other N's.  Per N and pass, g_p is sampled once on the nodes and
    once at the 4N+1 offset points, and that pass's interpolants are
    evaluated in one call, whose rows are bitwise those of each alone.
    Every table is built before the first file is written.
    """
    ns = _doubling_range(args.nmin, args.nmax)
    g = make_gp(args.p, 1)
    ms = list(dict.fromkeys(args.m))
    errs: dict[tuple[int, float, int], tuple[float, float]] = {}

    def evaluate(n: int, keys) -> None:
        keys = [key for key in dict.fromkeys(keys) if (*key, n) not in errs]
        if not keys:
            return
        samples = gp_eval(g, FullGridSpec((n,)).axis(0))
        qs = [from_samples(samples, (m,), (gamma,)) for m, gamma in keys]
        pts = offset_eval_axis(n)[:, None]
        ref = g(pts)
        for (m, gamma), approx in zip(keys, evaluate_many(qs, pts)):
            errs[m, gamma, n] = error_norms(ref, approx, pts, 1.0)[:2]

    levels = {m: _choice_levels(args.p, m, ns) for m in ms}
    for n in ns:
        evaluate(n, [(m, gamma) for m in ms if n in levels[m] for gamma in args.gamma])
    best = {m: _best_gamma(m, levels[m], args.gamma, errs) for m in ms}
    for n in ns:
        evaluate(n, [(m, best[m]) for m in ms])
    _write_tables([
        _convergence_table(args.out, m, best[m], ns, [errs[m, best[m], n] for n in ns])
        for m in ms
    ])


def _choice_levels(p: int, m: int, ns: list[int]) -> dict[int, float | None]:
    """The N's whose errors choose order m's gamma, each with its reference.

    The N's of ``ns`` that have a published level for g_p at order m, or
    else the finest N alone, with no level (None).
    """
    known = _G6_LINF_REFERENCE.get(m, {}) if p == 6 else {}
    return {n: known[n] for n in ns if n in known} or {ns[-1]: None}


def _best_gamma(m: int, levels: dict[int, float | None], gammas, errs) -> float:
    """Order m's shape constant whose L-infinity errors best match ``levels``.

    ``errs[m, gamma, n]`` holds the (err_linf, err_l2) pair of each gamma
    at each N of ``levels``.  Against reference levels the smallest sum of
    squared log ratios wins; with no level, the smallest error.  A zero
    error has no log ratio and raises :class:`NumericsError`.
    """
    if None in levels.values():
        (n,) = levels
        return min(gammas, key=lambda gamma: errs[m, gamma, n][0])

    def score(gamma: float) -> float:
        total = 0.0
        for n, level in levels.items():
            err = errs[m, gamma, n][0]
            if err == 0.0:
                raise NumericsError(f"degenerate zero error at N={n}, gamma={gamma}")
            total += math.log(err / level) ** 2
        return total

    return min(gammas, key=score)


def _errors_2d(u: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Errors of Q = u x u against G_p = g x g on the (4N+1)^2 offset grid.

    ``u`` and ``g`` are the 1D interpolant and g_p at the 4N+1 offset
    points.  With e = u - g, Q - G_p = e x u + g x e, so the sum of
    squares over the grid is (e.e)(u.u + g.g) + 2 (e.g)(e.u); every term
    is nonnegative up to round-off, since u is close to g, so nothing
    cancels.

    The maximum is bitwise that of every |fl(fl(e_i u_j) + fl(g_i e_j))|,
    but only the entries whose bound can reach it are formed.  The rows at
    the largest |e_i| and the largest |g_i| give a lower bound L on it.
    Entry (i, j) has magnitude at most (1 + 2^-53)^2 S_ij with
    S_ij = |e_i| |u_j| + |g_i| |e_j|, and S_ij is at most the row bound
    |e_i| max|u| + |g_i| max|e| and, over the kept rows R, the column bound
    max_R|e| |u_j| + max_R|g| |e_j|.  Each bound is computed with four
    roundings, so a row or column whose bound times (1 + 2^-40) is below L
    holds only entries whose rounded magnitude is below L, and dropping it
    leaves the maximum as it is.  For L >= 1e-300 the absolute error of an
    underflowing product (at most 2^-1075) is far below L 2^-40 as well.
    When L is 0, below 1e-300 or not finite (NaN or inf in u or g, u = g),
    every row and column is kept.  The kept entries are formed in row
    blocks of at most about 2^20 values, so no (4N+1)^2 array is ever
    built.
    """
    e = u - g

    def dot(x: np.ndarray, y: np.ndarray) -> float:
        # einsum sums on this thread; a BLAS dot splits long vectors across
        # its threads, which moves the last bits with the thread count
        return float(np.einsum("i,i->", x, y))

    def abs_grid(rows, cols) -> np.ndarray:
        block = np.multiply.outer(e[rows], u[cols])
        block += np.multiply.outer(g[rows], e[cols])
        return np.abs(block, out=block)

    sq = dot(e, e) * (dot(u, u) + dot(g, g)) + 2.0 * dot(e, g) * dot(e, u)
    ae, au, ag = np.abs(e), np.abs(u), np.abs(g)
    rows = cols = np.arange(u.size)
    low = abs_grid([np.argmax(ae), np.argmax(ag)], cols).max()
    if 1e-300 <= low < math.inf:
        slack = 1.0 + 2.0**-40
        rows = np.flatnonzero((ae * au.max() + ag * ae.max()) * slack >= low)
        cols = np.flatnonzero((ae[rows].max() * au + ag[rows].max() * ae) * slack >= low)
    step = max(1, (1 << 20) // cols.size)
    err_linf = 0.0
    for start in range(0, rows.size, step):
        # numpy's maximum carries a NaN through, Python's max would drop it
        err_linf = np.maximum(err_linf, abs_grid(rows[start:start + step], cols).max())
    return float(err_linf), math.sqrt(sq / u.size**2 * TWO_PI**2)


def run_conv2d(args: argparse.Namespace) -> None:
    """2D convergence of G_p on tensor grids.

    G_p = g_p x g_p and the interpolant's kernel is a tensor product, so
    the interpolant of G_p's N x N samples is u x u, where u is the 1D
    interpolant of one axis's samples.  Per N, g_p is sampled once on the
    nodes and once at the 4N+1 offset points, and every order's u is
    evaluated in one call, whose rows are bitwise those of each alone; the
    errors follow from u and g_p by :func:`_errors_2d`.  Every table is
    built before the first file is written.
    """
    gamma = args.gamma
    ns = _doubling_range(args.nmin, args.nmax)
    g1 = make_gp(args.p, 1)
    ms = list(dict.fromkeys(args.m))
    errs: dict[int, list[tuple[float, float]]] = {m: [] for m in ms}
    for n in ns:
        a = gp_eval(g1, FullGridSpec((n,)).axis(0))
        ax = offset_eval_axis(n)
        g = gp_eval(g1, ax)
        qs = [from_samples(a, (m,), (gamma,)) for m in ms]
        for m, u in zip(ms, evaluate_many(qs, ax[:, None])):
            errs[m].append(_errors_2d(u, g))
    _write_tables([_convergence_table(args.out, m, gamma, ns, errs[m]) for m in ms])


def run_sparse(args: argparse.Namespace) -> None:
    """Sparse-grid relative errors versus total sample count.

    G_p is the tensor product of g_p, so every level's combination-technique
    interpolant is a signed sum of products of 1D interpolants of g_p
    (:func:`~torusqi.qi.evaluate_sparse_product_levels`): g_p is sampled
    once per axis node count of all the levels, and each 1D interpolant is
    evaluated once per axis at the points, for every level holding it.
    """
    lo, hi = args.levels
    if lo < 1 or hi < lo:
        raise ValueError(f"--levels range invalid: {args.levels}")
    g = make_gp(args.p, args.dims)
    pts = lcg_uniform_points(8192, args.dims, args.seed)
    ref = g(pts)
    scale = float(np.max(np.abs(ref)))
    specs = [SparseGridSpec(level, args.dims) for level in range(lo, hi + 1)]
    approx = evaluate_sparse_product_levels(lambda a: gp_eval(g, a), specs, args.m, args.gamma, pts)
    rows = []
    for spec, row in zip(specs, approx):
        _, _, rel_inf, rel_l2 = error_norms(ref, row, pts, scale)
        rows.append((spec.level, sparse_grid_count_formula(spec), rel_inf, rel_l2))
    _write_tables([(args.out, "level npoints rel_linf rel_l2", rows, " ")])


def run_strangfix(args: argparse.Namespace) -> None:
    """Fitted coefficient-saturation exponents per kernel order."""
    ns = _doubling_range(args.nmin, args.nmax)
    probes = [1, 2, 3]
    rows = []
    for m in dict.fromkeys(args.m):
        report = strang_fix_certify(m, args.gamma, ns, probes)
        rows += [(m, args.gamma, ell, report.orders[ell], report.saturation_max,
                  report.aliasing_max) for ell in probes]
    _write_tables([(args.out, "m gamma ell order saturation_max aliasing_max", rows, " ")])


def run_kernel_dump(args: argparse.Namespace) -> None:
    """Profiles of psi(alpha; c) and psi_hat(ell; c) with c = gamma 2pi/nmin."""
    if args.nmin < 1:
        raise ValueError(f"--nmin must be >= 1, got {args.nmin}")
    if not 0 <= args.nmax <= FOURIER_MAX_FREQ:
        raise ValueError(f"--nmax must be in [0, {FOURIER_MAX_FREQ}], got {args.nmax}")
    p = KernelParams(args.m, args.gamma * (TWO_PI / args.nmin))
    alphas = TWO_PI * np.arange(4097) / 4096  # endpoint repeated for trapezoid
    values = psi_restricted(p, alphas)
    hats = psi_fourier_analytic(p, np.arange(args.nmax + 1)).tolist()
    _write_tables([(_with_suffix(args.out, "psi"), "alpha psi", zip(alphas, values), " "),
                   (_with_suffix(args.out, "psihat"), "ell psi_hat", enumerate(hats), " ")])


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
        _RUNNERS[args.subcommand](args)
    except (ValueError, OSError) as exc:
        print(f"torus-qi: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ArithmeticError) as exc:
        print(f"torus-qi: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
