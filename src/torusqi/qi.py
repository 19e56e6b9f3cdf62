"""Quasi-interpolants on the torus: full-grid, anisotropic, and sparse.

An interpolant-free approximant is assembled directly from samples,

    Qf(x) = sum_j f(x_j) * prod_r w_r psi_{2 m_r + 2}(x_r - x_{j,r}; c_r),

with weights w_r = 2 pi / N_r (the grid spacing) and shapes coupled to the
mesh as c_r = gamma_r * 2 pi / N_r.  ``QuasiInterpolant`` is built from the
samples and one ``KernelParams`` per axis, and the grid fixes the rest;
``from_samples`` takes the sample array and (m_r, gamma_r); ``build_full``
and ``build_aniso`` first sample a callable on the grid.  Evaluation
contracts the samples separably against one kernel matrix per dimension.
Each dimension's node window is truncated where the kernel envelope falls
below 1e-15 of its peak, at the interpolant's ``stencil_halfwidths``.  A
truncated kernel is a window: its W x P values, window-major, and each
point's first node; a kernel whose window spans the axis is a dense
matrix.  The kernel depends on an offset alpha only through the chord
t = 2 sin^2(alpha/2) (``psi_from_chord``), so ``evaluate_many`` computes t
once per dimension and node count: over the widest truncated window for
every truncated kernel on that axis, and over the axis for every spanning
one.  A count half that of the group built before it on the axis takes
most of its chords from that group's, bitwise: fl(2 pi / n) / 2 is
fl(2 pi / 2n), so its offset at node j is the finer offset at node 2j,
and only the chords outside the finer window call ``sin``.  A 1D grid is
one sum per point over its window, sequential in window order (the bits
of a CSR matrix-vector product), or one dense product.  A grid of d >= 2 dimensions goes through
one sparse (CSR) matrix product for its largest dimension, then
elementwise per-point contractions for the others; each window becomes a
CSR matrix once per kernel.  Each kernel matrix is built at its first use
and dropped after its last.  The points are cut into a fixed partition of
blocks (up to four, or more where a block's window arrays would exceed a
fixed element budget; from the point count and the grids alone), each
evaluated into its own columns of the result: on the calling thread for
1D grids, on a per-call thread pool over the usable CPUs for d >= 2.  The
blocks are whole BLAS row tiles, so the values are those of one unblocked
evaluation, bitwise equal at any CPU count.  Tensor-product evaluation grids (``evaluate_on_grid``)
contract one axis at a time, last first, each as one sparse product of
that axis's window matrix, built as ``evaluate_many`` builds it.  Only
CSR matrices need scipy: this module imports ``scipy.sparse`` inside the
d >= 2 and grid paths, so ``evaluate_many`` of 1D grids never loads it,
nor ``concurrent.futures``, which only the d >= 2 thread pool imports.
``evaluate_dense`` is the correctness oracle: it sums the formula above over
every node, with kernel values from ``psi_restricted`` and no truncation.

The sparse-grid variant applies the combination technique: a signed sum of
anisotropic quasi-interpolants over dyadic grids.  The target function is
sampled once on the sorted int64 position words of the distinct sparse-grid
nodes, and each component grid looks its samples up by word.  A sweep over
several levels (``build_sparse_levels``) samples only the finest level's
nodes, which contain every coarser level's, and shares each component grid
between the levels whose combinations hold it; ``evaluate_many`` then
evaluates each shared component and builds each per-axis kernel matrix
once for all levels.  A product target phi(x_1) ... phi(x_d) needs no
node store and no component grid: every combination grid and its kernel
are tensor products, so a term's interpolant is a product of 1D
interpolants of phi, one per axis.  ``evaluate_sparse_product_levels``
samples phi once per axis node count, evaluates each 1D interpolant once
per axis at the points (finest count first, so that each count reuses the
chords of twice that count), and sums each level's signed products in term
order.  Both sparse paths run one set of checks (specs, gamma, size
guard) before anything is sampled.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cache, reduce
from typing import Callable, Sequence

import numpy as np

from .grid import (
    CombinationTerm,
    FullGridSpec,
    SparseGridSpec,
    check_sparse_grid_size,
    combination_grid_words,
    combination_terms,
    full_grid_nodes,
    sparse_grid_nodes,
    sparse_grid_points,
)
from .kernel import (
    KernelParams,
    psi_from_chord,
    psi_restricted,
)
from .specfun import NumericsError, laguerre_coeffs

__all__ = [
    "QuasiInterpolant",
    "SparseQuasiInterpolant",
    "build_full",
    "build_aniso",
    "build_sparse",
    "build_sparse_levels",
    "from_samples",
    "evaluate",
    "evaluate_many",
    "evaluate_dense",
    "evaluate_sparse_product_levels",
    "evaluate_on_grid",
    "stencil_halfwidth",
]

TWO_PI = 2.0 * math.pi
TRUNCATION_EPS = 1e-15
MAX_GAMMA = 8.0
_CHUNK_ELEMS = 1 << 21
_BLOCKS = 4
_MIN_BLOCK = 1024
# a block's window arrays (chords, kernel values and the kernel's
# temporaries) hold at most this many elements each, points times the
# tallest window height, so none of them grows with the point count
_WINDOW_ELEMS = 1 << 17
# BLAS kernels compute a product's rows in tiles of a few rows (a divisor
# of 64), and a row's rounding may depend on its offset within the tile
_ROW_TILE = 64
# OpenBLAS computes a GEMM of at most 2^18 multiply-adds on the calling
# thread; a larger one wakes its own threads, which then busy-wait on the
# CPUs that evaluate_many's other workers need
_GEMM_ELEMS = 1 << 18


@dataclass(frozen=True, eq=False)
class QuasiInterpolant:
    """Immutable evaluator of samples on a full grid, one kernel per axis.

    The samples' only gate: they are converted to float64 (not copied if
    they already are), a NaN or infinity raises ``ValueError``, and the
    array is made read-only.  ``grid`` is ``FullGridSpec(samples.shape)``;
    axis r is weighted by its spacing 2 pi / N_r, and every evaluator
    truncates it at ``stencil_halfwidths[r]`` (``stencil_halfwidth``) nodes.
    """

    samples: np.ndarray
    params: tuple[KernelParams, ...]
    grid: FullGridSpec = field(init=False)
    stencil_halfwidths: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        grid = FullGridSpec(samples.shape)
        if len(self.params) != grid.dims:
            raise ValueError(f"need {grid.dims} kernel params, got {len(self.params)}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples hold a non-finite value")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "stencil_halfwidths", tuple(
            stencil_halfwidth(p, n) for p, n in zip(self.params, grid.counts)
        ))


@dataclass(frozen=True, eq=False)
class SparseQuasiInterpolant:
    """Combination-technique evaluator over a dyadic sparse grid."""

    spec: SparseGridSpec
    terms: tuple[tuple[CombinationTerm, QuasiInterpolant], ...]


# ---------------------------------------------------------------------------
# Stencil sizing
# ---------------------------------------------------------------------------

@cache
def _envelope_cutoff(m: int) -> float:
    """Bisected u past which P_m(u) e^{-u} < ``TRUNCATION_EPS`` P_m(0).

    P_m has the absolute values of the order-m Laguerre coefficients; past
    u > m the envelope is strictly decreasing, so the bracket starts there.
    """
    abs_coeffs = [abs(x) for x in laguerre_coeffs(m, 0.5)]
    target = TRUNCATION_EPS * abs_coeffs[0]
    u_lo, u_hi = m + 1.0, 800.0
    for _ in range(80):
        mid = 0.5 * (u_lo + u_hi)
        acc = 0.0
        for a in reversed(abs_coeffs):
            acc = acc * mid + a
        if acc * math.exp(-mid) > target:
            u_lo = mid
        else:
            u_hi = mid
    return u_hi


def stencil_halfwidth(params: KernelParams, n_points: int) -> int:
    """Node halfwidth beyond which kernel contributions are negligible.

    Covers the offsets alpha whose u = 2 sin^2(alpha/2) / c^2 lies inside
    the order's envelope cutoff (:func:`_envelope_cutoff`, bisected once
    per order).  Returns at most ``n_points // 2`` (the window then spans
    the whole grid); the nodes are 2 pi / n_points apart.
    """
    full = max(1, n_points // 2)
    half_chord = params.c * math.sqrt(_envelope_cutoff(params.m) / 2.0)
    if half_chord >= 1.0:
        return full
    alpha_star = 2.0 * math.asin(half_chord)
    hw = int(math.ceil(alpha_star / (TWO_PI / n_points))) + 1
    return min(hw, full)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _sample_function(f: Callable, points: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(points), dtype=float)
    if vals.shape != (points.shape[0],):
        raise ValueError(
            f"sample function must map (n, d) points to (n,) values, got {vals.shape}"
        )
    return vals


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma <= MAX_GAMMA:
        raise ValueError(f"gamma must be in (0, {MAX_GAMMA}], got {gamma}")


def _assemble(
    samples: np.ndarray, ms: Sequence[int], gammas: Sequence[float]
) -> QuasiInterpolant:
    return QuasiInterpolant(samples, tuple(
        KernelParams(int(m), gamma * (TWO_PI / n))
        for n, m, gamma in zip(samples.shape, ms, gammas, strict=True)
    ))


def from_samples(
    samples, ms: Sequence[int], gammas: Sequence[float]
) -> QuasiInterpolant:
    """Quasi-interpolant of samples given on a full tensor grid.

    ``samples[j_1, ..., j_d]`` is the target's value at the node
    (2 pi j_1 / N_1, ..., 2 pi j_d / N_d), with the counts N_r taken from
    ``samples.shape``; each must be even and >= 4.  ``ms`` and ``gammas``
    give the kernel order and shape constant of each dimension
    (c_r = gamma_r 2 pi / N_r).  The samples are copied, so the
    interpolant stays immutable, and the constructor checks them finite.
    """
    vals = np.array(samples, dtype=float)
    if len(ms) != vals.ndim or len(gammas) != vals.ndim:
        raise ValueError("samples dimensions, ms, gammas must have equal lengths")
    for n in vals.shape:
        if n < 4 or n % 2 != 0:
            raise ValueError(f"grid sizes must be even and >= 4, got {n}")
    for gamma in gammas:
        _check_gamma(gamma)
    return _assemble(vals, ms, gammas)


def build_full(
    f: Callable, N: int, d: int, m: int, gamma: float = 1.0
) -> QuasiInterpolant:
    """Isotropic quasi-interpolant of ``f`` on the N^d grid.

    ``f`` receives an (n, d) array of points and must return n values.
    Sets c = gamma 2 pi / N and w = 2 pi / N in every dimension.
    """
    return build_aniso(f, (N,) * d, (m,) * d, (gamma,) * d)


def build_aniso(
    f: Callable,
    counts: Sequence[int],
    ms: Sequence[int],
    gammas: Sequence[float],
) -> QuasiInterpolant:
    """Directionally uniform quasi-interpolant with per-dimension N, m, gamma."""
    grid = FullGridSpec(tuple(int(n) for n in counts))
    samples = _sample_function(f, full_grid_nodes(grid)).reshape(grid.counts)
    return from_samples(samples, ms, gammas)


def _gather_term_samples(
    term: CombinationTerm,
    store_words: np.ndarray,
    store_vals: np.ndarray,
    level: int,
) -> np.ndarray:
    """Samples of one combination grid looked up by word in the sorted store."""
    words = combination_grid_words(term.index, level).ravel()
    where = np.searchsorted(store_words, words)
    if np.any(where >= store_words.size) or np.any(store_words[where] != words):
        raise NumericsError(
            f"sample store is missing nodes of grid {term.index}; "
            "dyadic nesting violated"
        )
    return store_vals[where].reshape(term.grid.counts)


def _check_sparse_specs(specs: list[SparseGridSpec], gamma: float) -> SparseGridSpec:
    """The sparse paths' checks, run before anything is sampled; the finest spec.

    At least one spec, equal dims, gamma and the finest grid's size.
    """
    if not specs:
        raise ValueError("need at least one sparse-grid spec")
    dims = specs[0].dims
    if any(spec.dims != dims for spec in specs):
        raise ValueError("sparse-grid specs must have equal dims")
    # for d >= 2 the combination holds 2-point axes (n_r = 1); for d = 1 it
    # is one full grid, where KernelParams also rejects c = gamma 2 pi / n > pi
    if dims == 1:
        _check_gamma(gamma)
    elif not 0.0 < gamma <= 1.0:
        raise ValueError(
            f"sparse-grid gamma must be in (0, 1], got {gamma}: the 2-point "
            "component grids need c = gamma pi <= pi"
        )
    finest = max(specs, key=lambda spec: spec.level)
    check_sparse_grid_size(finest)
    return finest


def build_sparse_levels(
    f: Callable, specs: Sequence[SparseGridSpec], m: int, gamma: float = 1.0
) -> tuple[SparseQuasiInterpolant, ...]:
    """Combination-technique quasi-interpolants of ``f``, one per spec.

    All specs must have the same ``dims``; the interpolants come back in
    the order of ``specs``.  ``f`` is evaluated exactly once per distinct
    node of the finest spec (the count equals
    :func:`sparse_grid_count_formula` of that spec): the nodes are nested,
    and each node's coordinate is the same float on every level, so every
    coarser level's samples are among them.  Every combination grid looks
    its samples up in that store by position word, and a grid that
    several levels combine is one shared :class:`QuasiInterpolant`.
    """
    specs = list(specs)
    finest = _check_sparse_specs(specs, gamma)
    dims = finest.dims
    words = sparse_grid_points(finest)
    values = _sample_function(f, sparse_grid_nodes(finest, words))
    components: dict[tuple[int, ...], QuasiInterpolant] = {}
    out = []
    for spec in specs:
        terms = []
        for term in combination_terms(spec):
            if term.index not in components:
                samples = _gather_term_samples(term, words, values, finest.level)
                components[term.index] = _assemble(samples, (m,) * dims, (gamma,) * dims)
            terms.append((term, components[term.index]))
        out.append(SparseQuasiInterpolant(spec=spec, terms=tuple(terms)))
    return tuple(out)


def build_sparse(
    f: Callable, spec: SparseGridSpec, m: int, gamma: float = 1.0
) -> SparseQuasiInterpolant:
    """Combination-technique quasi-interpolant on the dyadic sparse grid.

    ``f`` is evaluated exactly once per distinct sparse-grid node (the
    count equals :func:`sparse_grid_count_formula`); every combination
    term looks its samples up in that store by position word.
    """
    return build_sparse_levels(f, [spec], m, gamma)[0]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Window:
    """A truncated kernel matrix, window-major.

    ``values[k, p]`` weights node ``center[p] + k - hw`` (reduced mod n) at
    point p, for k = 0 .. 2 hw; 2 hw + 1 < n, so each point's nodes are
    distinct.
    """

    values: np.ndarray  # (2 hw + 1) x P
    center: np.ndarray  # P nodes round(x / h), in 0 .. n
    n: int

    def extended(self, a: np.ndarray) -> np.ndarray:
        """Per-node values ``a`` at the nodes -hw .. n + hw, wrapped.

        Entry ``center[p] + k`` is ``a`` at point p's k-th window node.
        """
        hw = self.values.shape[0] // 2
        return np.take(a, np.arange(-hw, self.n + hw + 1), mode="wrap")


@dataclass(frozen=True, eq=False)
class _Chords:
    """One (axis, node count n) group's chords 2 sin^2(offset / 2).

    ``window[k, p]`` is the chord of point p at node ``base[p] + k - wide``
    (unreduced), wide = len(window) // 2; ``dense[p, j]`` is its chord at
    node j = 0 .. n - 1.  Either is None when the group has no truncated,
    or no spanning, kernel.
    """

    base: np.ndarray | None  # P nodes round(x / h)
    window: np.ndarray | None  # (2 wide + 1) x P
    dense: np.ndarray | None  # P x n


def _finish_chords(half_offsets: np.ndarray) -> None:
    """Half offsets (x - h node) / 2 into chords 2 sin^2, in place."""
    np.sin(half_offsets, out=half_offsets)
    np.square(half_offsets, out=half_offsets)
    half_offsets *= 2.0


def _dim_windows(
    x: np.ndarray, n: int, widths: dict[KernelParams, int], finer: _Chords | None = None
) -> tuple[Callable, _Chords]:
    """Kernel matrices at coordinates x on an n-node axis, built on demand.

    ``widths`` maps the ``KernelParams`` of kernels on that axis to their
    stencil halfwidths hw.  Returns a function from one of them to its
    len(x) x n matrix, weighted by the spacing h = 2 pi / n, and the
    group's chords.  The matrix is a dense array, in node order, when the
    window spans the axis (2 hw + 1 >= n); otherwise a :class:`_Window` of
    the 2 hw + 1 nodes round(x / h) - hw .. round(x / h) + hw.  The
    truncated windows take the middle rows of one window-major chord
    2 sin^2(offset / 2), computed here over the widest of them; the
    spanning kernels share one chord over the axis.  Both are kept as long
    as the function or the returned chords.

    ``finer``, if given, is the chords of the group of count 2n at the same
    points; chords are taken from it instead of computed.  fl(2 pi / 2n) is
    fl(2 pi / n) / 2, so the offset x - h * j is bitwise the finer group's
    offset at node 2j: the spanning chord is the finer one's even columns,
    and each truncated row that lies inside the finer window is one gather
    from it; only the other rows call ``sin``.  Each kernel only evaluates
    ``psi_from_chord``, so its values equal a window computed for it alone.
    """
    spacing = TWO_PI / n
    # x / 2 - (h * node) / 2 is exactly (x - h * node) / 2
    half_x = x / 2.0
    narrow = [hw for hw in widths.values() if 2 * hw + 1 < n]
    base = chord = dense = None
    if narrow:
        wide = max(narrow)
        base = np.round(x / spacing).astype(np.int64)
        chord = np.empty((2 * wide + 1, x.size))
        inner = []
        if finer is not None and finer.window is not None:
            # row k is the finer window's row 2 (k - wide) + fine + delta,
            # delta = 2 base - finer.base in {-1, 0, 1} per point
            fine = len(finer.window) // 2
            inner = [k for k in range(len(chord)) if 0 < 2 * (k - wide) + fine < 2 * fine]
            flat = finer.window.ravel()
            pick = np.arange(x.size) + x.size * (2 * base - finer.base + 1)
            for k in inner:
                start = (2 * (k - wide) + fine - 1) * x.size
                flat[start:].take(pick, out=chord[k], mode="clip")
        # psi is exactly periodic, so unreduced nodes give the same values
        table = spacing / 2.0 * np.arange(-wide, n + wide + 1)
        lo, hi = (inner[0], inner[-1] + 1) if inner else (0, 0)
        for rows in (range(lo), range(hi, len(chord))):
            outer = chord[rows.start : rows.stop]
            for k, row in zip(rows, outer):
                table[k:].take(base, out=row, mode="clip")
            np.subtract(half_x, outer, out=outer)
            _finish_chords(outer)
    if len(narrow) < len(widths):
        if finer is not None and finer.dense is not None:
            dense = np.ascontiguousarray(finer.dense[:, ::2])
        else:
            dense = np.subtract.outer(half_x, spacing / 2.0 * np.arange(n))
            _finish_chords(dense)

    def matrix(params: KernelParams):
        hw = widths[params]
        spans = 2 * hw + 1 >= n
        kern = psi_from_chord(params, dense if spans else chord[wide - hw : wide + hw + 1])
        kern *= spacing
        return kern if spans else _Window(kern, base, n)

    return matrix, _Chords(base, chord, dense)


def _window_sum(win: _Window, samples: np.ndarray) -> np.ndarray:
    """Each point's kernel-weighted sum of 1D samples over its window.

    One sequential sum per point from +0.0, in window order: the bits of
    the CSR matrix-vector product over the same window.  (A one-point
    ``np.add.reduce`` over the window would sum pairwise instead.)
    """
    ext = win.extended(samples)
    out = np.zeros(win.center.size)
    term = np.empty(win.center.size)
    for k, row in enumerate(win.values):
        ext[k:].take(win.center, out=term, mode="clip")
        term *= row
        out += term
    return out


def _window_csr(win: _Window):
    """The window as a len(x) x n CSR matrix, each row in window order."""
    from scipy import sparse

    width, points = win.values.shape
    nodes = win.extended(np.arange(win.n, dtype=np.int32))
    nodes = nodes[win.center[:, None] + np.arange(width)]
    return sparse.csr_matrix(
        (win.values.T.ravel(), nodes.ravel(), np.arange(0, nodes.size + 1, width)),
        shape=(points, win.n),
    )


def _dense_product(mat: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """mat @ samples in row slices that BLAS computes on the calling thread.

    Each slice holds a multiple of ``_ROW_TILE`` rows and, where that
    allows, at most ``_GEMM_ELEMS`` multiply-adds.  A one-row tail joins
    the slice before it: numpy would send a one-row product to a BLAS
    vector routine, which rounds differently; for the same reason a lone
    row is the first row of a product of two copies of it.  A row's sum
    depends on its place in the product only through the kernels' row
    tiles, so each row has the bits it has in one product over all rows.
    """
    rows = mat.shape[0]
    if rows == 1:
        return _dense_product(np.concatenate((mat, mat)), samples)[:1]
    step = _ROW_TILE * max(1, _GEMM_ELEMS // (_ROW_TILE * samples.size))
    cuts = list(range(step, rows, step))
    if cuts and rows - cuts[-1] == 1:
        cuts.pop()
    out = np.empty((rows, samples.shape[1]))
    for start, stop in zip([0] + cuts, cuts + [rows]):
        np.matmul(mat[start:stop], samples, out=out[start:stop])
    return out


def _evaluate_separable(q: QuasiInterpolant, mats: Sequence) -> np.ndarray:
    """Contract the samples axis by axis against per-axis kernel matrices.

    A 1D grid is one window sum (:func:`_window_sum`) or dense product.
    Otherwise the largest axis goes through one (CSR or dense) matrix
    product against the samples; the remaining, shorter axes are
    contracted elementwise per point, innermost first.
    """
    d = q.grid.dims
    big = int(np.argmax(q.grid.counts))
    rest = [r for r in range(d) if r != big]
    samples = np.moveaxis(q.samples, big, 0).reshape(q.grid.counts[big], -1)
    if isinstance(mats[big], _Window):
        acc = _window_sum(mats[big], q.samples)
    elif isinstance(mats[big], np.ndarray):
        acc = _dense_product(mats[big], samples)
    else:
        acc = mats[big] @ samples
    acc = acc.reshape((acc.shape[0],) + tuple(q.grid.counts[r] for r in rest))
    for r in reversed(rest):
        kern = mats[r] if isinstance(mats[r], np.ndarray) else mats[r].toarray()
        acc = np.einsum("p...j,pj->p...", acc, kern)
    return acc


def _as_points(points, dims: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if dims == 1 else pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dims:
        raise ValueError(f"points must have shape (n, {dims})")
    return _reduce_mod_2pi(pts)


def _reduce_mod_2pi(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation points must be finite")
    # exact for points already in [0, 2 pi); keeps the window arithmetic
    # (x / h rounded to int64, x - h * node) accurate for any finite x
    return np.remainder(x, TWO_PI)


def _components(q) -> tuple[int, list]:
    """Dimension and (coefficient, component grid) pairs of an interpolant."""
    if isinstance(q, SparseQuasiInterpolant):
        return q.spec.dims, [(term.coeff, component) for term, component in q.terms]
    return q.grid.dims, [(1, q)]


def _point_blocks(count: int, rest: int, height: int) -> list[slice]:
    """Fixed partition of ``count`` points into consecutive blocks (none for 0).

    ``_BLOCKS`` blocks, or fewer when a block would be under
    ``_MIN_BLOCK`` points (one below two of them), of ceil(count / blocks)
    points rounded up to a multiple of ``_ROW_TILE``, so that each dense
    product sees every point at the row offset modulo the tile it has in
    one product over all points.  At most ``_WINDOW_ELEMS // height``
    points, and never under one tile, which bounds the window arrays:
    ``height`` is the tallest window, min(2 hw + 1, n), of the call's
    kernels.  At most ``_CHUNK_ELEMS // rest`` points, which bounds the
    per-point intermediates: ``rest`` is the largest product of the axes
    left after a grid's largest.  A capped size is rounded down to the
    tile where that leaves one.  Depends on the counts only, never on
    the CPU count.
    """
    parts = min(_BLOCKS, max(1, count // _MIN_BLOCK))
    size = _ROW_TILE * max(1, -(-count // (parts * _ROW_TILE)))
    cap = min(_CHUNK_ELEMS // rest, max(_ROW_TILE, _WINDOW_ELEMS // height))
    if cap < size:
        size = max(1, cap - cap % _ROW_TILE if cap >= _ROW_TILE else cap)
    return [slice(start, start + size) for start in range(0, count, size)]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _evaluate_block(rows, groups, last_user, last_row, block, out) -> None:
    """Add every row's value at one block of points into ``out``.

    ``out`` has one row per interpolant and one column per point of
    ``block``.  The block builds its own windows, kernel matrices and
    component values, so blocks are independent of each other.  Each group
    whose next group on its axis has half its count keeps its chords for
    that group, which :func:`_dim_windows` builds from them and drops.
    """
    windows: dict = {}  # (r, n) -> the group's matrix builder
    chords: dict = {}  # (r, n) -> the chords of group (r, 2 n), built last on axis r
    mats: dict = {}
    # groups are built in their insertion order
    halved, last = set(), {}
    for r, n in groups:
        if last.get(r) == 2 * n:
            halved.add((r, 2 * n))
        last[r] = n

    def matrix(r: int, n: int, params: KernelParams):
        if (r, n, params) not in mats:
            if (r, n) not in windows:
                windows[r, n], made = _dim_windows(
                    block[:, r], n, groups[r, n], chords.pop((r, n), None)
                )
                if (r, n) in halved:
                    chords[r, n // 2] = made
            mat = windows[r, n](params)
            # d >= 2 takes each truncated kernel as CSR, made once here
            if block.shape[1] > 1 and isinstance(mat, _Window):
                mat = _window_csr(mat)
            mats[r, n, params] = mat
            if params == next(reversed(groups[r, n])):
                del windows[r, n]  # the group's last matrix
        return mats[r, n, params]

    values: dict = {}
    for i, parts in enumerate(rows):
        for coeff, component in parts:
            key = id(component)
            if key not in values:
                keys = [(r, n, component.params[r])
                        for r, n in enumerate(component.grid.counts)]
                values[key] = _evaluate_separable(
                    component, [matrix(*k) for k in keys]
                )
                for k in keys:
                    if last_user[k] == key:
                        del mats[k]
            out[i] += coeff * values[key]
        for _, component in parts:
            if last_row[id(component)] == i:
                values.pop(id(component), None)


def evaluate_many(qs, points) -> np.ndarray:
    """Evaluate several (sparse) quasi-interpolants at one batch of points.

    Returns an array of shape (len(qs), len(points)) whose row i is
    ``qs[i]`` at the points; full and sparse interpolants may be mixed,
    but all must have the same dims.  Each grid is contracted separably
    against per-dimension kernel matrices, truncated at the grid's
    ``stencil_halfwidths`` (periodic wrap-around); a sparse row is the
    coefficient-weighted sum of its component evaluations, in term order.

    The points are cut into a fixed partition of consecutive blocks that
    depends only on the point count and the component grids: whole tiles
    of 64 rows, about a quarter of the points each (fewer blocks when a
    quarter would be under 1024 points), but no more points than keep a
    block's window arrays (points times the tallest window
    min(2 hw + 1, n) of the call's kernels) within ``_WINDOW_ELEMS`` =
    2^17 elements, and never under one tile; smaller still where the
    per-point intermediates of d >= 2 contractions need it (see
    :func:`_point_blocks`).  So no window array grows with the point
    count.  Each block is evaluated on its own and writes its own columns
    of the result.  Per
    block, the kernels are grouped by (dimension, node count): the group's
    first use computes the node offsets and their chords once, over its
    widest truncated window and over the axis, or takes most of them from
    the group built just before it on that dimension when that group has
    twice the count, and :func:`_dim_windows` builds each kernel
    matrix of the group from them at its first use (for d >= 2 a truncated
    window becomes a CSR matrix there, once); a matrix is shared by
    every grid with that kernel on that dimension, and is dropped after the
    last component that uses it.  A group's chords outlive its matrices
    only when the next group built on that dimension has half its count,
    and only until that group is built.  Each
    component object (by identity, as
    :func:`build_sparse_levels` shares them across levels) is evaluated
    once for all rows; its values are dropped after the last row using it.

    For d >= 2 the blocks run on a thread pool of min(blocks, usable CPUs)
    workers that lives only for this call (inline, with no pool, when that
    is one or none); 1D blocks always run inline, on the calling thread.
    Dense products go to BLAS in row slices small enough for it to
    compute them on the calling worker (see :func:`_dense_product`).
    Blocks and slices depend on the counts only, so the result is bitwise
    equal at any CPU count; they are whole row tiles, so each point keeps
    the bits it has in one product over all points.  Each row is bitwise
    equal to :func:`evaluate` of that interpolant alone.  Points are
    reduced mod 2 pi first.
    """
    qs = list(qs)
    if not qs:
        raise ValueError("need at least one interpolant")
    dims, rows = zip(*map(_components, qs))
    if len(set(dims)) != 1:
        raise ValueError("interpolants must have equal dims")
    pts = _as_points(points, dims[0])
    last_row = {id(c): i for i, parts in enumerate(rows) for _, c in parts}
    rest = max(c.grid.size // max(c.grid.counts) for parts in rows for _, c in parts)
    # each (axis, node count) group's kernels and halfwidths in first-use
    # order, and the last component to use each kernel's matrix, in the
    # order of evaluation (each component at its first row)
    groups: dict = {}
    last_user: dict = {}
    for c in {id(c): c for parts in rows for _, c in parts}.values():
        for r, (n, params) in enumerate(zip(c.grid.counts, c.params)):
            groups.setdefault((r, n), {})[params] = c.stencil_halfwidths[r]
            last_user[r, n, params] = id(c)
    height = max(min(2 * hw + 1, n) for (_, n), widths in groups.items()
                 for hw in widths.values())
    out = np.zeros((len(qs), pts.shape[0]))
    blocks = _point_blocks(pts.shape[0], rest, height)

    def run(block: slice) -> None:
        _evaluate_block(rows, groups, last_user, last_row, pts[block], out[:, block])

    # 1D blocks are short row loops: a pool gained them no wall time, and
    # cost CPU time and a higher memory peak
    workers = min(len(blocks), _usable_cpus()) if dims[0] > 1 else 1
    if workers <= 1:
        for block in blocks:
            run(block)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            # list() re-raises the first block's error, if any
            list(pool.map(run, blocks))
    return out


def evaluate(q, points) -> np.ndarray:
    """Evaluate a (sparse) quasi-interpolant at a batch of points.

    The one-row case of :func:`evaluate_many`.  Results are deterministic
    for identical inputs (fixed blocking and reduction order).
    """
    return evaluate_many([q], points)[0]


def evaluate_sparse_product_levels(
    factor: Callable, specs: Sequence[SparseGridSpec], m: int, gamma: float, points
) -> np.ndarray:
    """Sparse interpolants of F(x) = factor(x_1) * ... * factor(x_d), evaluated.

    Returns an array of shape (len(specs), len(points)) whose row i is
    :func:`build_sparse_levels` of F at ``specs[i]``, evaluated at the
    points (reduced mod 2 pi), up to rounding.  Every combination grid and
    its kernel are tensor products, so a term's interpolant of F's samples
    is u_{n_1}(x_1) ... u_{n_d}(x_d), where u_n is the 1D interpolant of
    ``factor`` on the nodes 2 pi j / n.  ``factor`` receives a 1-D array of
    angles and must return as many values; it is called once per distinct
    axis node count of all the specs' terms, finest count first, and each
    u_n is evaluated at every axis's coordinates by one
    :func:`evaluate_many` call per axis, whose interpolants come finest
    count first, so each count takes most of its chords from those of twice
    that count (see :func:`_dim_windows`).  A
    row is the sum of c_t times the left-to-right product of its term's
    factors, in term order.  The checks and their errors are those of
    :func:`build_sparse_levels`, made before ``factor`` is called; no
    sparse-grid node, component grid or outer product is formed.
    """
    specs = list(specs)
    pts = _as_points(points, _check_sparse_specs(specs, gamma).dims)
    terms = [combination_terms(spec) for spec in specs]
    # finest first, so each count's windows reuse the chords of twice that count
    counts = sorted({n for row in terms for t in row for n in t.grid.counts}, reverse=True)
    qs = [_assemble(_sample_function(factor, FullGridSpec((n,)).axis(0)), (m,), (gamma,))
          for n in counts]
    # u[r][n]: the 1D interpolant on n nodes at every point's coordinate r
    u = [dict(zip(counts, evaluate_many(qs, x[:, None]))) for x in pts.T]
    out = np.zeros((len(specs), pts.shape[0]))
    for row, row_terms in zip(out, terms):
        for t in row_terms:
            row += t.coeff * reduce(np.multiply, map(dict.get, u, t.grid.counts))
    return out


def evaluate_dense(q, points) -> np.ndarray:
    """Sum of the definition over every grid node (the correctness oracle).

    Qf(x) = sum_j f(x_j) prod_r w_r psi(x_r - 2 pi j_r / N_r), with no
    truncation window: each axis's P x N_r kernel matrix comes straight
    from :func:`psi_restricted`, and the matrices are contracted into the
    samples one axis at a time, in point chunks of at most
    ``_CHUNK_ELEMS`` partial sums.  A sparse interpolant is the
    coefficient-weighted sum of its components, in the order of its terms.
    Points are reduced mod 2 pi first.
    """
    if isinstance(q, SparseQuasiInterpolant):
        pts = _as_points(points, q.spec.dims)
        acc = np.zeros(pts.shape[0])
        for term, component in q.terms:
            acc += term.coeff * evaluate_dense(component, pts)
        return acc
    pts = _as_points(points, q.grid.dims)
    axes = list(zip(q.grid.counts, q.params))
    out = np.empty(pts.shape[0])
    chunk = max(1, _CHUNK_ELEMS // q.grid.size)
    for start in range(0, pts.shape[0], chunk):
        block = pts[start : start + chunk]
        acc = q.samples
        for r, (n, params) in enumerate(axes):
            offsets = block[:, r, None] - TWO_PI / n * np.arange(n)
            mat = (TWO_PI / n) * psi_restricted(params, offsets)
            # axis 0 against the samples, then each later axis per point
            acc = np.einsum("pj,j...->p..." if r == 0 else "pj,pj...->p...", mat, acc)
        out[start : start + chunk] = acc
    return out


def _grid_axes(q: QuasiInterpolant, axes: Sequence) -> list[np.ndarray]:
    if len(axes) != q.grid.dims:
        raise ValueError(f"need {q.grid.dims} axes")
    xs = []
    for r, ax in enumerate(axes):
        x = np.asarray(ax, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"axis {r} must be 1-D, got shape {x.shape}")
        xs.append(_reduce_mod_2pi(x))
    return xs


def evaluate_on_grid(q: QuasiInterpolant, axes: Sequence[np.ndarray]) -> np.ndarray:
    """Separable evaluation on a tensor-product point grid.

    Returns a C-ordered array of shape (len(axes[0]), ..., len(axes[d-1]))
    whose entry (i_0, ..., i_{d-1}) is ``q`` at (axes[0][i_0], ...,
    axes[d-1][i_{d-1}]).  Each axis must be 1-D and finite; it is reduced
    mod 2 pi.  The axes are contracted one at a time, last first, each as
    one sparse (CSR) product of its kernel matrix, built as
    :func:`evaluate` builds it from ``q.stencil_halfwidths`` (every node
    where the window spans the axis), against the samples with that axis
    moved first.  So contracting axis r holds one intermediate of M_r x
    (the other axes' current lengths) values, and every value is a
    sequential sum over its window, in window order: it depends only on the
    point's coordinates, not on its position in an axis, on equal
    coordinates elsewhere, or on the BLAS thread count.  Agrees with
    :func:`evaluate_dense` on the product points to truncation accuracy.
    """
    from scipy import sparse

    xs = _grid_axes(q, axes)
    res = q.samples
    for r in reversed(range(q.grid.dims)):
        n, params = q.grid.counts[r], q.params[r]
        mat = _dim_windows(xs[r], n, {params: q.stencil_halfwidths[r]})[0](params)
        mat = sparse.csr_matrix(mat) if isinstance(mat, np.ndarray) else _window_csr(mat)
        others = res.shape[:r] + res.shape[r + 1 :]
        vals = mat @ np.moveaxis(res, r, 0).reshape(n, -1)
        res = np.moveaxis(vals.reshape((xs[r].size,) + others), 0, r)
    return res
