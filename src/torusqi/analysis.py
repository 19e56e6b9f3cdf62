"""Test functions, spectral diagnostics, error norms, and rate estimation.

The benchmark family on the circle is

    g_p(a) = lambda_p (2 + sgn(a - pi) sin^p(a)),   a in [0, 2pi),

normalized to unit L2 norm; its p-th derivative jumps at a = 0 and a = pi,
so it has finite smoothness H^{p+1/2-eps}.  G_p is the d-fold tensor
product.  The module also carries the discrete Fourier coefficients (by
FFT) with the aliasing identity, the trigonometric interpolation baseline,
the L-infinity / L2 error measurement used by every benchmark, and dyadic
convergence-rate tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import NumericsError

__all__ = [
    "TestFunctionGp",
    "gp_eval",
    "make_gp",
    "dft_coeffs",
    "trig_interp_eval",
    "error_norms",
    "convergence_rates",
    "offset_eval_axis",
    "lcg_uniform_points",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lambda_p(p: int) -> float:
    """Normalization so that ||g_p||_{L2} = 1 over one period.

    Computed by composite trapezoid quadrature with 2^14 nodes; for even p
    the closed form 1/sqrt(8 pi + 2 pi C(2p, p)/4^p) agrees to round-off
    (the sign term integrates to zero by symmetry).
    """
    nodes = 2**14
    a = TWO_PI * np.arange(nodes) / nodes
    raw = 2.0 + np.sign(a - math.pi) * np.sin(a) ** p
    norm_sq = float(np.mean(raw**2)) * TWO_PI
    return 1.0 / math.sqrt(norm_sq)


@dataclass(frozen=True)
class TestFunctionGp:
    """Tensor-product benchmark function G_p on the dims-torus, fixed by
    (p, dims); ``lambda_p`` is g_p's memoized normalization."""

    p: int
    dims: int

    @property
    def lambda_p(self) -> float:
        return _lambda_p(self.p)

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dims:
            raise ValueError(f"points must have {self.dims} coordinates")
        out = np.ones(pts.shape[0])
        for r in range(self.dims):
            out *= gp_eval(self, pts[:, r])
        return out


def make_gp(p: int, dims: int = 1) -> TestFunctionGp:
    if p < 1:
        raise ValueError(f"smoothness index must be >= 1, got {p}")
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    return TestFunctionGp(p=p, dims=dims)


def gp_eval(tf: TestFunctionGp, alpha) -> np.ndarray:
    """One factor g_p(alpha) on the parameter domain [0, 2pi), sgn(0) = 0."""
    a = np.mod(np.asarray(alpha, dtype=float), TWO_PI)
    out = tf.lambda_p * (2.0 + np.sign(a - math.pi) * np.sin(a) ** tf.p)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Discrete Fourier diagnostics
# ---------------------------------------------------------------------------

def dft_coeffs(samples) -> np.ndarray:
    """Discrete Fourier coefficients f~_k for k in [-N/2, N/2).

    f~_k = (1/N) sum_l f(2 pi l / N) e^{-2 pi i l k / N}; on band-limited
    input this realizes the aliasing identity f~_k = sum_v fhat(k + v N).
    Computed by FFT, shifted so that k = -N/2 comes first.
    """
    vals = np.asarray(samples)
    if vals.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    n = vals.shape[0]
    if n % 2 != 0:
        raise ValueError(f"sample count must be even, got {n}")
    return np.fft.fftshift(np.fft.fft(vals)) / n


def trig_interp_eval(samples, x) -> np.ndarray:
    """Trigonometric interpolant of equispaced samples, evaluated at x.

    Sums f~_k e^{ikx} over k in [-N/2, N/2) with the unpaired k = -N/2
    mode symmetrized to cos((N/2) x), which keeps real samples real and
    preserves the cardinal interpolation property at the nodes.
    """
    coeffs = dft_coeffs(samples)
    n = coeffs.shape[0]
    xs = np.asarray(x, dtype=float)
    flat = np.atleast_1d(xs).ravel()
    ks = np.arange(-(n // 2) + 1, n // 2)
    acc = np.exp(1j * np.outer(flat, ks)) @ coeffs[1:]
    acc += coeffs[0] * np.cos((n // 2) * flat)
    if xs.ndim == 0:
        return float(acc.real[0])
    return acc.real.reshape(xs.shape)


# ---------------------------------------------------------------------------
# Error measurement and rates
# ---------------------------------------------------------------------------

def error_norms(reference, approx, eval_points, ref_scale: float):
    """(err_linf, err_l2, rel_linf, rel_l2) over a fixed evaluation set.

    ``reference`` and ``approx`` map an (n, d) point array to n values (or
    are already value arrays of matching length).  err_l2 applies the
    quadrature weight (2 pi)^d / n, i.e. sqrt(mean |diff|^2 (2 pi)^d);
    relative variants divide by ``ref_scale``.  A non-finite difference
    raises :class:`NumericsError`; malformed arguments raise ``ValueError``.
    """
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    if pts.shape[0] < 1:
        raise ValueError("need at least one evaluation point")
    if ref_scale <= 0.0:
        raise ValueError(f"ref_scale must be > 0, got {ref_scale}")
    ref = np.asarray(reference(pts) if callable(reference) else reference, dtype=float)
    app = np.asarray(approx(pts) if callable(approx) else approx, dtype=float)
    if ref.shape != (pts.shape[0],) or app.shape != (pts.shape[0],):
        raise ValueError("reference/approx must produce one value per point")
    diff = ref - app
    if not np.all(np.isfinite(diff)):
        raise NumericsError("non-finite values in error measurement")
    d = pts.shape[1]
    err_linf = float(np.max(np.abs(diff)))
    err_l2 = float(math.sqrt(np.mean(diff**2) * TWO_PI**d))
    return err_linf, err_l2, err_linf / ref_scale, err_l2 / ref_scale


def convergence_rates(rows) -> list[float | None]:
    """Dyadic rates log2(err_{i-1}/err_i) for (N, err) pairs; first is None."""
    ns = [int(n) for n, _ in rows]
    errs = [float(e) for _, e in rows]
    for a, b in zip(ns, ns[1:]):
        if b != 2 * a:
            raise ValueError(f"grid sizes must double, got {a} -> {b}")
    if any(e == 0.0 for e in errs):
        raise NumericsError("degenerate zero error; rate undefined")
    out: list[float | None] = [None]
    out.extend(math.log2(a / b) for a, b in zip(errs, errs[1:]))
    return out


# ---------------------------------------------------------------------------
# Evaluation point sets
# ---------------------------------------------------------------------------

def offset_eval_axis(N: int) -> np.ndarray:
    """4N+1 uniform points per dimension, shifted by h/3 off the nodes."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    h = TWO_PI / N
    return np.mod(h / 3.0 + TWO_PI * np.arange(4 * N + 1) / (4 * N + 1), TWO_PI)


# 64-bit LCG, Knuth's MMIX multiplier/increment; top 53 bits -> [0, 1)
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def lcg_uniform_points(count: int, dims: int, seed: int) -> np.ndarray:
    """Reproducible pseudo-uniform points on the dims-torus (fixed seed)."""
    if count < 1 or dims < 1:
        raise ValueError("count and dims must both be >= 1")
    # state k = a^k s + c (1 + a + ... + a^(k-1)) mod 2^64, k = 1, 2, ...;
    # uint64 array arithmetic wraps mod 2^64
    powers = np.cumprod(np.full(count * dims, _LCG_MULT, dtype=np.uint64))
    geometric = np.cumsum(np.concatenate(([np.uint64(1)], powers[:-1])))
    states = powers * np.uint64(seed & _LCG_MASK) + np.uint64(_LCG_INC) * geometric
    out = (states >> np.uint64(11)) * (1.0 / (1 << 53))
    return TWO_PI * out.reshape(count, dims)
