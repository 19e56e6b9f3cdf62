r"""Laguerre-Gaussian kernels on the circle and their Fourier analysis.

The planar radial kernel of approximation order ``2m+2``,

.. math::
    \phi_{2m+2}(s; c) = \frac{1}{\sqrt{2\pi}\,c}
        L_m^{(1/2)}\!\Big(\frac{s^2}{2c^2}\Big) e^{-s^2/(2c^2)},

restricted to the unit circle through the chordal distance
:math:`\bar s = 2\sin(\alpha/2)` becomes the :math:`2\pi`-periodic kernel

.. math::
    \psi_{2m+2}(\alpha; c) = \frac{1}{\sqrt{2\pi}\,c}
        L_m^{(1/2)}\!\Big(\frac{2\sin^2(\alpha/2)}{c^2}\Big)
        e^{-2\sin^2(\alpha/2)/c^2}.

Its Fourier coefficients :math:`\widehat\psi(\ell; c) = \int_{\mathbb{T}}
\psi(\alpha; c)\, e^{-i\ell\alpha}\, d\alpha` tend to 1 as :math:`c \to 0`
with residual :math:`O(\ell^{2m+2} c^{2m+2})`; :func:`strang_fix_certify`
measures that exponent.  Two independent evaluation routes are kept for
every coefficient path: the analytic route through scaled Bessel jets, and
plain quadrature.  The analytic coefficients take an int or a 1-D integer
array of :math:`\ell`; each frequency takes its own route (the telescoped
series or the Taylor jet) with the bits of a call for it alone, so the
certifier makes one call per shape.

Fourier conventions used throughout the package: coefficients carry the
plain integral (no :math:`2\pi` factor) so that :math:`\widehat\psi \to 1`,
while function reconstruction divides by :math:`(2\pi)^d`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .specfun import (
    NumericsError,
    binom_real,
    jet_psi2_hat,
    laguerre_coeffs,
    laguerre_general,
)

__all__ = [
    "KernelParams",
    "StrangFixReport",
    "phi_generalized",
    "psi_restricted",
    "psi_from_chord",
    "f2_phi_closed",
    "f2_phi_quadrature",
    "psi_fourier_analytic",
    "psi_fourier_quadrature",
    "strang_fix_certify",
    "comb_identity_residual",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
KERNEL_MAX_ORDER = 8
FOURIER_MAX_FREQ = 4096


@dataclass(frozen=True)
class KernelParams:
    """One-dimensional restricted kernel: Laguerre index ``m``, shape ``c``.

    The approximation order is ``2m + 2``; ``c`` is in radians and coupled
    to the grid as ``c = gamma * 2 pi / N`` by the quasi-interpolant
    builders.
    """

    m: int
    c: float

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or not 0 <= self.m <= KERNEL_MAX_ORDER:
            raise ValueError(
                f"kernel order must be an integer in [0, {KERNEL_MAX_ORDER}], got {self.m}"
            )
        if not (0.0 < self.c <= math.pi):
            raise ValueError(f"shape parameter must satisfy 0 < c <= pi, got {self.c}")
        # t / c^2 needs a normal c^2: one that underflows to 0 gives 0 / 0 at a node
        if self.c**2 < sys.float_info.min:
            raise ValueError(f"shape parameter c = {self.c} has c^2 below the smallest normal float")


@dataclass(frozen=True)
class StrangFixReport:
    """Fitted Strang-Fix exponent per probe frequency of one kernel, with
    the finest shape's worst residual and the alias-band maximum."""

    orders: dict[int, float]
    saturation_max: float
    aliasing_max: float


# ---------------------------------------------------------------------------
# Kernel evaluation
# ---------------------------------------------------------------------------

def phi_generalized(p: KernelParams, s):
    r"""Planar radial kernel :math:`\phi_{2m+2}(s; c)` at distance ``s >= 0``.

    Equals ``psi_from_chord(p, s^2 / 2)``.  Accepts scalars or arrays;
    returns the same shape.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("distance must be >= 0")
    return psi_from_chord(p, s * s / 2.0)


def psi_from_chord(p: KernelParams, t):
    r"""Restricted kernel as a function of :math:`t = 2\sin^2(\alpha/2)`.

    ``t`` is half the squared chord between the two points of the circle,
    so one array of ``t`` serves every kernel order and shape at the same
    offsets.  Accepts scalars or arrays; returns the same shape.
    """
    t = np.asarray(t, dtype=float)
    out = _psi_from_chord(p, t, np.empty_like(t))
    return out if out.ndim else float(out)


def _psi_from_chord(p: KernelParams, t: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`psi_from_chord` of an array into a new array, with one scratch.

    ``scratch`` has the shape of ``t`` and may be ``t`` itself; it holds
    v = t / (-c^2) and then exp(v), so its values are spent.
    """
    # L(u) * exp(-u) / (sqrt(2 pi) c) at u = t / c^2, in place, in the
    # result and the scratch.  Horner runs at v = -u from the leading
    # coefficient, with the coefficients' signs alternated: each step is
    # laguerre_general's step at u up to the sign, which IEEE arithmetic
    # mirrors exactly, so L has the same bits
    v = np.divide(t, -(p.c**2), out=scratch)
    # u is clamped at 746 so that Horner cannot overflow for a tiny c:
    # exp(-u) is 0 past u = 746, and L(u) keeps its sign there (every root
    # is below 746), so L(u) exp(-u) keeps its bits, sign included
    np.maximum(v, -_HORNER_CLAMP, out=v)
    signed = [(-1) ** k * a for k, a in enumerate(laguerre_coeffs(p.m, 0.5))]
    if p.m == 0:
        out = np.full_like(v, signed[0])
    else:
        out = np.multiply(v, signed[-1])
        out += signed[-2]
        for coeff in reversed(signed[:-2]):
            out *= v
            out += coeff
    out *= np.exp(v, out=v)
    out /= SQRT_2PI * p.c
    return out


_HORNER_CLAMP = 746.0


def psi_restricted(p: KernelParams, alpha):
    r"""Restricted kernel :math:`\psi_{2m+2}(\alpha; c)`, even and 2pi-periodic.

    Equals ``phi_generalized(p, 2|sin(alpha/2)|)``; periodicity comes out
    of the sine, so no explicit reduction is needed.
    """
    return psi_from_chord(p, 2.0 * np.sin(np.asarray(alpha, dtype=float) / 2.0) ** 2)


# ---------------------------------------------------------------------------
# Planar Fourier transform: closed form and Hankel quadrature oracle
# ---------------------------------------------------------------------------

def f2_phi_closed(p: KernelParams, r):
    r"""Closed-form planar Fourier transform of :math:`\phi_{2m+2}`.

    .. math::
        \sqrt{2\pi}\, c \sum_{j=0}^m (-1)^j \binom{m+1/2}{m-j}
            L_j^{(0)}\!\Big(\frac{c^2 r^2}{2}\Big) e^{-c^2 r^2/2}.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0):
        raise ValueError("frequency radius must be >= 0")
    u = p.c**2 * r_arr**2 / 2.0
    acc = np.zeros_like(u)
    for j in range(p.m + 1):
        coeff = (-1.0) ** j * binom_real(p.m + 0.5, p.m - j)
        acc = acc + coeff * laguerre_general(j, 0.0, u)
    out = SQRT_2PI * p.c * acc * np.exp(-u)
    return out if out.ndim else float(out)


_QUAD_MAX_PANEL_DOUBLINGS = 12


def f2_phi_quadrature(p: KernelParams, r: float) -> float:
    r"""Hankel-integral oracle :math:`2\pi \int_0^\infty \phi_{2m+2}(t)\, t\, J_0(rt)\, dt`.

    Truncates at ``t = 12 c (m+2)`` (the integrand is below 1e-120 there)
    and integrates with composite 16-point Gauss-Legendre panels, doubling
    the panel count until two refinements agree.  Independent of
    :func:`f2_phi_closed`: the only shared ingredient is the kernel itself.
    """
    if r < 0.0:
        raise ValueError("frequency radius must be >= 0")
    if p.c < 0.01:
        raise ValueError("quadrature oracle requires c >= 0.01")
    # the only scipy.special and numpy.polynomial user: importing them here
    # keeps them out of the CLI
    from numpy.polynomial.legendre import leggauss
    from scipy.special import j0

    nodes, weights = leggauss(16)
    t_max = 12.0 * p.c * (p.m + 2)
    # resolve the J_0 oscillation: >= 4 panels per period 2 pi / r
    panels = max(8, int(math.ceil(4.0 * r * t_max / (2.0 * math.pi))))
    scale = SQRT_2PI * p.c  # transform value at r = 0

    def integrate(n_panels: int) -> float:
        edges = np.linspace(0.0, t_max, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        t = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        w = (half[:, None] * weights[None, :]).ravel()
        vals = phi_generalized(p, t) * t * j0(r * t)
        return 2.0 * math.pi * float(np.dot(w, vals))

    prev = integrate(panels)
    for _ in range(_QUAD_MAX_PANEL_DOUBLINGS):
        panels *= 2
        cur = integrate(panels)
        if abs(cur - prev) <= 1e-12 * max(abs(cur), scale):
            return cur
        prev = cur
    raise NumericsError(
        f"Hankel quadrature failed to converge for m={p.m}, c={p.c}, r={r}"
    )


# ---------------------------------------------------------------------------
# Fourier coefficients of the restricted kernel
# ---------------------------------------------------------------------------

def _psi_hat_via_jet(m: int, ell: np.ndarray, rho: float) -> np.ndarray:
    """Order-raised coefficients from the Taylor coefficients a_j at rho.

    The sum of (-rho)^j a_j over j <= m telescopes exactly down to
    1 + O(rho^{m+1}); the cancellation amplifies round-off by about
    (1/rho)^m, so this route is reserved for moderate 1/rho.
    """
    jet = jet_psi2_hat(ell, rho, m)
    acc = np.zeros(ell.size)
    power = 1.0
    for j in range(m + 1):
        acc += power * jet[j]
        power *= -rho
    return acc


_SERIES_MIN_INV_RHO = 25.0
_SERIES_MAX_TERMS = 400


def _psi_hat_via_series(m: int, ell: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    r"""Small-rho evaluation through the large-argument expansion.

    The base coefficient has the asymptotic series
    :math:`\widehat\psi_2 \sim \sum_k e_k \rho^k` with
    :math:`e_k = (-1)^k \prod_{i\le k}(\mu-(2i-1)^2)/(k!\,8^k)`,
    :math:`\mu = 4\ell^2`; order raising annihilates
    :math:`\rho^1..\rho^m` exactly, leaving

    .. math::
        \widehat\psi_{2m+2} = 1 + (-1)^m
            \sum_{k>m} \binom{k-1}{m} e_k \rho^k .

    The residual is accumulated directly (no cancellation against 1).
    Each frequency is a lane of the same array operations, and a lane
    leaves the sum at its own convergence or asymptotic floor.  Returns
    the values and a mask of the lanes that converged; the others (nan)
    are those whose series cannot reach round-off before its divergent
    tail takes over, where the jet route applies.
    """
    mu = 4.0 * ell * ell
    q = mu * rho / 8.0  # growth exponent of the early terms
    z = 1.0 / rho
    out = np.full(ell.shape, math.nan)
    done = np.zeros(ell.shape, dtype=bool)
    if z < _SERIES_MIN_INV_RHO:
        return out, done
    lanes = np.flatnonzero(2.0 * q <= max(2.0, m * math.log(z)))
    mu, q = mu[lanes], q[lanes]
    term = np.ones(lanes.size)  # e_k rho^k, starting at k = 0
    weight = 1.0  # binom(k-1, m) once k > m
    tail = np.zeros(lanes.size)
    prev_mag = np.full(lanes.size, math.inf)
    for k in range(1, _SERIES_MAX_TERMS):
        if not lanes.size:
            break
        term *= -(mu - (2 * k - 1) ** 2) * rho / (8.0 * k)
        if k <= m:
            continue
        if k > m + 1:
            weight *= (k - 1) / (k - 1 - m)
        contrib = weight * term
        tail += contrib
        mag = np.abs(contrib)
        converged = mag <= 1e-18 * (1.0 + np.abs(tail))
        # a lane also leaves at the asymptotic floor, reached before it converged
        stop = converged | ((mag > prev_mag) & (k > 2.0 * q + 10.0))
        if stop.any():
            out[lanes[converged]] = 1.0 + (-1.0) ** m * tail[converged]
            done[lanes[converged]] = True
            keep = ~stop
            lanes, mu, q, term, tail, mag = (v[keep] for v in (lanes, mu, q, term, tail, mag))
        prev_mag = mag
    return out, done


def psi_fourier_analytic(p: KernelParams, ell):
    r"""Analytic Fourier coefficient :math:`\widehat\psi_{2m+2}(\ell; c)`.

    Evaluates :math:`\sum_{j=0}^m (-\rho)^j a_j` with :math:`\rho = c^2`
    and :math:`a_j` the Taylor coefficients of
    :math:`\sqrt{2\pi}\rho^{-1/2} e^{-1/\rho} I_{|\ell|}(1/\rho)` at
    :math:`\rho`.  Even in ``ell``; tends to 1 as ``c -> 0``.  For small
    ``rho`` the telescoped series form is used so the saturation residual
    is computed without cancellation.  ``ell`` is an int (returns a float)
    or a 1-D integer array (returns an array): each frequency takes its own
    route, with the same bits as a call for it alone.
    """
    ells = np.asarray(ell)
    if ells.ndim > 1 or ells.dtype.kind not in "iu":
        raise ValueError(f"frequency must be an int or a 1-D integer array, got {ell!r}")
    lanes = np.abs(np.atleast_1d(ells).astype(np.int64))
    if np.any(lanes > FOURIER_MAX_FREQ):
        raise ValueError(f"frequency must satisfy |ell| <= {FOURIER_MAX_FREQ}")
    rho = p.c * p.c
    out, done = _psi_hat_via_series(p.m, lanes, rho)
    jet = np.flatnonzero(~done)
    if jet.size:
        out[jet] = _psi_hat_via_jet(p.m, lanes[jet], rho)
    return out if ells.ndim else float(out[0])


def psi_fourier_quadrature(p: KernelParams, ell: int, nodes: int) -> float:
    r"""Trapezoid-rule oracle for :math:`\int_0^{2\pi} \psi_{2m+2}(\alpha; c) \cos(\ell\alpha)\, d\alpha`.

    The imaginary part vanishes by evenness, so only the cosine moment is
    integrated.  Spectrally accurate for this smooth periodic integrand
    once ``nodes`` resolves the kernel width.
    """
    if nodes < 64 or nodes < 8 * (abs(ell) + 1):
        raise ValueError(
            f"need nodes >= max(64, 8 (|ell|+1)) = "
            f"{max(64, 8 * (abs(ell) + 1))}, got {nodes}"
        )
    if p.c < 1e-3:
        raise ValueError("quadrature oracle requires c >= 1e-3")
    alpha = 2.0 * math.pi * np.arange(nodes) / nodes
    vals = psi_restricted(p, alpha)
    return float(np.dot(vals, np.cos(ell * alpha))) * (2.0 * math.pi / nodes)


# ---------------------------------------------------------------------------
# Periodic Strang-Fix certification
# ---------------------------------------------------------------------------

def _fit_loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def strang_fix_certify(
    m: int,
    gamma: float,
    N_list: Sequence[int],
    ell_probe: Sequence[int],
) -> StrangFixReport:
    """Fit the saturation exponent of ``|psi_hat(ell; c) - 1|`` in ``c``.

    For each ``N`` the shape is coupled as ``c = gamma * 2 pi / N``.  The
    per-frequency log-log slope should approach ``2m + 2``.  The report
    also records the worst saturation residual at the finest shape and the
    largest alias-band coefficient ``max |psi_hat(ell')|`` over
    ``ell' in [N/2, 3N/2]`` at the largest ``N``.  It makes one
    :func:`psi_fourier_analytic` call per shape over the probes, and one
    over the alias band.  Raises
    :class:`NumericsError` on a non-finite alias coefficient or a zero or
    non-finite residual, as happens once high orders saturate to round-off.
    """
    N_arr = [int(N) for N in N_list]
    if len(N_arr) < 2:
        raise ValueError("need at least two grid sizes to fit an exponent")
    if any(N % 2 != 0 for N in N_arr):
        raise ValueError("grid sizes must be even")
    if any(b <= a for a, b in zip(N_arr, N_arr[1:])):
        raise ValueError("grid sizes must be strictly increasing")
    ells = [int(e) for e in ell_probe]
    if any(abs(e) >= min(N_arr) / 2 for e in ells):
        raise ValueError("probes must satisfy |ell| < min(N)/2")
    if 3 * max(N_arr) // 2 > FOURIER_MAX_FREQ:
        raise ValueError(
            f"alias band exceeds the coefficient ceiling; need max(N) <= "
            f"{2 * FOURIER_MAX_FREQ // 3}"
        )
    if gamma <= 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")

    c_list = [gamma * (2.0 * math.pi / N) for N in N_arr]
    probes = np.array(ells, dtype=np.int64)
    per_shape = [np.abs(psi_fourier_analytic(KernelParams(m, c), probes) - 1.0).tolist()
                 for c in c_list]
    residuals = {ell: [res[i] for res in per_shape] for i, ell in enumerate(ells)}
    for ell, res in residuals.items():
        if not all(math.isfinite(r) and r > 0.0 for r in res):
            raise NumericsError(
                f"saturation residuals of m={m} at ell={ell} are {res}; a zero "
                "or non-finite residual has no logarithm to fit"
            )
    orders = {ell: _fit_loglog_slope(c_list, res) for ell, res in residuals.items()}

    c_fine = c_list[-1]
    p_fine = KernelParams(m, c_fine)
    saturation_max = max(res[-1] for res in residuals.values())
    n_fine = N_arr[-1]
    band = np.arange(n_fine // 2, 3 * n_fine // 2 + 1)
    alias = np.abs(psi_fourier_analytic(p_fine, band))
    finite = np.isfinite(alias)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NumericsError(f"alias-band coefficient of m={m} at ell={band[k]} is {alias[k]}")
    return StrangFixReport(
        orders=orders,
        saturation_max=saturation_max,
        aliasing_max=float(alias.max()),
    )


# ---------------------------------------------------------------------------
# Combinatorial identity residual
# ---------------------------------------------------------------------------

def comb_identity_residual(k: int, m: int, z: float) -> float:
    r"""Residual of the binomial identity used by the coefficient theorem.

    .. math::
        \sum_{j=k}^m (-1)^j \binom{z}{j-k}
        = \sum_{j=k}^m (-1)^j \binom{m+1-z}{m-j} \binom{j}{k};

    both sides also collapse to :math:`(-1)^m \binom{z-1}{m-k}`.  Returns
    the absolute difference of the two finite sums, which should vanish.
    """
    if not 0 <= k <= m <= 16:
        raise ValueError(f"need 0 <= k <= m <= 16, got k={k}, m={m}")
    lhs = math.fsum((-1.0) ** j * binom_real(z, j - k) for j in range(k, m + 1))
    rhs = math.fsum(
        (-1.0) ** j * binom_real(m + 1 - z, m - j) * math.comb(j, k)
        for j in range(k, m + 1)
    )
    return abs(lhs - rhs)
