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
plain quadrature.

Fourier conventions used throughout the package: coefficients carry the
plain integral (no :math:`2\pi` factor) so that :math:`\widehat\psi \to 1`,
while function reconstruction divides by :math:`(2\pi)^d`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .specfun import NumericsError, binom_real, jet_psi2_hat, laguerre_general

__all__ = [
    "KernelParams",
    "TensorKernelSpec",
    "StrangFixReport",
    "phi_generalized",
    "psi_restricted",
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


@dataclass(frozen=True)
class TensorKernelSpec:
    """Tensor-product kernel: per-dimension params and quadrature weights."""

    dims: int
    params: tuple[KernelParams, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise ValueError(f"dims must be >= 1, got {self.dims}")
        if len(self.params) != self.dims or len(self.weights) != self.dims:
            raise ValueError("params and weights must both have length dims")
        for w in self.weights:
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError(f"weights must be finite and positive, got {w}")


@dataclass(frozen=True)
class StrangFixReport:
    """Measured periodic Strang-Fix behaviour of one kernel order."""

    m: int
    gamma: float
    orders: dict[int, float]
    saturation_max: float
    aliasing_max: float


# ---------------------------------------------------------------------------
# Kernel evaluation
# ---------------------------------------------------------------------------

def phi_generalized(p: KernelParams, s):
    r"""Planar radial kernel :math:`\phi_{2m+2}(s; c)` at distance ``s >= 0``.

    Accepts scalars or arrays; returns the same shape.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0):
        raise ValueError("distance must be >= 0")
    u = s_arr**2 / (2.0 * p.c**2)
    out = laguerre_general(p.m, 0.5, u) * np.exp(-u) / (SQRT_2PI * p.c)
    return out if out.ndim else float(out)


def psi_restricted(p: KernelParams, alpha):
    r"""Restricted kernel :math:`\psi_{2m+2}(\alpha; c)`, even and 2pi-periodic.

    Equals ``phi_generalized(p, 2|sin(alpha/2)|)``; periodicity comes out
    of the sine, so no explicit reduction is needed.
    """
    alpha_arr = np.asarray(alpha, dtype=float)
    u = 2.0 * np.sin(alpha_arr / 2.0) ** 2 / p.c**2
    out = laguerre_general(p.m, 0.5, u) * np.exp(-u) / (SQRT_2PI * p.c)
    return out if out.ndim else float(out)


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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
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
    # the only scipy.special user: importing it here keeps it out of the CLI
    from scipy.special import j0

    t_max = 12.0 * p.c * (p.m + 2)
    # resolve the J_0 oscillation: >= 4 panels per period 2 pi / r
    panels = max(8, int(math.ceil(4.0 * r * t_max / (2.0 * math.pi))))
    scale = SQRT_2PI * p.c  # transform value at r = 0

    def integrate(n_panels: int) -> float:
        edges = np.linspace(0.0, t_max, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        t = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
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

def _psi_hat_via_jet(m: int, ell: int, rho: float) -> float:
    """Order-raised coefficient from the Taylor jet at rho.

    Exact telescoping of the jet terms cancels down to 1 + O(rho^{m+1});
    the cancellation amplifies round-off by about (1/rho)^m, so this route
    is reserved for moderate 1/rho.
    """
    jet = jet_psi2_hat(ell, rho, m)
    acc = 0.0
    power = 1.0
    for j in range(m + 1):
        acc += power * jet.coeffs[j]
        power *= -rho
    return acc


_SERIES_MIN_INV_RHO = 25.0
_SERIES_MAX_TERMS = 400


def _psi_hat_via_series(m: int, ell: int, rho: float) -> float | None:
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
    Returns ``None`` when the series cannot reach round-off before its
    divergent tail takes over, in which case the jet route applies.
    """
    mu = 4.0 * ell * ell
    q = mu * rho / 8.0  # growth exponent of the early terms
    z = 1.0 / rho
    if z < _SERIES_MIN_INV_RHO or 2.0 * q > max(2.0, m * math.log(z)):
        return None
    term = 1.0  # e_k rho^k, starting at k = 0
    weight = 1.0  # binom(k-1, m) once k > m
    tail = 0.0
    prev_mag = math.inf
    for k in range(1, _SERIES_MAX_TERMS):
        term *= -(mu - (2 * k - 1) ** 2) * rho / (8.0 * k)
        if k <= m:
            continue
        if k > m + 1:
            weight *= (k - 1) / (k - 1 - m)
        contrib = weight * term
        tail += contrib
        mag = abs(contrib)
        if mag <= 1e-18 * (1.0 + abs(tail)):
            return 1.0 + (-1.0) ** m * tail
        if mag > prev_mag and k > 2.0 * q + 10.0:
            return None  # asymptotic floor reached before convergence
        prev_mag = mag
    return None


def psi_fourier_analytic(p: KernelParams, ell: int) -> float:
    r"""Analytic Fourier coefficient :math:`\widehat\psi_{2m+2}(\ell; c)`.

    Evaluates :math:`\sum_{j=0}^m (-\rho)^j a_j` with :math:`\rho = c^2`
    and :math:`a_j` the Taylor coefficients of
    :math:`\sqrt{2\pi}\rho^{-1/2} e^{-1/\rho} I_{|\ell|}(1/\rho)` at
    :math:`\rho`.  Even in ``ell``; tends to 1 as ``c -> 0``.  For small
    ``rho`` the telescoped series form is used so the saturation residual
    is computed without cancellation.
    """
    if abs(ell) > FOURIER_MAX_FREQ:
        raise ValueError(f"frequency must satisfy |ell| <= {FOURIER_MAX_FREQ}")
    rho = p.c * p.c
    via_series = _psi_hat_via_series(p.m, abs(ell), rho)
    if via_series is not None:
        return via_series
    return _psi_hat_via_jet(p.m, abs(ell), rho)


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
    ``ell' in [N/2, 3N/2]`` at the largest ``N``.  Raises
    :class:`NumericsError` when a residual is exactly zero or non-finite,
    as happens once high orders saturate to round-off.
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

    c_list = [gamma * 2.0 * math.pi / N for N in N_arr]
    residuals = {
        ell: [abs(psi_fourier_analytic(KernelParams(m, c), ell) - 1.0) for c in c_list]
        for ell in ells
    }
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
    alias = [
        abs(psi_fourier_analytic(p_fine, ell))
        for ell in range(n_fine // 2, 3 * n_fine // 2 + 1)
    ]
    return StrangFixReport(
        m=m,
        gamma=gamma,
        orders=orders,
        saturation_max=saturation_max,
        aliasing_max=max(alias),
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
