r"""Special-function substrate for the periodic kernel machinery.

Provides the pieces everything else is assembled from:

* generalized Laguerre polynomials :math:`L_m^{(\alpha)}` via their explicit
  coefficient sum,
* binomial coefficients :math:`\binom{z}{k}` for real upper argument,
* overflow-safe scaled modified Bessel functions
  :math:`\tilde I_\nu(z) = e^{-z} I_\nu(z)` (Miller backward recurrence;
  the jet route shares one memoized recurrence per argument and order bucket),
* truncated Taylor jets (univariate, fixed order) and the jet of
  :math:`\sqrt{2\pi}\,\rho^{-1/2} e^{-1/\rho} I_\ell(1/\rho)`.

All arithmetic is double precision; the documented support ceilings
(``m <= 12`` for raw Laguerre evaluation, jet order ``<= 8``) are where
coefficient cancellation stays below the tolerances certified by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

__all__ = [
    "NumericsError",
    "Jet",
    "laguerre_general",
    "laguerre_coeffs",
    "binom_real",
    "scaled_bessel_i",
    "scaled_bessel_i_all",
    "jet_psi2_hat",
]

LAGUERRE_MAX_ORDER = 12
BINOM_MAX_K = 64
BESSEL_MAX_ORDER = 2048
JET_MAX_ORDER = 8

SQRT_2PI = math.sqrt(2.0 * math.pi)


class NumericsError(RuntimeError):
    """An iterative numerical procedure failed to converge or normalize."""


# ---------------------------------------------------------------------------
# Laguerre polynomials and real-argument binomials
# ---------------------------------------------------------------------------

def binom_real(z: float, k: int) -> float:
    r"""Binomial coefficient :math:`\binom{z}{k} = \prod_{i<k}(z-i)/k!` for real z.

    Exact zero when ``z`` is a nonnegative integer below ``k``.
    """
    if k < 0 or k > BINOM_MAX_K:
        raise ValueError(f"binom_real supports 0 <= k <= {BINOM_MAX_K}, got {k}")
    out = 1.0
    for i in range(k):
        out *= (z - i) / (i + 1)
    return out


@lru_cache(maxsize=None)
def laguerre_coeffs(m: int, alpha: float) -> tuple[float, ...]:
    r"""Monomial coefficients of :math:`L_m^{(\alpha)}`, lowest power first.

    Coefficient of :math:`s^k` is :math:`(-1)^k \binom{m+\alpha}{m-k}/k!`.
    """
    if not 0 <= m <= LAGUERRE_MAX_ORDER:
        raise ValueError(
            f"Laguerre order must satisfy 0 <= m <= {LAGUERRE_MAX_ORDER}, got {m}"
        )
    if alpha <= -1.0:
        raise ValueError(f"Laguerre parameter must satisfy alpha > -1, got {alpha}")
    return tuple(
        (-1.0) ** k * binom_real(m + alpha, m - k) / math.factorial(k)
        for k in range(m + 1)
    )


def laguerre_general(m: int, alpha: float, s):
    r"""Evaluate :math:`L_m^{(\alpha)}(s) = \sum_{k=0}^m (-1)^k \binom{m+\alpha}{m-k} s^k/k!`.

    Horner accumulation of the explicit coefficients; supported for
    ``m <= 12`` where double-precision cancellation stays benign.  ``s``
    may be a float or a numpy array, evaluated elementwise.
    """
    coeffs = laguerre_coeffs(m, alpha)
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


# ---------------------------------------------------------------------------
# Scaled modified Bessel functions of the first kind
# ---------------------------------------------------------------------------

# Start-order multiplier for the backward recurrence.  The contamination of
# the minimal solution decays too slowly in the regime nu << z for a
# 2*sqrt(z) offset to reach 1e-12; 8*sqrt(z)+24 measures at <= 2e-15
# relative error against a 50-digit reference for z <= 1e6, nu <= 2048.
_MILLER_SQRTZ_FACTOR = 8.0
_MILLER_PAD = 24
_RESCALE_THRESHOLD = 1e250
_RESCALE_FACTOR = 1e-250


def scaled_bessel_i_all(nu_max: int, z: float) -> list[float]:
    r"""Scaled modified Bessel values :math:`e^{-z} I_k(z)` for ``k = 0..nu_max``.

    Miller backward recurrence from order
    ``nu_max + ceil(8 sqrt(z)) + 24``, normalized through the identity
    :math:`e^{-z}\big(I_0(z) + 2\sum_{k\ge 1} I_k(z)\big) = 1`, which keeps
    every intermediate in double range for any representable ``z >= 0``.
    """
    if nu_max < 0 or nu_max > BESSEL_MAX_ORDER:
        raise ValueError(
            f"order must satisfy 0 <= nu <= {BESSEL_MAX_ORDER}, got {nu_max}"
        )
    return _miller_scaled(nu_max, z)


def _miller_scaled(nu_max: int, z: float) -> list[float]:
    """Uncapped Miller core; the public ceiling lives in the caller."""
    if not z >= 0.0:
        raise ValueError(f"argument must be >= 0, got {z}")
    if z == 0.0:
        return [1.0] + [0.0] * nu_max

    start = nu_max + math.ceil(_MILLER_SQRTZ_FACTOR * math.sqrt(z)) + _MILLER_PAD
    vals = [0.0] * (start + 1)
    f_up = 0.0
    f = 1e-300
    vals[start] = f
    for k in range(start, 0, -1):
        f_down = f_up + (2.0 * k / z) * f
        f_up = f
        f = f_down
        vals[k - 1] = f
        if abs(f) > _RESCALE_THRESHOLD:
            for i in range(k - 1, start + 1):
                vals[i] *= _RESCALE_FACTOR
            f *= _RESCALE_FACTOR
            f_up *= _RESCALE_FACTOR

    norm = math.fsum([vals[0]] + [2.0 * v for v in vals[1:]])
    if not (math.isfinite(norm) and norm > 0.0):
        raise NumericsError(
            f"Miller recurrence failed to normalize at z={z} (sum={norm})"
        )
    return [v / norm for v in vals[: nu_max + 1]]


def scaled_bessel_i(nu: int, z: float) -> float:
    r"""Overflow-safe :math:`e^{-z} I_\nu(z)` for integer ``nu >= 0``."""
    return scaled_bessel_i_all(nu, z)[nu]


# ---------------------------------------------------------------------------
# Truncated Taylor jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Jet:
    """Truncated Taylor series: ``coeffs[j]`` is :math:`g^{(j)}(x_0)/j!`.

    Fixed-order arithmetic; operations never change the order and are exact
    (to round-off) on polynomial inputs of degree <= order.
    """

    order: int
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"jet order must be >= 0, got {self.order}")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"expected {self.order + 1} coefficients, got {len(self.coeffs)}"
            )
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError("jet coefficients must be finite")

    @staticmethod
    def constant(value: float, order: int) -> "Jet":
        return Jet(order, (float(value),) + (0.0,) * order)

    @staticmethod
    def of_power(x0: float, p: float, order: int) -> "Jet":
        r"""Jet of :math:`x \mapsto x^p` at ``x0 > 0`` for real ``p``.

        Taylor coefficients :math:`\binom{p}{j} x_0^{p-j}`; covers the
        reciprocal (``p = -1``) and inverse square root (``p = -1/2``) maps.
        """
        if x0 <= 0.0:
            raise ValueError(f"power jets require x0 > 0, got {x0}")
        return Jet(
            order,
            tuple(binom_real(p, j) * x0 ** (p - j) for j in range(order + 1)),
        )

    def __add__(self, other: "Jet") -> "Jet":
        self._check_order(other)
        return Jet(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "Jet") -> "Jet":
        """Cauchy product truncated at the common order."""
        self._check_order(other)
        n = self.order
        out = [0.0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0.0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return Jet(n, tuple(out))

    def scale(self, factor: float) -> "Jet":
        return Jet(self.order, tuple(factor * c for c in self.coeffs))

    def compose_outer(self, outer_coeffs: Sequence[float]) -> "Jet":
        """Jet of ``g(self)`` given Taylor coefficients of ``g`` at ``self.coeffs[0]``.

        ``outer_coeffs[j]`` must equal :math:`g^{(j)}(a_0)/j!` where ``a_0``
        is this jet's constant term; evaluated by Horner on the shifted jet.
        """
        if len(outer_coeffs) != self.order + 1:
            raise ValueError(
                f"expected {self.order + 1} outer coefficients, got {len(outer_coeffs)}"
            )
        delta = Jet(self.order, (0.0,) + self.coeffs[1:])
        acc = Jet.constant(outer_coeffs[-1], self.order)
        for c in reversed(outer_coeffs[:-1]):
            acc = acc * delta + Jet.constant(c, self.order)
        return acc

    def _check_order(self, other: "Jet") -> None:
        if self.order != other.order:
            raise ValueError(
                f"jet order mismatch: {self.order} vs {other.order}"
            )


# ---------------------------------------------------------------------------
# Jet of sqrt(2 pi) rho^(-1/2) e^(-1/rho) I_ell(1/rho)
# ---------------------------------------------------------------------------

_MILLER_TABLE_MIN = 64


@lru_cache(maxsize=16)
def _miller_table(z: float, size: int) -> tuple[float, ...]:
    """Scaled Bessel values of orders ``0..size`` at ``z``, memoized.

    Callers round the highest order they need up to a power of two (at
    least ``_MILLER_TABLE_MIN``), so all coefficients of one kernel shape
    share a few recurrences, and a value depends only on its own request,
    never on which calls came before it.
    """
    return tuple(_miller_scaled(size, z))


def _scaled_bessel_derivative_taylor(ell: int, z0: float, order: int) -> list[float]:
    r"""Taylor coefficients of :math:`u \mapsto e^{-u} I_\ell(u)` at ``z0``.

    The scaled function :math:`g_\nu(u) = e^{-u} I_\nu(u)` obeys
    :math:`g_\nu' = (g_{\nu-1} + g_{\nu+1})/2 - g_\nu`, so the j-th
    derivative of :math:`g_\ell` is a fixed linear combination of orders
    ``ell-j .. ell+j`` (negative orders folded by :math:`I_{-n} = I_n`).
    The order values come from the shared table of :func:`_miller_table`
    (uncapped: high-frequency Fourier coefficients reach past the public
    ceiling).
    """
    size = max(_MILLER_TABLE_MIN, 1 << (ell + order - 1).bit_length())
    g = _miller_table(z0, size)

    def g_at(nu: int) -> float:
        return g[abs(nu)]

    # weights[nu] = coefficient of g_nu in the current derivative
    weights = {ell: 1.0}
    derivs = [g_at(ell)]
    for _ in range(order):
        nxt: dict[int, float] = {}
        for nu, w in weights.items():
            nxt[nu - 1] = nxt.get(nu - 1, 0.0) + 0.5 * w
            nxt[nu + 1] = nxt.get(nu + 1, 0.0) + 0.5 * w
            nxt[nu] = nxt.get(nu, 0.0) - w
        weights = nxt
        derivs.append(math.fsum(w * g_at(nu) for nu, w in sorted(weights.items())))
    return [d / math.factorial(j) for j, d in enumerate(derivs)]


def jet_psi2_hat(ell: int, rho0: float, order: int) -> Jet:
    r"""Taylor jet of :math:`\rho \mapsto \sqrt{2\pi}\,\rho^{-1/2} e^{-1/\rho} I_\ell(1/\rho)`.

    Built as the composition of the reciprocal map with the scaled Bessel
    function, multiplied by the jet of :math:`\sqrt{2\pi}\rho^{-1/2}`; the
    scaled-order derivative recurrence sidesteps any explicit derivative
    polynomials.
    """
    if ell < 0:
        raise ValueError(f"frequency must be >= 0, got {ell}")
    if rho0 <= 0.0:
        raise ValueError(f"expansion point must be > 0, got {rho0}")
    if not 0 <= order <= JET_MAX_ORDER:
        raise ValueError(f"jet order must satisfy 0 <= order <= {JET_MAX_ORDER}")
    z0 = 1.0 / rho0
    u = Jet.of_power(rho0, -1.0, order)
    outer = _scaled_bessel_derivative_taylor(ell, z0, order)
    bessel_part = u.compose_outer(outer)
    prefactor = Jet.of_power(rho0, -0.5, order).scale(SQRT_2PI)
    return prefactor * bessel_part
