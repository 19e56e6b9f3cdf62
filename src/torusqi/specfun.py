r"""Special-function substrate for the periodic kernel machinery.

Provides the pieces everything else is assembled from:

* generalized Laguerre polynomials :math:`L_m^{(\alpha)}` via their explicit
  coefficient sum,
* binomial coefficients :math:`\binom{z}{k}` for real upper argument,
* overflow-safe scaled modified Bessel functions
  :math:`\tilde I_\nu(z) = e^{-z} I_\nu(z)` (Miller backward recurrence;
  the jet route shares one memoized recurrence per argument and order bucket),
* the Taylor coefficients (order ``<= 8``) of
  :math:`\sqrt{2\pi}\,\rho^{-1/2} e^{-1/\rho} I_\ell(1/\rho)`, as a
  tuple for one ``ell`` or as rows over a 1-D array of ``ell``.  Every
  frequency of an array is one lane of the same operations and reads the
  Bessel table of its own order bucket, so its coefficients are bitwise
  those of a call for it alone.

All arithmetic is double precision; the documented support ceilings
(``m <= 12`` for raw Laguerre evaluation, jet order ``<= 8``) are where
coefficient cancellation stays below the tolerances certified by the tests.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

__all__ = [
    "NumericsError",
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
    """A numerical procedure failed to converge or normalize, or a computed
    number is non-finite or degenerate (such as a zero error with no rate)."""


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
# Taylor coefficients of sqrt(2 pi) rho^(-1/2) e^(-1/rho) I_ell(1/rho)
# ---------------------------------------------------------------------------

_MILLER_TABLE_MIN = 64


@lru_cache(maxsize=64)
def _miller_table(z: float, size: int) -> np.ndarray:
    """Scaled Bessel values of orders ``0..size`` at ``z``, memoized, read-only.

    Callers round the highest order they need up to a power of two (at
    least ``_MILLER_TABLE_MIN``), so all coefficients of one kernel shape
    share a few recurrences, and a value depends only on its own request,
    never on which calls came before it.  The cache holds 64 tables of at
    most 8193 values (about 4 MiB), so a sweep over a few shapes runs each
    recurrence once.
    """
    table = np.array(_miller_scaled(size, z))
    table.flags.writeable = False
    return table


def _scaled_bessel_derivative_taylor(ell: np.ndarray, z0: float, order: int) -> list[np.ndarray]:
    r"""Taylor coefficients of :math:`u \mapsto e^{-u} I_\ell(u)` at ``z0``, over an array of ``ell``.

    The scaled function :math:`g_\nu(u) = e^{-u} I_\nu(u)` obeys
    :math:`g_\nu' = (g_{\nu-1} + g_{\nu+1})/2 - g_\nu`, so

    .. math::
        g_\ell^{(j)} = 2^{-j} \sum_{s=-j}^{j} (-1)^{j+s} \binom{2j}{j+s}
            g_{|\ell+s|}

    (negative orders folded by :math:`I_{-n} = I_n`).  Returns one array
    over ``ell`` per ``j = 0..order``.  The weights are exact dyadic floats
    and :func:`math.fsum` rounds each frequency's sum once.  Each frequency
    reads the values of its own bucket of :func:`_miller_table` (uncapped:
    high-frequency Fourier coefficients reach past the public ceiling), so
    its coefficients do not depend on the other frequencies of the call.
    """
    idx = np.abs(ell[:, None] + np.arange(-order, order + 1))
    # max(64, 1 << (ell + order - 1).bit_length()): frexp's exponent is the
    # bit length of an integer below 2**53
    buckets = np.maximum(_MILLER_TABLE_MIN, 1 << np.frexp(ell + (order - 1))[1])
    g = np.empty(idx.shape)
    for size in np.unique(buckets).tolist():
        lanes = buckets == size
        g[lanes] = np.asarray(_miller_table(z0, size))[idx[lanes]]
    coeffs = []
    for j in range(order + 1):
        weights = [(-1) ** (j + s) * math.comb(2 * j, j + s) / 2**j for s in range(-j, j + 1)]
        terms = np.multiply(weights, g[:, order - j:order + j + 1])
        coeffs.append(np.array([math.fsum(row) for row in terms.tolist()]) / math.factorial(j))
    return coeffs


def _power_taylor(x0: float, p: float, order: int) -> list[float]:
    r"""Taylor coefficients :math:`\binom{p}{j} x_0^{p-j}` of :math:`x^p` at ``x0``."""
    return [binom_real(p, j) * x0 ** (p - j) for j in range(order + 1)]


@lru_cache(maxsize=16)
def _power_series(rho0: float, order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    r"""Taylor coefficients of :math:`\rho^{-1} - \rho_0^{-1}` and :math:`\sqrt{2\pi}\rho^{-1/2}`.

    Both are expanded at ``rho0`` and depend on the kernel shape alone, so
    every frequency of one shape shares one memoized pair.
    """
    return ((0.0, *_power_taylor(rho0, -1.0, order)[1:]),
            tuple(SQRT_2PI * c for c in _power_taylor(rho0, -0.5, order)))


def _truncated_product(a: Sequence, b: Sequence) -> np.ndarray:
    """Cauchy product of two coefficient lists of equal length, truncated there.

    Each list is floats, or rows of one value per frequency.  Entry ``k``
    adds ``a[i] b[k - i]`` in ascending ``i``; a zero entry of ``a`` adds
    nothing, lane by lane.
    """
    n = len(a)
    a = np.asarray(a).reshape(n, -1)
    b = np.asarray(b).reshape(n, -1)
    out = np.zeros((n, max(a.shape[1], b.shape[1])))
    for i in range(n):
        out[i:] += np.where(a[i] == 0.0, 0.0, a[i] * b[:n - i])
    return out


def jet_psi2_hat(ell, rho0: float, order: int):
    r"""Taylor coefficients of :math:`\rho \mapsto \sqrt{2\pi}\,\rho^{-1/2} e^{-1/\rho} I_\ell(1/\rho)`.

    Returns the coefficients :math:`h^{(j)}(\rho_0)/j!` for ``j = 0..order``:
    a tuple of floats for an int ``ell``, or an array of shape
    ``(order + 1, len(ell))`` for a 1-D integer array.  The scaled Bessel
    coefficients at :math:`1/\rho_0` are composed with the reciprocal map
    by Horner's rule, then multiplied by those of
    :math:`\sqrt{2\pi}\rho^{-1/2}`, all truncated at ``order``; every
    frequency is one lane of the same array operations.  Raises
    :class:`NumericsError` naming the first frequency whose coefficients
    are not finite.
    """
    ells = np.asarray(ell)
    if ells.ndim > 1 or ells.dtype.kind not in "iu":
        raise ValueError(f"frequency must be an int or a 1-D integer array, got {ell!r}")
    lanes = np.atleast_1d(ells).astype(np.int64)
    if np.any(lanes < 0):
        raise ValueError(f"frequency must be >= 0, got {lanes[lanes < 0][0]}")
    if rho0 <= 0.0:
        raise ValueError(f"expansion point must be > 0, got {rho0}")
    if not 0 <= order <= JET_MAX_ORDER:
        raise ValueError(f"jet order must satisfy 0 <= order <= {JET_MAX_ORDER}")
    outer = _scaled_bessel_derivative_taylor(lanes, 1.0 / rho0, order)
    delta, prefactor = _power_series(rho0, order)
    acc = np.zeros((order + 1, lanes.size))
    acc[0] = outer[-1]
    for c in reversed(outer[:-1]):
        acc = _truncated_product(acc, delta)
        acc[0] += c
    coeffs = _truncated_product(prefactor, acc)
    finite = np.isfinite(coeffs).all(axis=0)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NumericsError(
            f"Taylor coefficients at ell={lanes[k]}, rho0={rho0} are not finite: "
            f"{tuple(coeffs[:, k].tolist())}"
        )
    return coeffs if ells.ndim else tuple(coeffs[:, 0].tolist())
