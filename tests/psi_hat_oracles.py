"""Frozen scalar routes of the kernel's Fourier coefficient, one ell per call.

A verbatim copy of the series and Taylor-jet routes of
``torusqi.kernel.psi_fourier_analytic`` as they were before they took an
array of frequencies.  The tests hold the array routes to these bits.
Only the Bessel values are shared with the library: its memoized Miller
table, every value of which depends only on (z, size).
"""

import math
from functools import lru_cache

from torusqi.specfun import _miller_table, binom_real

SQRT_2PI = math.sqrt(2.0 * math.pi)

_MILLER_TABLE_MIN = 64
_SERIES_MIN_INV_RHO = 25.0
_SERIES_MAX_TERMS = 400


def miller_bucket(ell: int, order: int) -> int:
    """Size of the Miller table that the jet route reads at ``ell``."""
    return max(_MILLER_TABLE_MIN, 1 << (ell + order - 1).bit_length())


def _scaled_bessel_derivative_taylor(ell, z0, order):
    g = _miller_table(z0, miller_bucket(ell, order))
    return [
        math.fsum((-1) ** (j + s) * math.comb(2 * j, j + s) / 2**j * g[abs(ell + s)]
                  for s in range(-j, j + 1)) / math.factorial(j)
        for j in range(order + 1)
    ]


def _power_taylor(x0, p, order):
    return [binom_real(p, j) * x0 ** (p - j) for j in range(order + 1)]


@lru_cache(maxsize=16)
def _power_series(rho0, order):
    return ((0.0, *_power_taylor(rho0, -1.0, order)[1:]),
            tuple(SQRT_2PI * c for c in _power_taylor(rho0, -0.5, order)))


def _truncated_product(a, b):
    n = len(a)
    out = [0.0] * n
    for i, ai in enumerate(a):
        if ai == 0.0:
            continue
        for j in range(n - i):
            out[i + j] += ai * b[j]
    return out


def jet_psi2_hat_scalar(ell: int, rho0: float, order: int) -> tuple[float, ...]:
    outer = _scaled_bessel_derivative_taylor(ell, 1.0 / rho0, order)
    delta, prefactor = _power_series(rho0, order)
    acc = [outer[-1]] + [0.0] * order
    for c in reversed(outer[:-1]):
        acc = _truncated_product(acc, delta)
        acc[0] += c
    return tuple(_truncated_product(prefactor, acc))


def psi_hat_via_series_scalar(m: int, ell: int, rho: float) -> float | None:
    """The series route's value, or None where the jet route applies."""
    mu = 4.0 * ell * ell
    q = mu * rho / 8.0
    z = 1.0 / rho
    if z < _SERIES_MIN_INV_RHO or 2.0 * q > max(2.0, m * math.log(z)):
        return None
    term = 1.0
    weight = 1.0
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
            return None
        prev_mag = mag
    return None


def psi_hat_scalar(m: int, c: float, ell: int) -> float:
    """``psi_fourier_analytic(KernelParams(m, c), ell)`` by the frozen routes."""
    rho = c * c
    ell = abs(ell)
    via_series = psi_hat_via_series_scalar(m, ell, rho)
    if via_series is not None:
        return via_series
    jet = jet_psi2_hat_scalar(ell, rho, m)
    acc = 0.0
    power = 1.0
    for j in range(m + 1):
        acc += power * jet[j]
        power *= -rho
    return acc
