"""Independent Bessel references for the special-function tests."""

import math


def hankel_asymptotic_i(ell: int, z: float, terms: int) -> float:
    r"""Truncated Hankel expansion of :math:`e^{-z} I_\ell(z)` (DLMF 10.40.1).

    With :math:`\mu = 4\ell^2`,

    .. math::
        e^{-z} I_\ell(z) \approx \frac{1}{\sqrt{2\pi z}}
        \sum_{\gamma < \text{terms}} \frac{(-1)^\gamma}{\gamma! (8z)^\gamma}
        \prod_{i=1}^{\gamma} \big(\mu - (2i-1)^2\big).

    Valid only for ``z >= 10 * max(1, ell**2)``; used as an independent
    cross-check of :func:`torusqi.specfun.scaled_bessel_i`.
    """
    if ell < 0:
        raise ValueError(f"order must be >= 0, got {ell}")
    if not 1 <= terms <= 8:
        raise ValueError(f"terms must satisfy 1 <= terms <= 8, got {terms}")
    z_min = 10.0 * max(1.0, float(ell) ** 2)
    if not z >= z_min:
        raise ValueError(
            f"z={z} outside the expansion's validity regime (need z >= {z_min})"
        )
    mu = 4.0 * ell * ell
    acc = 1.0
    term = 1.0
    for gamma in range(1, terms):
        term *= -(mu - (2 * gamma - 1) ** 2) / (8.0 * z * gamma)
        acc += term
    return acc / math.sqrt(2.0 * math.pi * z)
