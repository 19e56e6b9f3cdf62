import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from bessel_oracles import hankel_asymptotic_i
from torusqi.specfun import (
    binom_real,
    jet_psi2_hat,
    laguerre_general,
    scaled_bessel_i,
    scaled_bessel_i_all,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Laguerre
# ---------------------------------------------------------------------------

def test_laguerre_order_zero_is_one():
    assert laguerre_general(0, 0.5, 7.3) == 1.0


def test_laguerre_hand_expansions():
    # L_1^{1/2}(s) = 3/2 - s ; L_2^{1/2}(s) = 15/8 - (5/2)s + s^2/2
    assert laguerre_general(1, 0.5, 1.0) == pytest.approx(0.5, rel=1e-14)
    assert laguerre_general(2, 0.5, 2.0) == pytest.approx(-1.125, rel=1e-14)


def _laguerre_term_scale(m, alpha, s):
    """Largest monomial magnitude in the defining sum (conditioning scale)."""
    from torusqi.specfun import laguerre_coeffs

    return max(abs(c) * abs(s) ** k for k, c in enumerate(laguerre_coeffs(m, alpha)))


def test_laguerre_matches_scipy():
    rng = np.random.default_rng(7)
    for m in range(0, 13):
        for alpha in (0.0, 0.5, 1.5):
            points = rng.uniform(0.0, 40.0, size=5)
            for s in points:
                ref = eval_genlaguerre(m, alpha, s)
                val = laguerre_general(m, alpha, float(s))
                tol = 1e-13 * max(1.0, abs(ref), _laguerre_term_scale(m, alpha, s))
                assert abs(val - ref) <= tol
            # an array is evaluated elementwise, bit for bit
            scalars = [laguerre_general(m, alpha, float(s)) for s in points]
            assert laguerre_general(m, alpha, points).tolist() == scalars


def test_laguerre_three_term_recurrence():
    alpha = 0.5
    for m in range(1, 11):
        for s in np.linspace(0.0, 50.0, 26):
            lhs = (m + 1) * laguerre_general(m + 1, alpha, s)
            t1 = (2 * m + 1 + alpha - s) * laguerre_general(m, alpha, s)
            t2 = (m + alpha) * laguerre_general(m - 1, alpha, s)
            # residual measured against the magnitudes actually combined,
            # including the monomial scale the evaluations cancel over
            scale = max(
                abs(lhs), abs(t1), abs(t2), _laguerre_term_scale(m + 1, alpha, s), 1.0
            )
            assert abs(lhs - (t1 - t2)) <= 1e-11 * scale


def test_laguerre_rejects_unsupported_order():
    with pytest.raises(ValueError):
        laguerre_general(13, 0.5, 1.0)
    with pytest.raises(ValueError):
        laguerre_general(2, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Binomials
# ---------------------------------------------------------------------------

def test_binom_real_examples():
    assert binom_real(5.0, 2) == 10.0
    assert binom_real(1.5, 1) == 1.5
    assert binom_real(2.5, 2) == pytest.approx(1.875, rel=1e-15)


def test_binom_real_integer_cases():
    # exact zero when 0 <= z < k for integer z
    assert binom_real(3.0, 5) == 0.0
    for n in range(10):
        for k in range(n + 1):
            assert binom_real(float(n), k) == pytest.approx(
                math.comb(n, k), rel=1e-13
            )


def test_binom_real_rejects_large_k():
    with pytest.raises(ValueError):
        binom_real(1.0, 65)


# ---------------------------------------------------------------------------
# Scaled modified Bessel functions
# ---------------------------------------------------------------------------

def _series_scaled_i(nu, z, nterms=200):
    """Power-series oracle: e^{-z} sum_k (z/2)^{2k+nu} / (k! (k+nu)!)."""
    acc = mpmath.mpf(0)
    half = mpmath.mpf(z) / 2
    for k in range(nterms):
        acc += half ** (2 * k + nu) / (mpmath.factorial(k) * mpmath.factorial(k + nu))
    return float(acc * mpmath.e ** (-mpmath.mpf(z)))


def test_scaled_bessel_trivial_values():
    assert scaled_bessel_i(0, 0.0) == 1.0
    assert scaled_bessel_i(1, 0.0) == 0.0


def test_scaled_bessel_series_value_at_4():
    oracle = _series_scaled_i(0, 4.0)
    assert oracle == pytest.approx(0.207001, abs=2e-6)
    assert scaled_bessel_i(0, 4.0) == pytest.approx(oracle, rel=1e-12)


def test_scaled_bessel_matches_power_series():
    for nu in [0, 1, 2, 5, 10, 20]:
        for z in [0.05, 0.5, 1.0, 3.0, 7.5, 10.0]:
            ref = _series_scaled_i(nu, z)
            val = scaled_bessel_i(nu, z)
            assert val == pytest.approx(ref, rel=1e-12, abs=1e-300)


def test_scaled_bessel_matches_mpmath_large_arguments():
    cases = [(0, 100.0), (3, 2500.0), (0, 1e4), (7, 1e5), (1, 1e6), (64, 6400.0),
             (512, 1e4), (2048, 1e5)]
    for nu, z in cases:
        with mpmath.workdps(40):
            ref = float(mpmath.besseli(nu, mpmath.mpf(z)) * mpmath.e ** (-mpmath.mpf(z)))
        val = scaled_bessel_i(nu, z)
        assert val == pytest.approx(ref, rel=1e-12), (nu, z)


def test_scaled_bessel_normalization_identity():
    for z in [0.1, 1.0, 10.0, 100.0, 1e4]:
        nu_max = 32
        g = scaled_bessel_i_all(nu_max, z)
        while g[-1] > 1e-16:
            nu_max *= 2
            g = scaled_bessel_i_all(nu_max, z)
        total = g[0] + 2.0 * math.fsum(g[1:])
        assert abs(total - 1.0) <= 1e-12


def test_scaled_bessel_rejects_bad_inputs():
    with pytest.raises(ValueError):
        scaled_bessel_i(-1, 1.0)
    with pytest.raises(ValueError):
        scaled_bessel_i(2049, 1.0)
    with pytest.raises(ValueError):
        scaled_bessel_i(0, -1.0)


# ---------------------------------------------------------------------------
# Hankel asymptotic cross-check
# ---------------------------------------------------------------------------

def test_hankel_leading_term():
    assert hankel_asymptotic_i(0, 100.0, 1) == pytest.approx(
        1.0 / math.sqrt(200.0 * math.pi), rel=1e-15
    )


def test_hankel_three_terms_hand_value():
    # 1 + 1/800 + 9/(2*800^2), scaled by 1/sqrt(200 pi)
    expected = (1.0 + 1.0 / 800.0 + 9.0 / (2.0 * 800.0**2)) / math.sqrt(200.0 * math.pi)
    got = hankel_asymptotic_i(0, 100.0, 3)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(scaled_bessel_i(0, 100.0), rel=1e-5)


def test_hankel_matches_miller_in_regime():
    assert hankel_asymptotic_i(1, 50.0, 2) == pytest.approx(
        scaled_bessel_i(1, 50.0), rel=1e-3
    )
    for ell in [0, 1, 2]:
        z = 10.0 * max(1, ell * ell) * 30.0
        assert hankel_asymptotic_i(ell, z, 5) == pytest.approx(
            scaled_bessel_i(ell, z), rel=1e-5
        )


def test_hankel_rejects_out_of_regime():
    with pytest.raises(ValueError):
        hankel_asymptotic_i(2, 30.0, 3)  # needs z >= 40
    with pytest.raises(ValueError):
        hankel_asymptotic_i(0, 100.0, 9)


# ---------------------------------------------------------------------------
# jet_psi2_hat
# ---------------------------------------------------------------------------

def _trapezoid_psi2_coeff(ell, c, nodes=4096):
    """Quadrature oracle for int_T psi_2(alpha; c) cos(ell alpha) d alpha."""
    alpha = 2.0 * math.pi * np.arange(nodes) / nodes
    vals = np.exp(-2.0 * np.sin(alpha / 2.0) ** 2 / c**2) / (SQRT_2PI * c)
    return float(np.dot(vals, np.cos(ell * alpha)) * (2.0 * math.pi / nodes))


def test_jet_psi2_hat_zero_order_matches_quadrature():
    # rho0 = 0.25 corresponds to c = 0.5
    jet = jet_psi2_hat(0, 0.25, 0)
    oracle = _trapezoid_psi2_coeff(0, 0.5)
    assert oracle == pytest.approx(1.0378, abs=2e-4)  # derived once, frozen
    assert jet[0] == pytest.approx(oracle, rel=1e-12)


def test_jet_psi2_hat_zero_order_is_function_value():
    for ell, rho0 in [(0, 0.25), (1, 0.01), (5, 0.1)]:
        jet = jet_psi2_hat(ell, rho0, 0)
        direct = SQRT_2PI * rho0 ** (-0.5) * scaled_bessel_i(ell, 1.0 / rho0)
        assert jet[0] == pytest.approx(direct, rel=1e-15)


def test_jet_psi2_hat_first_derivative_finite_difference():
    ell, rho0 = 1, 0.01

    def g(rho):
        return SQRT_2PI * rho ** (-0.5) * scaled_bessel_i(ell, 1.0 / rho)

    d = 1e-6
    fd = (g(rho0 + d) - g(rho0 - d)) / (2 * d)
    jet = jet_psi2_hat(ell, rho0, 1)
    assert jet[1] == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("ell, rho0", [(0, 0.25), (3, 0.5), (40, 0.02)])
def test_jet_psi2_hat_all_orders_match_mpmath(ell, rho0):
    # every coefficient up to the order-8 ceiling; the route's cancellation
    # grows with 1/rho0 (at ell = 1, rho0 = 0.01 the order-8 coefficient is
    # off by 1e12 relative), so these points stay where it is mild
    with mpmath.workdps(60):
        def h(r):
            return mpmath.sqrt(2 * mpmath.pi / r) * mpmath.exp(-1 / r) * mpmath.besseli(ell, 1 / r)

        ref = [float(v) for v in mpmath.taylor(h, mpmath.mpf(rho0), 8)]
    jet = jet_psi2_hat(ell, rho0, 8)
    assert len(jet) == 9
    for k in range(9):
        assert jet[k] == pytest.approx(ref[k], rel=1e-9), k


def test_jet_psi2_hat_builds_power_series_once_per_shape(monkeypatch):
    # the power series of rho^-1 and rho^-1/2 depend only on (rho0, order):
    # 2 x 9 binomials for a whole band of frequencies at one shape
    from torusqi import specfun

    calls = []
    real = specfun.binom_real
    monkeypatch.setattr(specfun, "binom_real", lambda z, k: calls.append(k) or real(z, k))
    rho0 = 0.0371
    for ell in range(2049):
        jet_psi2_hat(ell, rho0, 8)
    assert len(calls) <= 18


def test_jet_psi2_hat_rejects_bad_inputs():
    with pytest.raises(ValueError):
        jet_psi2_hat(0, 0.0, 1)
    with pytest.raises(ValueError):
        jet_psi2_hat(0, 0.1, 9)
    with pytest.raises(ValueError):
        jet_psi2_hat(-1, 0.1, 1)
