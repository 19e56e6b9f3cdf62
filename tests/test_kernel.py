import math

import numpy as np
import pytest

from torusqi.grid import FullGridSpec
from torusqi.kernel import (
    KernelParams,
    TensorKernelSpec,
    comb_identity_residual,
    f2_phi_closed,
    f2_phi_quadrature,
    phi_generalized,
    psi_fourier_analytic,
    psi_fourier_quadrature,
    psi_restricted,
    strang_fix_certify,
)
from torusqi import kernel, specfun
from torusqi.qi import QuasiInterpolant, evaluate, evaluate_dense
from torusqi.specfun import _miller_scaled, binom_real

SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Kernel values
# ---------------------------------------------------------------------------

def test_phi_peak_values():
    assert phi_generalized(KernelParams(0, 1.0), 0.0) == pytest.approx(
        1.0 / SQRT_2PI, rel=1e-15
    )
    assert phi_generalized(KernelParams(0, 0.5), 0.0) == pytest.approx(
        2.0 / SQRT_2PI, rel=1e-15
    )


def test_phi_hand_value_m1():
    # u = s^2/(2c^2) = 1: (1/sqrt(2pi)) (3/2 - 1) e^{-1} = 0.0733813...
    got = phi_generalized(KernelParams(1, 1.0), math.sqrt(2.0))
    assert got == pytest.approx(0.5 * math.exp(-1.0) / SQRT_2PI, rel=1e-14)
    assert got == pytest.approx(0.07338, abs=1e-5)


def test_psi_values():
    for c in (0.3, 1.0):
        assert psi_restricted(KernelParams(0, c), 0.0) == pytest.approx(
            1.0 / (SQRT_2PI * c), rel=1e-15
        )
    assert psi_restricted(KernelParams(0, 1.0), math.pi) == pytest.approx(
        math.exp(-2.0) / SQRT_2PI, rel=1e-14
    )
    assert psi_restricted(KernelParams(1, 1.0), math.pi) == pytest.approx(
        -0.5 * math.exp(-2.0) / SQRT_2PI, rel=1e-14
    )
    # L_1^{(1/2)}(u) = 0 at u = 3/2, i.e. at alpha = 2 asin(c sqrt(3)/2)
    alpha0 = 2.0 * math.asin(math.sqrt(0.75))
    assert abs(psi_restricted(KernelParams(1, 1.0), alpha0)) < 1e-15


def test_psi_even_and_periodic():
    p = KernelParams(2, 0.7)
    alpha = np.linspace(-9.0, 9.0, 61)
    np.testing.assert_allclose(
        psi_restricted(p, alpha), psi_restricted(p, -alpha), rtol=1e-14
    )
    np.testing.assert_allclose(
        psi_restricted(p, alpha),
        psi_restricted(p, alpha + 2.0 * math.pi),
        rtol=0,
        atol=1e-15,
    )


def test_psi_is_phi_at_chordal_distance():
    # restriction consistency: psi(alpha) = phi(2 |sin(alpha/2)|)
    for m in (0, 1, 2):
        p = KernelParams(m, 0.4)
        for alpha in np.linspace(0.0, 2.0 * math.pi, 37):
            chord = 2.0 * abs(math.sin(alpha / 2.0))
            assert psi_restricted(p, alpha) == pytest.approx(
                phi_generalized(p, chord), rel=1e-13, abs=1e-300
            )


def test_tensor_kernel_zero_factor():
    # L_1^{1/2}(u) = 0 at u = 3/2: alpha0 = 2 asin(c sqrt(3)/2); a unit
    # sample at the origin makes the evaluator return the tensor kernel itself
    c = 1.0
    alpha0 = 2.0 * math.asin(c * math.sqrt(0.75))
    p0, p1 = KernelParams(1, c), KernelParams(0, 0.5)
    samples = np.zeros((8, 8))
    samples[0, 0] = 1.0
    q = QuasiInterpolant(
        grid=FullGridSpec((8, 8)),
        kernel=TensorKernelSpec(2, (p0, p1), (1.0, 1.0)),
        samples=samples,
        stencil_halfwidths=(4, 4),
    )
    assert abs(evaluate(q, [alpha0, 0.3])[0]) < 1e-15
    assert abs(evaluate_dense(q, [alpha0, 0.3])[0]) < 1e-15
    assert evaluate(q, [0.0, 0.3])[0] == pytest.approx(
        psi_restricted(p0, 0.0) * psi_restricted(p1, 0.3), rel=1e-14
    )


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(9, 0.5)
    with pytest.raises(ValueError):
        KernelParams(-1, 0.5)
    with pytest.raises(ValueError):
        KernelParams(0, 0.0)
    with pytest.raises(ValueError):
        KernelParams(0, 3.2)


# ---------------------------------------------------------------------------
# Planar transform: closed form vs Hankel quadrature
# ---------------------------------------------------------------------------

def test_f2_closed_gaussian_case():
    p = KernelParams(0, 0.8)
    for r in (0.0, 1.0, 3.0):
        assert f2_phi_closed(p, r) == pytest.approx(
            SQRT_2PI * p.c * math.exp(-(p.c * r) ** 2 / 2.0), rel=1e-14
        )


def test_f2_closed_hand_values():
    assert f2_phi_closed(KernelParams(1, 1.0), 1.0) == pytest.approx(
        SQRT_2PI * math.exp(-0.5), rel=1e-14
    )
    assert f2_phi_closed(KernelParams(2, 1.0), 0.0) == pytest.approx(
        0.375 * SQRT_2PI, rel=1e-14
    )


def test_f2_quadrature_total_mass():
    assert f2_phi_quadrature(KernelParams(0, 1.0), 0.0) == pytest.approx(
        SQRT_2PI, rel=1e-9
    )


def test_f2_quadrature_matches_closed_form():
    # agreement is relative down to the transform's peak scale sqrt(2pi) c;
    # below that the true value underflows what double quadrature can see
    for m in (0, 1, 2):
        for c in (0.3, 1.0):
            p = KernelParams(m, c)
            scale = SQRT_2PI * c
            for rc in (0.0, 0.5, 1.0, 2.0, 5.0):
                r = rc / c
                a = f2_phi_closed(p, r)
                q = f2_phi_quadrature(p, r)
                assert abs(a - q) <= 1e-9 * max(abs(a), scale), (m, c, rc)


def test_f2_quadrature_rejects_tiny_c():
    with pytest.raises(ValueError):
        f2_phi_quadrature(KernelParams(0, 0.005), 1.0)


def test_flat_strang_fix_exponent():
    # The kernel is a univariate mollifier: int phi ds = 1 and the line
    # transform satisfies |int phi(s) cos(w s) ds - 1| ~ (c w)^{2m+2}.
    # (The planar transform f2_phi_closed carries a different r = 0
    # normalization for m >= 1 and is covered by the Hankel-oracle tests.)
    for m in (0, 1, 2):
        c = 0.1
        p = KernelParams(m, c)
        t_max = 14.0 * c * (m + 2)
        s = np.linspace(-t_max, t_max, 20001)
        phi = phi_generalized(p, np.abs(s))
        ws = np.array([0.4, 0.2, 0.1, 0.05]) / c
        res = [
            abs(np.trapezoid(phi * np.cos(w * s), s) - 1.0) for w in ws
        ]
        slope = np.polyfit(np.log(ws), np.log(res), 1)[0]
        assert abs(slope - (2 * m + 2)) <= 0.15, (m, slope)


def test_flat_kernel_unit_mass():
    for m in (0, 1, 2):
        c = 0.1
        p = KernelParams(m, c)
        t_max = 14.0 * c * (m + 2)
        s = np.linspace(-t_max, t_max, 20001)
        assert np.trapezoid(phi_generalized(p, np.abs(s)), s) == pytest.approx(
            1.0, abs=1e-12
        )


# ---------------------------------------------------------------------------
# Fourier coefficients of the restricted kernel
# ---------------------------------------------------------------------------

def test_psi_hat_base_value():
    got = psi_fourier_analytic(KernelParams(0, 0.5), 0)
    oracle = psi_fourier_quadrature(KernelParams(0, 0.5), 0, 4096)
    assert got == pytest.approx(1.0378, abs=2e-4)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_psi_hat_even_in_ell():
    p = KernelParams(1, 0.3)
    assert psi_fourier_analytic(p, -3) == psi_fourier_analytic(p, 3)


def test_psi_hat_small_c_expansion():
    # psi_hat_2(ell; rho) = 1 - (4 ell^2 - 1) rho / 8 + O(rho^2)
    got = psi_fourier_analytic(KernelParams(0, 0.01), 1)
    assert got == pytest.approx(1.0 - 3.75e-5, abs=2e-8)


def test_psi_hat_quadrature_node_convergence():
    p = KernelParams(0, 0.5)
    a = psi_fourier_quadrature(p, 0, 4096)
    b = psi_fourier_quadrature(p, 0, 8192)
    assert a == pytest.approx(b, rel=1e-13)


def test_psi_hat_frequency_ceiling():
    p = KernelParams(0, 0.5)
    assert abs(psi_fourier_analytic(p, 4096)) < 1e-300  # deep underflow
    with pytest.raises(ValueError):
        psi_fourier_analytic(p, 4097)


def test_psi_hat_quadrature_rejects_bad_nodes():
    with pytest.raises(ValueError):
        psi_fourier_quadrature(KernelParams(0, 0.5), 10, 80)
    with pytest.raises(ValueError):
        psi_fourier_quadrature(KernelParams(0, 5e-4), 0, 4096)


def test_psi_hat_analytic_vs_quadrature_battery():
    # sharper acceptance sweep lives in test_acceptance; spot-check here
    for m in (0, 1, 2):
        for c in (0.02, 0.1, 0.5):
            p = KernelParams(m, c)
            for ell in (0, 1, 5, 17, 64):
                a = psi_fourier_analytic(p, ell)
                q = psi_fourier_quadrature(p, ell, 8192)
                assert abs(a - q) <= 1e-9 * max(abs(a), 1.0), (m, c, ell)


def test_psi_hat_alias_decay():
    # monotone exponential decay past ell ~ 2/c; the 1e-12 crossing sits at
    # 8/c for m = 0 and needs ~10% slack for the m = 1, 2 polynomial
    # prefactors (measured crossings: 8.4/c and 8.8/c); at c = 0.5 the
    # Gaussian regime no longer applies and the crossing is ell ~ 21
    for m in (0, 1, 2):
        slack = 1.0 if m == 0 else 1.1
        for c, stop_gauss in ((0.02, True), (0.1, True), (0.5, False)):
            p = KernelParams(m, c)
            start = int(math.ceil(2.0 / c))
            stop = int(math.ceil(slack * 8.0 / c)) if stop_gauss else 22
            vals = [abs(psi_fourier_analytic(p, ell)) for ell in range(start, stop + 1)]
            assert all(b < a for a, b in zip(vals, vals[1:])), (m, c)
            assert vals[-1] < 1e-12, (m, c, vals[-1])


def test_psi_hat_independent_of_call_history():
    # the jet route reads its Bessel values from a memoized table; each
    # probe takes the jet route (c = 0.1 keeps z = 100 in the series
    # regime only for ell <~ 30) and sits on or next to a bucket edge
    c = 0.1
    probes = [(0, 40), (0, 64), (0, 65), (2, 62), (2, 63), (2, 700), (2, 3072)]
    assert all(kernel._psi_hat_via_series(m, ell, c * c) is None for m, ell in probes)

    def values():
        return [psi_fourier_analytic(KernelParams(m, c), ell) for m, ell in probes]

    cold = []
    for m, ell in probes:
        specfun._miller_table.cache_clear()
        cold.append(psi_fourier_analytic(KernelParams(m, c), ell))
    histories = {
        "ascending": [(c, ell) for ell in range(0, 3073)],
        "descending": [(c, ell) for ell in range(3072, -1, -1)],
        "other shape": [(0.07, ell) for ell in range(0, 3073, 31)],
    }
    for name, calls in histories.items():
        specfun._miller_table.cache_clear()
        for shape, ell in calls:
            psi_fourier_analytic(KernelParams(2, shape), ell)
        assert values() == cold, name


def test_psi_hat_table_matches_fresh_recurrence(monkeypatch):
    # table values (recurrence started at the bucket top) against a fresh
    # recurrence started at ell + m, over ell spanning the 64/128 buckets;
    # c = 0.3 keeps the jet route well conditioned up to m = 8
    c = 0.3
    for m in (0, 2, 8):
        p = KernelParams(m, c)
        for ell in range(64 - m - 8, 64 - m + 9):
            tabled = psi_fourier_analytic(p, ell)
            with monkeypatch.context() as mp:
                mp.setattr(
                    specfun, "_miller_table",
                    lambda z, size, n=ell + m: _miller_scaled(n, z),
                )
                fresh = psi_fourier_analytic(p, ell)
            assert abs(tabled - fresh) <= 1e-14 * abs(fresh), (m, ell)


# ---------------------------------------------------------------------------
# Strang-Fix certification
# ---------------------------------------------------------------------------

def test_strang_fix_orders():
    report = strang_fix_certify(0, 1.0, [32, 64, 128, 256], [1, 2])
    assert report.orders[1] == pytest.approx(2.0, abs=0.15)
    assert report.orders[2] == pytest.approx(2.0, abs=0.15)
    report2 = strang_fix_certify(2, 1.0, [64, 128, 256], [2])
    assert report2.orders[2] == pytest.approx(6.0, abs=0.15)
    assert report2.saturation_max > 0.0
    assert report2.aliasing_max >= 0.0


def test_strang_fix_zero_frequency_probe():
    # residual stays positive at ell = 0 but carries the same exponent
    report = strang_fix_certify(0, 1.0, [32, 64, 128, 256], [0])
    assert report.orders[0] == pytest.approx(2.0, abs=0.15)
    assert report.saturation_max > 0.0


def test_strang_fix_rejects_zero_or_nonfinite_residual(monkeypatch):
    # at m = 6 the residuals of the finer shapes round to exactly 0, whose
    # logarithm would turn the fitted order into nan
    with pytest.raises(specfun.NumericsError, match="ell=1"):
        strang_fix_certify(6, 1.0, [64, 128, 256, 512], [1, 2, 3])
    monkeypatch.setattr(kernel, "psi_fourier_analytic", lambda p, ell: math.nan)
    with pytest.raises(specfun.NumericsError):
        strang_fix_certify(0, 1.0, [32, 64], [1])


def test_strang_fix_residual_ratio_m0():
    # halving c quarters the residual at fixed ell for m = 0
    r1 = abs(psi_fourier_analytic(KernelParams(0, 0.1), 1) - 1.0)
    r2 = abs(psi_fourier_analytic(KernelParams(0, 0.05), 1) - 1.0)
    assert r1 / r2 == pytest.approx(4.0, rel=0.05)


def test_strang_fix_validation():
    with pytest.raises(ValueError):
        strang_fix_certify(0, 1.0, [33, 64], [1])
    with pytest.raises(ValueError):
        strang_fix_certify(0, 1.0, [64, 32], [1])
    with pytest.raises(ValueError):
        strang_fix_certify(0, 1.0, [32, 64], [16])
    with pytest.raises(ValueError):
        strang_fix_certify(0, -1.0, [32, 64], [1])


# ---------------------------------------------------------------------------
# Combinatorial identity
# ---------------------------------------------------------------------------

def test_comb_identity_k_equals_m():
    for m in range(0, 8):
        for z in (0.5, -1.3, 2.0, 7.25):
            assert comb_identity_residual(m, m, z) == 0.0


def test_comb_identity_examples():
    assert comb_identity_residual(0, 2, 0.5) <= 1e-13
    assert comb_identity_residual(1, 5, -1.3) <= 1e-12


def test_comb_identity_closed_form():
    # both sums equal (-1)^m binom(z-1, m-k)
    for k, m, z in [(0, 4, 0.5), (1, 5, -1.3), (2, 6, 7.25)]:
        lhs = math.fsum(
            (-1.0) ** j * binom_real(z, j - k) for j in range(k, m + 1)
        )
        closed = (-1.0) ** m * binom_real(z - 1.0, m - k)
        assert lhs == pytest.approx(closed, rel=1e-12, abs=1e-13)
        assert comb_identity_residual(k, m, z) <= 1e-12


def test_comb_identity_validation():
    with pytest.raises(ValueError):
        comb_identity_residual(3, 2, 0.5)
    with pytest.raises(ValueError):
        comb_identity_residual(0, 17, 0.5)
