import math
from pathlib import Path

import numpy as np
import pytest

from psi_hat_oracles import miller_bucket, psi_hat_scalar
from torusqi.kernel import (
    FOURIER_MAX_FREQ,
    KernelParams,
    _psi_from_chord,
    comb_identity_residual,
    f2_phi_closed,
    f2_phi_quadrature,
    phi_generalized,
    psi_fourier_analytic,
    psi_fourier_quadrature,
    psi_from_chord,
    psi_restricted,
    strang_fix_certify,
)
from torusqi import kernel, specfun
from torusqi.qi import QuasiInterpolant, evaluate, evaluate_dense
from torusqi.specfun import NumericsError, _miller_scaled, binom_real, laguerre_general

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


def test_psi_from_chord_is_psi_restricted_bitwise():
    # evaluation shares t = 2 sin^2(alpha/2) between kernels, so the chord
    # form must give exactly the values of psi_restricted, which are those
    # of the formula written out in alpha
    alphas = np.concatenate(
        [np.linspace(-9.0, 9.0, 401), [0.0, -0.0, math.pi, 1e-300, 2e3]]
    )
    for m in range(9):
        for c in (0.01, 0.4, 3.0):
            p = KernelParams(m, c)
            t = 2.0 * np.sin(alphas / 2.0) ** 2
            u = 2.0 * np.sin(alphas / 2.0) ** 2 / c**2
            inline = laguerre_general(m, 0.5, u) * np.exp(-u) / (SQRT_2PI * c)
            assert np.array_equal(psi_from_chord(p, t), psi_restricted(p, alphas))
            assert np.array_equal(psi_restricted(p, alphas), inline)
            for alpha in (0.0, 0.3, math.pi, 5.5):
                got = psi_from_chord(p, 2.0 * np.sin(alpha / 2.0) ** 2)
                assert isinstance(got, float) and got == psi_restricted(p, alpha)


def test_psi_from_chord_in_place_keeps_the_bits_and_the_input():
    # the in-place evaluation repeats the operations of the formula in
    # their order, on strided windows and non-finite chords as well
    rng = np.random.default_rng(3)
    t = 2.0 * np.sin(rng.uniform(-7.0, 7.0, (60, 31)) / 2.0) ** 2
    t[0, 5:9] = [np.nan, np.inf, -0.0, 1e-300]
    window = t[:, 5:26]
    for m in range(9):
        p = KernelParams(m, 0.3)
        before = window.copy()
        # with u clamped at 746, as the kernel does (see the next test)
        u = np.minimum(window / p.c**2, 746.0)
        inline = laguerre_general(m, 0.5, u) * np.exp(-u) / (SQRT_2PI * p.c)
        got = psi_from_chord(p, window)
        assert np.array_equal(got, inline, equal_nan=True), m
        assert np.array_equal(window, before, equal_nan=True)


def test_psi_from_chord_spending_its_input_keeps_the_bits():
    # the evaluator passes a kernel's own chord rows as the scratch, a
    # window of rows of a wider chord array; the values keep their bits
    rng = np.random.default_rng(5)
    chords = 2.0 * np.sin(rng.uniform(-7.0, 7.0, (41, 300)) / 2.0) ** 2
    for m in range(9):
        p = KernelParams(m, 0.3)
        spent = chords.copy()
        rows = spent[7:34]
        got = _psi_from_chord(p, rows, rows)
        assert np.array_equal(got, psi_from_chord(p, chords[7:34])), m
        assert not np.shares_memory(got, spent)
        assert np.array_equal(spent[:7], chords[:7]) and np.array_equal(spent[34:], chords[34:])


def test_psi_from_chord_past_the_clamp_keeps_the_formula_bits():
    # past u = 746 exp(-u) is 0: where the formula is finite it is a zero
    # of L's sign, which the clamped u keeps; where L(u) overflows (a tiny
    # c, or a huge chord) the formula gives NaN and the kernel that zero
    t = np.array([2.0, 1e3, 1e300, np.inf])
    for m in range(9):
        for c in (0.3, 1e-10, 1.5e-154):
            p = KernelParams(m, c)
            with np.errstate(all="ignore"):
                got = psi_from_chord(p, t)
                u = t / c**2
                formula = laguerre_general(m, 0.5, u) * np.exp(-u) / (SQRT_2PI * c)
            finite = np.isfinite(formula)
            bits = got[finite].view(np.int64), formula[finite].view(np.int64)
            assert np.array_equal(*bits), (m, c)
            assert np.all(got[~finite] == 0.0), (m, c)
            assert np.all(np.signbit(got[~finite]) == (m % 2 == 1)), (m, c)
    # the planar kernel at large distances, where the formula overflowed
    with np.errstate(all="ignore"):
        assert phi_generalized(KernelParams(8, 1e-3), 1e40) == 0.0
        assert phi_generalized(KernelParams(2, 0.5), 1e160) == 0.0


def test_psi_from_chord_holds_two_arrays_of_its_input():
    # the result and one scratch array: the formula written out holds
    # about four temporaries of the input's size at once
    import tracemalloc

    t = 2.0 * np.sin(np.linspace(0.0, 1.0, 32769 * 31).reshape(32769, 31) / 2.0) ** 2
    p = KernelParams(2, 0.01)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = psi_from_chord(p, t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == t.shape
    assert peak < 2.5 * t.nbytes


def test_tensor_kernel_zero_factor():
    # L_1^{1/2}(u) = 0 at u = 3/2: alpha0 = 2 asin(c sqrt(3)/2); a sample
    # of 1 / w^2 at the origin (w = 2 pi / 8, the weight of each axis) makes
    # the evaluator return the tensor kernel itself
    c = 1.0
    alpha0 = 2.0 * math.asin(c * math.sqrt(0.75))
    p0, p1 = KernelParams(1, c), KernelParams(0, 0.5)
    samples = np.zeros((8, 8))
    samples[0, 0] = 1.0 / (2.0 * math.pi / 8) ** 2
    q = QuasiInterpolant(samples, (p0, p1))
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
    # c^2 below the normal range
    with pytest.raises(ValueError, match="smallest normal"):
        KernelParams(0, 1e-160)
    assert KernelParams(0, 1.5e-154).c == 1.5e-154


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

def _takes_jet_route(m, ell, c):
    # the series route leaves the lanes it cannot converge to the jet route
    return not kernel._psi_hat_via_series(m, np.array([ell]), c * c)[1][0]


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


@pytest.mark.parametrize("m, c, ell", [(3, 0.19474532048880874, 15),
                                       (5, 0.17979521791793585, 22),
                                       (8, 0.16599279666910255, 28)])
def test_series_route_stops_at_its_asymptotic_floor(m, c, ell):
    # the series passes its entry checks, then its terms grow again before
    # they reach round-off, so the jet route takes over
    rho = c * c
    assert 1.0 / rho >= kernel._SERIES_MIN_INV_RHO
    assert ell * ell * rho <= max(2.0, m * math.log(1.0 / rho))  # 2 q <= ...
    assert _takes_jet_route(m, ell, c)
    a = psi_fourier_analytic(KernelParams(m, c), ell)
    q = psi_fourier_quadrature(KernelParams(m, c), ell, 1 << 16)
    assert abs(a - q) <= 1e-11 * max(1.0, abs(q)), (a, q)  # measured <= 5.2e-12


def test_psi_hat_independent_of_call_history():
    # the jet route reads its Bessel values from a memoized table; each
    # probe takes the jet route (c = 0.1 keeps z = 100 in the series
    # regime only for ell <~ 30) and sits on or next to a bucket edge
    c = 0.1
    probes = [(0, 40), (0, 64), (0, 65), (2, 62), (2, 63), (2, 700), (2, 3072)]
    assert all(_takes_jet_route(m, ell, c) for m, ell in probes)

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


def test_psi_hat_jet_route_reproduces_capture(monkeypatch):
    # float.hex of every jet-route case of m 0..8, c in {0.05, 0.1, 0.3, 1},
    # ell in 0..63 and 64k - 1, 64k for k = 1..64 (both sides of each Miller
    # table bucket edge); the route must keep these bits when it is reworked
    capture = Path(__file__).parent / "data" / "psi_hat_jet_route.txt"
    rows = [line.split() for line in capture.read_text().splitlines()[1:]]
    assert len(rows) == 5971
    recurrences = []

    def counted(nu_max, z):
        recurrences.append((nu_max, z))
        return _miller_scaled(nu_max, z)

    specfun._miller_table.cache_clear()
    monkeypatch.setattr(specfun, "_miller_scaled", counted)
    changed = []
    for m, c, ell, expected in rows:
        m, c, ell = int(m), float(c), int(ell)
        assert _takes_jet_route(m, ell, c), (m, c, ell)
        if psi_fourier_analytic(KernelParams(m, c), ell).hex() != expected:
            changed.append((m, c, ell))
    assert changed == []
    # the sweep cycles through its (shape, bucket) tables, and the cache
    # holds them all: each recurrence runs once
    assert len(recurrences) == len(set(recurrences)) == 32


def test_non_finite_jet_raises_numerics_error(monkeypatch):
    monkeypatch.setattr(specfun, "_miller_table", lambda z, size: (math.nan,) * (size + 1))
    with pytest.raises(NumericsError, match="not finite"):
        psi_fourier_analytic(KernelParams(2, 0.1), 700)


def test_non_finite_jet_names_the_first_such_frequency(monkeypatch):
    # only the 1024 bucket is broken: ell = 40 reads the 64 table, ell = 700
    # and 701 the 1024 one, ell = 1100 the 2048 one
    real = specfun._miller_table
    monkeypatch.setattr(specfun, "_miller_table",
                        lambda z, size: (math.nan,) * (size + 1) if size == 1024 else real(z, size))
    p = KernelParams(2, 0.1)
    assert all(_takes_jet_route(2, ell, p.c) for ell in (40, 700, 1100))
    with pytest.raises(NumericsError, match="ell=700,"):
        psi_fourier_analytic(p, np.array([1100, 40, 700, 701]))
    assert math.isfinite(psi_fourier_analytic(p, 1100))


_SWEEP_SHAPES = (0.003, 0.01, 0.031, 0.05, 0.1, 0.3, 1.0, 2.0)


@pytest.mark.parametrize("m", range(9))
def test_array_route_is_bitwise_the_scalar_routes(m):
    # one call per shape over ell = 0..4096 in steps of 7, both sides of
    # every Miller bucket edge and both sides of every series/jet switch,
    # against a frozen copy of the scalar routes, one ell per call
    for c in _SWEEP_SHAPES:
        ells = set(range(0, FOURIER_MAX_FREQ + 1, 7))
        for k in range(6, 13):
            ells |= {(1 << k) - m, (1 << k) - m + 1}  # buckets 2^k and 2^(k+1)
        series = kernel._psi_hat_via_series(m, np.arange(FOURIER_MAX_FREQ + 1), c * c)[1]
        for ell in np.flatnonzero(np.diff(series)).tolist():
            ells |= {ell, ell + 1}
        ells = np.array(sorted(e for e in ells if e <= FOURIER_MAX_FREQ))
        buckets = {miller_bucket(e, m) for e in ells.tolist()}
        assert len(buckets) == (8 if m else 7), c
        got = psi_fourier_analytic(KernelParams(m, c), ells)
        want = [psi_hat_scalar(m, c, ell) for ell in ells.tolist()]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want], c


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
    monkeypatch.setattr(kernel, "psi_fourier_analytic",
                        lambda p, ell: np.full(np.shape(ell), math.nan))
    with pytest.raises(specfun.NumericsError):
        strang_fix_certify(0, 1.0, [32, 64], [1])


def test_strang_fix_makes_one_coefficient_call_per_shape(monkeypatch):
    calls = []
    real = kernel.psi_fourier_analytic

    def counted(p, ell):
        calls.append(np.size(ell))
        return real(p, ell)

    monkeypatch.setattr(kernel, "psi_fourier_analytic", counted)
    ns = [64, 128, 256, 512, 1024, 2048]
    report = strang_fix_certify(2, 1.0186, ns, [1, 2, 3])
    assert calls == [3] * len(ns) + [2049]
    monkeypatch.setattr(kernel, "psi_fourier_analytic", real)
    assert report == strang_fix_certify(2, 1.0186, ns, [1, 2, 3])


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
