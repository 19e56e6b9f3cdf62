import math

import numpy as np
import pytest

from torusqi import analysis
from torusqi.analysis import (
    convergence_rates,
    dft_coeffs,
    error_norms,
    gp_eval,
    lcg_uniform_points,
    make_gp,
    offset_eval_axis,
    trig_interp_eval,
)
from torusqi.specfun import NumericsError

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Test functions g_p / G_p
# ---------------------------------------------------------------------------

def test_gp_continuity_at_pi():
    g = make_gp(6, 1)
    assert gp_eval(g, math.pi) == pytest.approx(2.0 * g.lambda_p, rel=1e-15)
    left = gp_eval(g, math.pi - 1e-9)
    right = gp_eval(g, math.pi + 1e-9)
    assert left == pytest.approx(right, abs=1e-8)


def test_lambda6_matches_wallis_closed_form():
    # ||g/lambda||^2 = 8 pi + 2 pi C(12,6)/4^6 for even p
    g = make_gp(6, 1)
    closed = 1.0 / math.sqrt(8.0 * math.pi + TWO_PI * math.comb(12, 6) / 4**6)
    assert g.lambda_p == pytest.approx(closed, rel=1e-10)
    assert g.lambda_p == pytest.approx(0.194074, abs=1e-6)
    # the function is fixed by (p, dims) alone
    assert analysis.TestFunctionGp(6, 1) == g
    assert analysis.TestFunctionGp(6, 1).lambda_p == g.lambda_p


def test_gp_unit_l2_norm():
    for p in (2, 4, 6):
        g = make_gp(p, 1)
        nodes = 2**13
        a = TWO_PI * np.arange(nodes) / nodes
        norm_sq = float(np.mean(gp_eval(g, a) ** 2)) * TWO_PI
        assert norm_sq == pytest.approx(1.0, abs=1e-10)


def test_gp_tensor_product():
    g2 = make_gp(4, 2)
    g1 = make_gp(4, 1)
    pts = np.array([[0.3, 5.1], [2.0, 2.0], [4.4, 0.1]])
    expected = gp_eval(g1, pts[:, 0]) * gp_eval(g1, pts[:, 1])
    np.testing.assert_allclose(g2(pts), expected, rtol=1e-14)


def test_gp_spectrum_structure():
    # sgn(a - pi) sin^p(a) is anti-periodic with period pi, so even
    # harmonics vanish identically; odd harmonics decay like k^{-(p+1)}
    # (p-th derivative jump), consistent with H^{p+1/2-eps} smoothness
    g = make_gp(6, 1)
    n = 4096
    x = TWO_PI * np.arange(n) / n
    coeffs = dft_coeffs(g(x[:, None]))
    ks = np.arange(-(n // 2), n // 2)
    mag = np.abs(coeffs)
    scale = float(np.max(mag))
    even = mag[(ks % 2 == 0) & (np.abs(ks) >= 2) & (np.abs(ks) <= 512)]
    assert np.max(even) <= 1e-13 * scale
    odd_ks = np.arange(9, 257, 2)
    odd = np.array([mag[np.searchsorted(ks, k)] for k in odd_ks])
    slope = np.polyfit(np.log(odd_ks), np.log(odd), 1)[0]
    assert slope == pytest.approx(-(6 + 1), abs=0.3)


# ---------------------------------------------------------------------------
# DFT diagnostics
# ---------------------------------------------------------------------------

def test_dft_single_mode():
    n = 16
    x = TWO_PI * np.arange(n) / n
    coeffs = dft_coeffs(np.exp(3j * x))
    ks = np.arange(-(n // 2), n // 2)
    assert coeffs[np.searchsorted(ks, 3)] == pytest.approx(1.0, abs=1e-13)
    others = np.abs(coeffs[ks != 3])
    assert np.max(others) <= 1e-13


def test_dft_constant():
    coeffs = dft_coeffs(np.ones(16))
    ks = np.arange(-8, 8)
    assert coeffs[np.searchsorted(ks, 0)] == pytest.approx(1.0, rel=1e-14)
    assert np.max(np.abs(coeffs[ks != 0])) <= 1e-14


def test_dft_aliasing():
    n = 16
    x = TWO_PI * np.arange(n) / n
    coeffs = dft_coeffs(np.exp(1j * (3 + n) * x))
    ks = np.arange(-(n // 2), n // 2)
    assert coeffs[np.searchsorted(ks, 3)] == pytest.approx(1.0, abs=1e-13)


def test_dft_parseval():
    rng = np.random.default_rng(99)
    for n in (16, 64, 256, 2**17):
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        coeffs = dft_coeffs(samples)
        lhs = float(np.sum(np.abs(coeffs) ** 2))
        rhs = float(np.mean(np.abs(samples) ** 2))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_dft_rejects_odd_n():
    with pytest.raises(ValueError):
        dft_coeffs(np.ones(15))


# ---------------------------------------------------------------------------
# Trigonometric interpolation baseline
# ---------------------------------------------------------------------------

def test_trig_interp_cardinal_property():
    rng = np.random.default_rng(3)
    n = 32
    x = TWO_PI * np.arange(n) / n
    samples = rng.normal(size=n)
    vals = trig_interp_eval(samples, x)
    np.testing.assert_allclose(vals, samples, atol=1e-12)


def test_trig_interp_band_limited_exact():
    n = 16
    x = TWO_PI * np.arange(n) / n
    samples = np.cos(3 * x)
    xs = np.linspace(0, TWO_PI, 257)
    np.testing.assert_allclose(
        trig_interp_eval(samples, xs), np.cos(3 * xs), atol=1e-12
    )


def test_trig_interp_rate_on_g6():
    # coefficient tail k^{-(p+1)} gives an N^{-p} = N^{-6} baseline
    g = make_gp(6, 1)
    errs = []
    for n in (32, 64, 128, 256):
        x = TWO_PI * np.arange(n) / n
        pe = offset_eval_axis(n)
        vals = trig_interp_eval(g(x[:, None]), pe)
        errs.append(np.max(np.abs(vals - g(pe[:, None]))))
    fit = -np.polyfit(np.log([32, 64, 128, 256]), np.log(errs), 1)[0]
    assert fit == pytest.approx(6.0, abs=0.4)


def test_trig_interp_beats_kernel_qi_at_equal_n():
    from torusqi.qi import build_full, evaluate

    g = make_gp(6, 1)
    n = 64
    x = TWO_PI * np.arange(n) / n
    pe = offset_eval_axis(n)
    ref = g(pe[:, None])
    trig_err = np.max(np.abs(trig_interp_eval(g(x[:, None]), pe) - ref))
    for m in (0, 1, 2):
        for gamma in (0.6, 1.0, 1.5):
            q = build_full(g, n, 1, m, gamma)
            kernel_err = np.max(np.abs(evaluate(q, pe[:, None]) - ref))
            assert trig_err < kernel_err, (m, gamma)


# ---------------------------------------------------------------------------
# Error norms
# ---------------------------------------------------------------------------

def test_error_norms_zero_for_identical():
    pts = np.linspace(0, 6, 11)[:, None]
    f = lambda p: np.sin(p[:, 0])
    assert error_norms(f, f, pts, 1.0) == (0.0, 0.0, 0.0, 0.0)


def test_error_norms_constant_offset():
    delta = 0.125
    for d in (1, 2):
        pts = np.random.default_rng(1).uniform(0, TWO_PI, size=(50, d))
        f = lambda p: np.cos(p[:, 0])
        gshift = lambda p: np.cos(p[:, 0]) + delta
        linf, l2, rel_inf, rel_l2 = error_norms(f, gshift, pts, 2.0)
        assert linf == pytest.approx(delta, rel=1e-14)
        assert l2 == pytest.approx(delta * TWO_PI ** (d / 2.0), rel=1e-14)
        assert rel_inf == pytest.approx(delta / 2.0, rel=1e-14)


def test_error_norms_symmetric_absolute():
    pts = np.linspace(0, 6, 31)[:, None]
    f = lambda p: np.sin(p[:, 0])
    g = lambda p: 0.2 * p[:, 0]
    a = error_norms(f, g, pts, 1.0)
    b = error_norms(g, f, pts, 1.0)
    assert a[:2] == b[:2]


def test_error_norms_validation():
    pts = np.zeros((1, 1))
    f = lambda p: np.zeros(p.shape[0])
    with pytest.raises(ValueError):
        error_norms(f, f, pts, 0.0)
    bad = lambda p: np.full(p.shape[0], np.inf)
    with pytest.raises(NumericsError):
        error_norms(f, bad, pts, 1.0)


# ---------------------------------------------------------------------------
# Convergence rates
# ---------------------------------------------------------------------------

def test_convergence_rates_examples():
    assert convergence_rates([(32, 1e-2), (64, 2.5e-3)]) == [None, 2.0]
    assert convergence_rates([(32, 1e-3), (64, 1e-3)]) == [None, 0.0]


def test_convergence_rates_match_published_m2_column():
    errs = [6.334e-04, 1.485e-05, 2.563e-07, 4.105e-09, 6.453e-11]
    rows = list(zip([32, 64, 128, 256, 512], errs))
    rates = convergence_rates(rows)
    assert rates[0] is None
    for got, expected in zip(rates[1:], (5.41, 5.86, 5.96, 5.99)):
        assert got == pytest.approx(expected, abs=5e-3)


def test_convergence_rates_validation():
    with pytest.raises(ValueError):
        convergence_rates([(32, 1e-2), (100, 1e-3)])
    with pytest.raises(NumericsError):
        convergence_rates([(32, 1e-2), (64, 0.0)])


# ---------------------------------------------------------------------------
# Evaluation point sets
# ---------------------------------------------------------------------------

def test_offset_axis_avoids_nodes():
    n = 16
    ax = offset_eval_axis(n)
    assert ax.shape == (4 * n + 1,)
    nodes = TWO_PI * np.arange(n) / n
    dist = np.min(np.abs(ax[:, None] - nodes[None, :]))
    assert dist > 1e-3


def _lcg_scalar(count, dims, seed):
    # the one-state-at-a-time recurrence the vectorized generator replaces
    mask = (1 << 64) - 1
    state = seed & mask
    out = np.empty((count, dims))
    for i in range(count):
        for r in range(dims):
            state = (6364136223846793005 * state + 1442695040888963407) & mask
            out[i, r] = (state >> 11) * (1.0 / (1 << 53))
    return TWO_PI * out


@pytest.mark.parametrize("seed", [0, 1, 0x5EED, 2**64 - 1])
def test_lcg_points_match_scalar_recurrence(seed):
    for dims in range(1, 7):
        for count in (1, 2, 1000):
            got = lcg_uniform_points(count, dims, seed)
            assert np.array_equal(got, _lcg_scalar(count, dims, seed)), (dims, count)


def test_lcg_points_deterministic_and_in_range():
    a = lcg_uniform_points(100, 3, 0x5EED)
    b = lcg_uniform_points(100, 3, 0x5EED)
    c = lcg_uniform_points(100, 3, 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((a >= 0.0) & (a < TWO_PI))
    # crude uniformity: mean near pi
    assert abs(float(np.mean(a)) - math.pi) < 0.25
