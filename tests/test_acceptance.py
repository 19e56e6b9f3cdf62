"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion at its stated tolerance.  Reference error levels and
rate sequences for the 1D g_6 benchmark are the published ones; absolute
magnitudes are matched up to the swept shape constant gamma.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from torusqi.analysis import (
    dft_coeffs,
    gp_eval,
    lcg_uniform_points,
    make_gp,
    offset_eval_axis,
    trig_interp_eval,
)
from torusqi.grid import (
    SparseGridSpec,
    sparse_grid_count_formula,
    sparse_grid_points,
)
from torusqi.kernel import (
    KernelParams,
    comb_identity_residual,
    f2_phi_closed,
    f2_phi_quadrature,
    psi_fourier_analytic,
    psi_fourier_quadrature,
    strang_fix_certify,
)
from torusqi.qi import (
    build_full,
    build_sparse,
    evaluate,
    evaluate_dense,
    evaluate_on_grid,
)
from torusqi.specfun import (
    laguerre_coeffs,
    laguerre_general,
    scaled_bessel_i,
    scaled_bessel_i_all,
)

TWO_PI = 2.0 * math.pi
SQRT_2PI = math.sqrt(TWO_PI)

GAMMA_SWEEP = (0.6, 0.8, 1.0, 1.5)
TABLE_NS = (32, 64, 128, 256, 512)

# published g_6 benchmark: L-infinity errors and the trailing three rates
REFERENCE_LINF = {
    0: (7.057e-03, 1.894e-03, 4.824e-04, 1.212e-04, 3.034e-05),
    1: (1.360e-03, 1.043e-04, 6.869e-06, 4.350e-07, 2.778e-08),
    2: (6.334e-04, 1.485e-05, 2.563e-07, 4.105e-09, 6.453e-11),
}
REFERENCE_TAIL_RATES = {
    0: (1.97, 1.99, 2.00),
    1: (3.92, 3.98, 3.97),
    2: (5.86, 5.96, 5.99),
}


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")


# ---------------------------------------------------------------------------
# Shared 1D benchmark tables (criteria 1 and 2)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table1_sweep():
    g = make_gp(6, 1)
    t0 = time.monotonic()
    tables = {}
    for gamma in GAMMA_SWEEP:
        for m in (0, 1, 2):
            errs = []
            for N in TABLE_NS:
                q = build_full(g, N, 1, m, gamma)
                pts = offset_eval_axis(N)[:, None]
                errs.append(float(np.max(np.abs(evaluate(q, pts) - g(pts)))))
            tables[(gamma, m)] = errs
    elapsed = time.monotonic() - t0
    return tables, elapsed


def _tail_rates(errs):
    rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    return rates[-3:]


def _gamma_passes_rates(tables, gamma):
    for m in (0, 1, 2):
        got = _tail_rates(tables[(gamma, m)])
        if any(abs(r - ref) > 0.3 for r, ref in zip(got, REFERENCE_TAIL_RATES[m])):
            return False
    return True


def _best_gamma(tables):
    def score(gamma):
        total = 0.0
        for m in (0, 1, 2):
            for err, ref in zip(tables[(gamma, m)], REFERENCE_LINF[m]):
                total += math.log(err / ref) ** 2
        return total

    return min(GAMMA_SWEEP, key=score)


def test_criterion_1_table1_rates(table1_sweep):
    tables, elapsed = table1_sweep
    passing = [g for g in GAMMA_SWEEP if _gamma_passes_rates(tables, g)]
    ok = bool(passing) and elapsed < 30.0
    report(
        1,
        "table1 rates",
        ok,
        f"gammas passing rate check: {passing}, build time {elapsed:.1f}s",
    )
    assert passing, "no gamma in the sweep reproduces the rate sequences"
    assert elapsed < 30.0


def test_criterion_2_table1_magnitudes(table1_sweep):
    tables, _ = table1_sweep
    best = _best_gamma(tables)
    worst = 0.0
    for m in (0, 1, 2):
        for err, ref in zip(tables[(best, m)], REFERENCE_LINF[m]):
            worst = max(worst, err / ref, ref / err)
    ok = worst <= 10.0
    report(2, "table1 magnitudes", ok, f"best gamma {best}, worst ratio {worst:.2f}x")
    assert ok, f"entry deviates by {worst:.2f}x at gamma={best}"


# ---------------------------------------------------------------------------
# Criterion 3: 2D convergence slopes
# ---------------------------------------------------------------------------

def test_criterion_3_conv2d_slopes():
    gamma = 1.5
    ns = (16, 32, 64, 128, 256)
    g2 = make_gp(6, 2)
    g1 = make_gp(6, 1)
    t0 = time.monotonic()
    slopes = {}
    for m in (0, 1, 2):
        errs_inf, errs_l2 = [], []
        for N in ns:
            q = build_full(g2, N, 2, m, gamma)
            ax = offset_eval_axis(N)
            vals = evaluate_on_grid(q, [ax, ax])
            ref = np.outer(gp_eval(g1, ax), gp_eval(g1, ax))
            diff = ref - vals
            errs_inf.append(float(np.max(np.abs(diff))))
            errs_l2.append(float(math.sqrt(np.mean(diff**2) * TWO_PI**2)))
        # slope over the asymptotic range N = 64..256 (first points are
        # pre-asymptotic for the higher orders)
        ln = np.log(ns[-3:])
        slopes[m] = (
            -float(np.polyfit(ln, np.log(errs_inf[-3:]), 1)[0]),
            -float(np.polyfit(ln, np.log(errs_l2[-3:]), 1)[0]),
        )
    elapsed = time.monotonic() - t0
    ok = all(
        abs(slopes[m][0] - (2 * m + 2)) <= 0.4 and abs(slopes[m][1] - (2 * m + 2)) <= 0.4
        for m in (0, 1, 2)
    ) and elapsed < 120.0
    detail = ", ".join(
        f"m={m}: Linf {slopes[m][0]:.2f} L2 {slopes[m][1]:.2f}" for m in (0, 1, 2)
    )
    report(3, "2D convergence slopes", ok, f"{detail}, {elapsed:.1f}s")
    for m in (0, 1, 2):
        assert abs(slopes[m][0] - (2 * m + 2)) <= 0.4, (m, slopes[m])
        assert abs(slopes[m][1] - (2 * m + 2)) <= 0.4, (m, slopes[m])
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# Criterion 4: periodic Strang-Fix certification
# ---------------------------------------------------------------------------

def test_criterion_4_strang_fix_exponents():
    # c = 6.4/N gives the shape sequence 0.1, 0.05, 0.025, 0.0125
    gamma = 6.4 / TWO_PI
    ns = (64, 128, 256, 512)
    probes = (1, 2, 3)
    worst = 0.0
    details = []
    for m in (0, 1, 2):
        rep = strang_fix_certify(m, gamma, ns, probes)
        for ell in probes:
            dev = abs(rep.orders[ell] - (2 * m + 2))
            worst = max(worst, dev)
        details.append(
            f"m={m}: " + "/".join(f"{rep.orders[e]:.3f}" for e in probes)
        )
    ok = worst <= 0.15
    report(4, "Strang-Fix certification", ok, "; ".join(details))
    assert ok, f"worst exponent deviation {worst:.3f}"


# ---------------------------------------------------------------------------
# Criterion 5: analytic/quadrature oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_5_oracle_equivalence():
    worst_psi = 0.0
    for m in (0, 1, 2):
        for c in (0.02, 0.1, 0.5):
            p = KernelParams(m, c)
            for ell in range(0, 65):
                a = psi_fourier_analytic(p, ell)
                q = psi_fourier_quadrature(p, ell, 4096)
                worst_psi = max(worst_psi, abs(a - q) / max(abs(a), 1.0))
    ok_psi = worst_psi <= 1e-9

    worst_f2 = 0.0
    for m in (0, 1, 2):
        for c in (0.02, 0.1, 0.5):
            p = KernelParams(m, c)
            scale = SQRT_2PI * c
            for rc in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
                r = rc / c
                a = f2_phi_closed(p, r)
                q = f2_phi_quadrature(p, r)
                worst_f2 = max(worst_f2, abs(a - q) / max(abs(a), scale))
    ok_f2 = worst_f2 <= 1e-9

    ok = ok_psi and ok_f2
    report(
        5,
        "oracle equivalence",
        ok,
        f"psi_hat worst rel {worst_psi:.2e}, planar transform worst {worst_f2:.2e}",
    )
    assert ok_psi, f"coefficient paths disagree by {worst_psi:.2e}"
    assert ok_f2, f"planar transform paths disagree by {worst_f2:.2e}"


# ---------------------------------------------------------------------------
# Criterion 6: combinatorial identity
# ---------------------------------------------------------------------------

def test_criterion_6_combinatorial_identity():
    worst = 0.0
    for m in range(0, 11):
        for k in range(0, m + 1):
            for z in (0.5, -1.3, 2.0, 7.25):
                worst = max(worst, comb_identity_residual(k, m, z))
    ok = worst <= 1e-12
    report(6, "combinatorial identity", ok, f"worst residual {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: sparse grid counts
# ---------------------------------------------------------------------------

def test_criterion_7_sparse_grid_counts():
    mismatches = []
    for d in range(1, 5):
        for level in range(1, 7):
            spec = SparseGridSpec(level, d)
            formula = sparse_grid_count_formula(spec)
            brute = len(sparse_grid_points(spec))
            if formula != brute:
                mismatches.append((d, level, formula, brute))
    spot = (
        sparse_grid_count_formula(SparseGridSpec(3, 2)) == 32
        and sparse_grid_count_formula(SparseGridSpec(2, 3)) == 32
    )
    ok = not mismatches and spot
    report(7, "sparse grid counts", ok, f"spot |W_3,2|=|W_2,3|=32: {spot}")
    assert not mismatches, mismatches
    assert spot


# ---------------------------------------------------------------------------
# Criterion 8: sparse-grid convergence in 3D
# ---------------------------------------------------------------------------

def test_criterion_8_sparse_convergence():
    g = make_gp(6, 3)
    pts = lcg_uniform_points(8192, 3, 0x5EED)
    ref = g(pts)
    scale = float(np.max(np.abs(ref)))
    counts, errs = [], []
    for level in range(4, 11):  # level 10 has 77824 points (~1e5)
        spec = SparseGridSpec(level, 3)
        q = build_sparse(g, spec, 2, 1.0)
        rel = float(np.max(np.abs(evaluate(q, pts) - ref))) / scale
        counts.append(sparse_grid_count_formula(spec))
        errs.append(rel)
    decreasing = all(b < a for a, b in zip(errs[:-1], errs[1:-1]))
    final_ok = errs[-1] < errs[-2] * 1.2  # final-level plateau permitted
    slope = -float(np.polyfit(np.log(counts), np.log(errs), 1)[0])
    ok = decreasing and final_ok and slope >= 0.9
    report(
        8,
        "sparse convergence d=3",
        ok,
        f"points {counts[0]}..{counts[-1]}, rel Linf {errs[0]:.1e}->{errs[-1]:.1e}, "
        f"slope {slope:.2f}",
    )
    assert decreasing and final_ok, errs
    assert slope >= 0.9, slope


# ---------------------------------------------------------------------------
# Criterion 9: property suite
# ---------------------------------------------------------------------------

def test_criterion_9a_constant_saturation_exponent():
    N = 512
    pts = np.linspace(0.013, TWO_PI - 0.02, 301)[:, None]
    one = lambda p: np.ones(p.shape[0])
    worst = 0.0
    for m in (0, 1, 2):
        resid = []
        gammas = (6.4, 3.2, 1.6)
        for gamma in gammas:
            q = build_full(one, N, 1, m, gamma)
            resid.append(float(np.max(np.abs(evaluate(q, pts) - 1.0))))
        cs = [gm * TWO_PI / N for gm in gammas]
        slope = float(np.polyfit(np.log(cs), np.log(resid), 1)[0])
        worst = max(worst, abs(slope - (2 * m + 2)))
    ok = worst <= 0.2
    report(9, "saturation exponent fit", ok, f"worst deviation {worst:.3f}")
    assert ok


def test_criterion_9b_truncated_vs_dense():
    rng = np.random.default_rng(77)
    worst = 0.0
    for d, m, gamma, N in ((1, 0, 1.0, 128), (1, 2, 2.0, 64), (2, 1, 1.5, 32)):
        def f(p):
            out = np.full(p.shape[0], 0.4)
            out += np.cos(p[:, 0]) - 0.7 * np.sin(2 * p[:, 0])
            if d == 2:
                out *= 1.0 + 0.5 * np.cos(p[:, 1])
            return out

        q = build_full(f, N, d, m, gamma)
        pts = rng.uniform(0, TWO_PI, size=(200, d))
        a = evaluate(q, pts)
        b = evaluate_dense(q, pts)
        worst = max(worst, float(np.max(np.abs(a - b)) / np.max(np.abs(b))))
    ok = worst <= 1e-13
    report(9, "truncated vs dense summation", ok, f"worst rel diff {worst:.2e}")
    assert ok


def test_criterion_9c_dft_parseval():
    rng = np.random.default_rng(13)
    worst = 0.0
    for n in (32, 128, 1024):
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        coeffs = dft_coeffs(samples)
        lhs = float(np.sum(np.abs(coeffs) ** 2))
        rhs = float(np.mean(np.abs(samples) ** 2))
        worst = max(worst, abs(lhs - rhs) / rhs)
    ok = worst <= 1e-12
    report(9, "DFT Parseval", ok, f"worst deviation {worst:.2e}")
    assert ok


def test_criterion_9d_trig_baseline_band_limited():
    n = 32
    x = TWO_PI * np.arange(n) / n
    xs = np.linspace(0.0, TWO_PI, 511)
    worst = 0.0
    for k in (0, 1, 5, 15):
        samples = np.cos(k * x) + (0.3 * np.sin(k * x) if 0 < k < n // 2 else 0.0)
        exact = np.cos(k * xs) + (0.3 * np.sin(k * xs) if 0 < k < n // 2 else 0.0)
        worst = max(worst, float(np.max(np.abs(trig_interp_eval(samples, xs) - exact))))
    ok = worst <= 1e-12
    report(9, "trigonometric baseline exactness", ok, f"worst error {worst:.2e}")
    assert ok


def test_criterion_9e_specfun_invariants():
    # Laguerre three-term recurrence, 1e-11 relative to the terms combined
    worst_lag = 0.0
    for m in range(1, 11):
        for s in np.linspace(0.0, 50.0, 11):
            lhs = (m + 1) * laguerre_general(m + 1, 0.5, s)
            t1 = (2 * m + 1.5 - s) * laguerre_general(m, 0.5, s)
            t2 = (m + 0.5) * laguerre_general(m - 1, 0.5, s)
            term_scale = max(
                abs(c) * s**k for k, c in enumerate(laguerre_coeffs(m + 1, 0.5))
            )
            scale = max(abs(lhs), abs(t1), abs(t2), term_scale, 1.0)
            worst_lag = max(worst_lag, abs(lhs - (t1 - t2)) / scale)
    ok_lag = worst_lag <= 1e-11

    # scaled-Bessel normalization identity, summed until g_K < 1e-16
    worst_norm = 0.0
    for z in (0.1, 1.0, 10.0, 100.0, 1e4):
        nu_max = 64
        vals = scaled_bessel_i_all(nu_max, z)
        while vals[-1] > 1e-16 and nu_max < 2048:
            nu_max *= 2
            vals = scaled_bessel_i_all(nu_max, z)
        total = vals[0] + 2.0 * math.fsum(vals[1:])
        worst_norm = max(worst_norm, abs(total - 1.0))
    ok_norm = worst_norm <= 1e-12

    # power-series oracle agreement for small arguments
    worst_series = 0.0
    for nu in (0, 3, 11, 20):
        for z in (0.2, 1.0, 4.0, 10.0):
            with mpmath.workdps(30):
                ref = float(mpmath.besseli(nu, z) * mpmath.e ** (-mpmath.mpf(z)))
            got = scaled_bessel_i(nu, z)
            worst_series = max(worst_series, abs(got - ref) / abs(ref))
    ok_series = worst_series <= 1e-12

    ok = ok_lag and ok_norm and ok_series
    report(
        9,
        "specfun invariants",
        ok,
        f"recurrence {worst_lag:.1e}, normalization {worst_norm:.1e}, "
        f"series {worst_series:.1e}",
    )
    assert ok_lag and ok_norm and ok_series
