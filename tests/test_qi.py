import math
import os
import subprocess
import sys
import threading
import warnings
import weakref
from functools import lru_cache, reduce
from pathlib import Path

import numpy as np
import pytest

from torusqi import qi
from torusqi.analysis import gp_eval, lcg_uniform_points, make_gp
from torusqi.grid import (
    FullGridSpec,
    SparseGridSpec,
    combination_terms,
    full_grid_nodes,
    sparse_grid_count_formula,
)
from torusqi.kernel import (
    KernelParams,
    psi_fourier_quadrature,
    psi_from_chord,
    psi_restricted,
)
from torusqi.qi import (
    build_aniso,
    build_full,
    build_sparse,
    build_sparse_levels,
    evaluate,
    evaluate_dense,
    evaluate_many,
    evaluate_on_grid,
    evaluate_sparse_product_levels,
    from_samples,
    stencil_halfwidth,
)
from torusqi.specfun import NumericsError

TWO_PI = 2.0 * math.pi


def const_one(pts):
    return np.ones(pts.shape[0])


def _asymmetric(pts):
    # no symmetry under permuting or reflecting coordinates, so a node
    # gathered from the wrong place changes the sample
    phase = sum((r + 1) * pts[:, r] for r in range(pts.shape[1]))
    return np.sin(phase + 0.3) + 0.1 * pts[:, 0] ** 3


def eval_points_1d(n=301):
    return np.linspace(0.013, TWO_PI - 0.02, n)[:, None]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def test_build_full_validation():
    with pytest.raises(ValueError):
        build_full(const_one, 5, 1, 0, 1.0)  # odd
    with pytest.raises(ValueError):
        build_full(const_one, 2, 1, 0, 1.0)  # too small
    with pytest.raises(ValueError):
        build_full(const_one, 32, 1, 9, 1.0)  # unsupported order
    with pytest.raises(ValueError):
        build_full(const_one, 32, 1, 0, 9.0)  # gamma out of range
    with pytest.raises(ValueError):
        build_full(const_one, 32, 1, 0, -1.0)


def test_build_rejects_non_finite_samples():
    def bad(pts):
        out = np.ones(pts.shape[0])
        out[0] = np.nan
        return out

    with pytest.raises(ValueError):
        build_full(bad, 32, 1, 0, 1.0)


def test_constant_saturation_level():
    # |Q1 - 1| at m=0, N=32, gamma=1 sits at the rho/8 saturation level
    q = build_full(const_one, 32, 1, 0, 1.0)
    delta = np.max(np.abs(evaluate(q, eval_points_1d()) - 1.0))
    rho = (TWO_PI / 32) ** 2
    assert delta == pytest.approx(rho / 8.0, rel=0.05)


def test_saturation_exponent_in_gamma():
    # c-halving via gamma at fixed N; alias floor exp(-2 pi^2 gamma^2) is
    # negligible for gamma >= 1.6, so the c^{2m+2} saturation is exposed
    N = 512
    pts = eval_points_1d()
    gammas = [6.4, 3.2, 1.6]
    for m in (0, 1, 2):
        resid = []
        for gamma in gammas:
            q = build_full(const_one, N, 1, m, gamma)
            resid.append(np.max(np.abs(evaluate(q, pts) - 1.0)))
        cs = [g * TWO_PI / N for g in gammas]
        slope = np.polyfit(np.log(cs), np.log(resid), 1)[0]
        assert abs(slope - (2 * m + 2)) <= 0.2, (m, slope)


def test_single_mode_rates():
    # f = cos(3x): L-inf error decays at rate 2m+2 as N doubles
    k = 3.0

    def f(pts):
        return np.cos(k * pts[:, 0])

    for m in (0, 1, 2):
        errs = []
        for N in (32, 64, 128, 256):
            q = build_full(f, N, 1, m, 1.5)
            pts = eval_points_1d()
            errs.append(np.max(np.abs(evaluate(q, pts) - f(pts))))
        rates = [math.log2(errs[i - 1] / errs[i]) for i in range(1, len(errs))]
        for r in rates[1:]:
            assert abs(r - (2 * m + 2)) <= 0.3, (m, rates)


def test_g6_m1_table_rate():
    from torusqi.analysis import make_gp, offset_eval_axis

    g = make_gp(6, 1)
    errs = []
    for N in (128, 256):
        q = build_full(g, N, 1, 1, 1.5)
        pts = offset_eval_axis(N)[:, None]
        errs.append(np.max(np.abs(evaluate(q, pts) - g(pts))))
    rate = math.log2(errs[0] / errs[1])
    assert rate == pytest.approx(3.98, abs=0.3)


def test_linearity():
    rng = np.random.default_rng(123)

    def f(pts):
        x = pts[:, 0]
        return np.cos(x) + 0.5 * np.sin(3 * x)

    def g(pts):
        x = pts[:, 0]
        return 0.25 - np.sin(2 * x)

    a, b = 1.37, -0.61
    qf = build_full(f, 64, 1, 1, 1.0)
    qg = build_full(g, 64, 1, 1, 1.0)
    qc = build_full(lambda p: a * f(p) + b * g(p), 64, 1, 1, 1.0)
    pts = rng.uniform(0, TWO_PI, size=(200, 1))
    lhs = evaluate(qc, pts)
    rhs = a * evaluate(qf, pts) + b * evaluate(qg, pts)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


# ---------------------------------------------------------------------------
# Evaluation paths
# ---------------------------------------------------------------------------

def test_zero_samples_give_zero():
    q = build_full(lambda p: np.zeros(p.shape[0]), 32, 1, 2, 1.0)
    assert np.all(evaluate(q, eval_points_1d()) == 0.0)


_ENVELOPE_MS = (0, 3, 5, 8)


def _gamma_cap(n):
    # c = gamma 2 pi / n stays <= pi, and gamma <= MAX_GAMMA
    return min(qi.MAX_GAMMA, n / 2)


def _envelope_interpolants():
    """(label, interpolant) cases across the documented envelope.

    m in {0, 3, 5, 8}, gamma from 0.3 up to the cap min(8, N_r / 2), and
    d = 1..4 for build_full and build_aniso (the anisotropic cases rotate
    the orders and shapes through the axes, so truncated and spanning
    axes mix); build_sparse at gamma <= 1, d = 2..4.
    """
    cases = []
    for d, n in ((1, 256), (2, 64), (3, 16), (4, 8)):
        for m in _ENVELOPE_MS:
            for gamma in (0.3, _gamma_cap(n)):
                cases.append((f"full d={d} N={n} m={m} gamma={gamma}",
                              build_full(_asymmetric, n, d, m, gamma)))
    for counts in ((512,), (128, 8), (64, 4, 32), (32, 8, 4, 16)):
        for i in range(len(_ENVELOPE_MS)):
            ms = tuple(_ENVELOPE_MS[(i + r) % 4] for r in range(len(counts)))
            gammas = tuple((0.3, _gamma_cap(n), 1.7)[(i + r) % 3]
                           for r, n in enumerate(counts))
            cases.append((f"aniso {counts} m={ms} gamma={gammas}",
                          build_aniso(_asymmetric, counts, ms, gammas)))
    for d, level in ((2, 8), (3, 6), (4, 5)):
        for m in _ENVELOPE_MS:
            gamma = 0.3 if m % 2 else 1.0
            cases.append((f"sparse d={d} level={level} m={m} gamma={gamma}",
                          build_sparse(_asymmetric, SparseGridSpec(level, d), m, gamma)))
    return cases


def test_truncated_vs_dense_battery(monkeypatch):
    # isotropic, anisotropic and sparse interpolants; the anisotropic cases
    # mix truncated and full-span axes, with the largest axis truncated
    # (64 of (64, 8, 32, 4); 128 of (8, 128, 16)) or full-span (64 of
    # (64, 32) at gamma 4)
    rng = np.random.default_rng(2024)

    def rand_trig(d, seed):
        r = np.random.default_rng(seed)
        ks = r.integers(1, 5, size=(3, d))
        cs = r.uniform(-1, 1, size=3)

        def f(pts):
            out = np.full(pts.shape[0], 0.3)
            for kk, cc in zip(ks, cs):
                out += cc * np.cos(pts @ kk.astype(float))
            return out

        return f

    full_cases = [
        (1, 0, 1.0, 64),
        (1, 1, 2.0, 128),
        (1, 2, 0.7, 64),
        (2, 1, 1.5, 32),
        (2, 2, 2.0, 16),
    ]
    aniso_cases = [
        ((64, 8, 32, 4), (2, 2, 2, 2), (1.0, 1.0, 1.0, 1.0)),
        ((8, 128, 16), (1, 0, 2), (1.0, 0.5, 1.5)),
        ((64, 32), (1, 2), (4.0, 0.5)),
    ]
    sparse_cases = [(2, 10, 2, 1.0), (3, 7, 2, 1.0), (3, 7, 1, 0.8)]
    interpolants = []
    for d, m, gamma, N in full_cases:
        f = rand_trig(d, hash((d, m, N)) % 2**31)
        interpolants.append(((d, m, gamma, N), d, build_full(f, N, d, m, gamma)))
    for counts, ms, gammas in aniso_cases:
        d = len(counts)
        f = rand_trig(d, sum(counts))
        interpolants.append((counts, d, build_aniso(f, counts, ms, gammas)))
    for d, level, m, gamma in sparse_cases:
        f = rand_trig(d, 100 * d + level)
        q = build_sparse(f, SparseGridSpec(level, d), m, gamma)
        interpolants.append(((d, level, m, gamma), d, q))

    for case, d, q in interpolants:
        pts = rng.uniform(0, TWO_PI, size=(150, d))
        a = evaluate(q, pts)
        b = evaluate_dense(q, pts)
        scale = max(1e-300, float(np.max(np.abs(b))))
        assert np.max(np.abs(a - b)) <= 1e-13 * scale, case
        # point blocks small enough that every evaluation is split
        with monkeypatch.context() as mp:
            mp.setattr(qi, "_CHUNK_ELEMS", 64)
            blocked = evaluate(q, pts)
        assert np.max(np.abs(blocked - b)) <= 1e-13 * scale, case

    for label, q in _envelope_interpolants():
        pts = rng.uniform(0, TWO_PI, size=(150, qi._components(q)[0]))
        dense = evaluate_dense(q, pts)
        scale = float(np.max(np.abs(dense)))
        assert np.max(np.abs(evaluate(q, pts) - dense)) <= 1e-13 * scale, label


def test_large_arguments_reduce_mod_2pi():
    # g_6 lies in [0.19, 0.59]; points far outside [0, 2 pi) used to lose
    # the offset to rounding, or overflow the int64 node index at 1e19
    from torusqi.analysis import make_gp

    g = make_gp(6, 1)
    q = build_full(g, 64, 1, 2, 1.0)
    x = np.array([0.3 + TWO_PI * 1e15, 1e19, -1e19, 1e300, -1e300])[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = evaluate(q, x)
        reduced = evaluate(q, np.remainder(x, TWO_PI))
        dense = evaluate_dense(q, x)
    assert np.all(np.isfinite(vals))
    assert np.array_equal(vals, reduced)
    np.testing.assert_allclose(vals, dense, rtol=1e-13)
    assert np.all((vals > 0.18) & (vals < 0.6)), vals


def test_evaluate_deterministic():
    q = build_full(lambda p: np.sin(p[:, 0]), 64, 1, 1, 1.0)
    pts = eval_points_1d()
    assert np.array_equal(evaluate(q, pts), evaluate(q, pts))


def test_shift_equivariance():
    N = 64
    shift = 2 * TWO_PI / N  # two grid cells

    def f(pts):
        return np.sin(pts[:, 0]) + 0.3 * np.cos(2 * pts[:, 0])

    def f_shifted(pts):
        return f(pts + shift)

    q1 = build_full(f, N, 1, 1, 1.0)
    q2 = build_full(f_shifted, N, 1, 1, 1.0)
    pts = eval_points_1d(97)
    np.testing.assert_allclose(
        evaluate(q1, pts + shift), evaluate(q2, pts), atol=1e-13
    )


def _product_points(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


def test_grid_path_matches_dense():
    from torusqi.analysis import make_gp

    g = make_gp(6, 2)
    q = build_full(g, 16, 2, 1, 1.2)
    ax = np.linspace(0.1, 6.0, 7)
    ay = np.linspace(0.2, 5.9, 5)
    grid_vals = evaluate_on_grid(q, [ax, ay])
    dense = evaluate_dense(q, _product_points([ax, ay]))
    np.testing.assert_allclose(grid_vals.ravel(), dense, atol=1e-14)

    # truncated windows: (label, interpolant, axes, axes expected truncated)
    rng = np.random.default_rng(7)
    g3 = make_gp(6, 3)
    ax128 = np.linspace(0.05, 6.2, 37)
    cases = [
        (f"full N=128 m={m}", build_full(g, 128, 2, m, 1.0), [ax128, ax128[::2]],
         (True, True))
        for m in (0, 2, 5)
    ]
    cases += [
        ("aniso (256, 16)", build_aniso(g, (256, 16), (2, 1), (1.0, 1.0)),
         [np.linspace(0.0, 6.0, 45), np.linspace(0.3, 6.1, 9)], (True, False)),
        ("aniso (32, 64, 8)", build_aniso(g3, (32, 64, 8), (1, 2, 0), (1.0, 1.5, 1.0)),
         [rng.uniform(0, TWO_PI, k) for k in (6, 11, 4)],
         (True, True, False)),
        ("unsorted, lengths != N", build_full(g, 64, 2, 1, 1.0),
         [rng.uniform(0, TWO_PI, 50), rng.uniform(0, TWO_PI, 3)], (True, True)),
    ]
    for label, q, axes, truncated in cases:
        cut = [2 * hw + 1 < n for hw, n in zip(q.stencil_halfwidths, q.grid.counts)]
        assert tuple(cut) == truncated, label
        grid_vals = evaluate_on_grid(q, axes)
        assert grid_vals.shape == tuple(len(a) for a in axes), label
        dense = evaluate_dense(q, _product_points(axes))
        scale = float(np.max(np.abs(dense)))
        assert np.max(np.abs(grid_vals.ravel() - dense)) <= 1e-13 * scale, label

    # the envelope's full-grid interpolants on unsorted product axes
    for label, q in _envelope_interpolants():
        if isinstance(q, qi.SparseQuasiInterpolant):
            continue
        axes = [rng.uniform(0, TWO_PI, k) for k in (40, 7, 4, 3)[: q.grid.dims]]
        grid_vals = evaluate_on_grid(q, axes)
        dense = evaluate_dense(q, _product_points(axes))
        scale = float(np.max(np.abs(dense)))
        assert np.max(np.abs(grid_vals.ravel() - dense)) <= 1e-13 * scale, label


def _banded_battery():
    """(label, interpolant, axes) cases of the axis-by-axis grid contraction.

    Windows that wrap past 0 and 2 pi, reversed and permuted axes, a
    truncated window on the first, middle and last axis, and windows that
    span their axis; the 3D cases mix truncated and spanning axes.
    """
    from torusqi.analysis import make_gp, offset_eval_axis

    rng = np.random.default_rng(11)
    long_ax = offset_eval_axis(128)  # 513 points, wraps past 2 pi at its end
    shuffled = rng.permutation(long_ax)
    short = np.array([0.02, 3.3, 6.27])
    cases = []
    for m in (0, 4, 8):
        # the 16-node window spans its axis
        q = build_aniso(make_gp(6, 2), (128, 16), (m, m), (1.5, 1.5))
        for label, ax in (("offset", long_ax), ("reversed", long_ax[::-1]),
                          ("permuted", shuffled), ("one point", np.array([6.28])),
                          ("two points", np.array([5.0, 0.01]))):
            cases.append((f"m={m} {label} first", q, [ax, short]))
            cases.append((f"m={m} {label} last", q, [short, ax]))
        # 8 and 6 nodes: both outer windows span their axis
        q3 = build_aniso(make_gp(6, 3), (8, 128, 6), (m, m, m), (1.0, 1.5, 1.0))
        cases.append((f"m={m} 3D middle", q3, [short[:2], long_ax, short[1:2]]))
        cases.append((f"m={m} 3D permuted middle", q3, [short[:1], shuffled, short[:2]]))
    # M << N: five points on 1024 nodes
    few = np.array([0.001, 1.7, 1.71, 4.0, 6.2831])
    q1024 = build_full(make_gp(6, 1), 1024, 1, 2, 1.5)
    cases.append(("1D N=1024, 5 points", q1024, [few]))
    q_wide = build_aniso(make_gp(6, 2), (1024, 8), (1, 1), (1.5, 1.5))
    cases.append(("(1024, 8), 5 points", q_wide, [few, short]))
    # the 3D case mixes banded and spanning axes
    assert [2 * hw + 1 >= n for hw, n in zip(q3.stencil_halfwidths, q3.grid.counts)] == [
        True, False, True]
    return cases


def test_grid_path_banded_battery():
    for label, q, axes in _banded_battery():
        spans = [2 * hw + 1 >= n for hw, n in zip(q.stencil_halfwidths, q.grid.counts)]
        assert not all(spans), label
        got = evaluate_on_grid(q, axes)
        assert got.shape == tuple(len(a) for a in axes), label
        assert got.flags.c_contiguous, label
        dense = evaluate_dense(q, _product_points(axes))
        scale = float(np.max(np.abs(dense)))
        assert np.max(np.abs(got.ravel() - dense)) <= 1e-13 * scale, label


@lru_cache(maxsize=None)
def _psi_hat(params, ell):
    return psi_fourier_quadrature(params, ell, max(4096, 8 * (ell + 1)))


def _mode_response(m, gamma, n, k, x):
    """Q[cos(k .)](x) on an n-node axis: sum_s psi_hat(k + sn) cos((k + sn) x).

    With weights 2 pi / n, sampling cos(k x) keeps only the frequencies
    k + sn (Poisson summation).  k is first replaced by its alias nearest
    0, and s runs over |s| <= max(5, 64 / n): on a 2-node axis at
    gamma = 0.3 (c = 0.94) psi_hat decays only like a Bessel function,
    and its first terms past |s| = 5, at |k + sn| = 11 and 13, are 4e-11
    and 8e-14 for m = 0, 1.9e-6 and 1.1e-8 for m = 8.
    """
    p = KernelParams(m, gamma * TWO_PI / n)
    k = (k + n // 2) % n - n // 2
    reach = max(5, 64 // n)
    return sum(_psi_hat(p, abs(k + s * n)) * np.cos((k + s * n) * x)
               for s in range(-reach, reach + 1))


def _within_round_off(got, expected):
    return np.max(np.abs(got - expected)) <= 1e-13 * (1.0 + np.max(np.abs(expected)))


@pytest.mark.parametrize("m, gamma, n, k", [(2, 1.0, 64, 3), (8, 1.5, 128, 5),
                                            (0, 0.6, 32, 1), (5, 3.0, 256, 40)])
def test_evaluators_match_the_fourier_series(m, gamma, n, k):
    q = from_samples(np.cos(k * TWO_PI * np.arange(n) / n), (m,), (gamma,))
    x = lcg_uniform_points(3000, 1, 0x5EED)
    expected = _mode_response(m, gamma, n, k, x[:, 0])
    for got in (evaluate_many([q], x)[0], evaluate_dense(q, x), evaluate_on_grid(q, [x[:, 0]])):
        assert _within_round_off(got, expected)


_REFEREE_MS = (0, 3, 5, 8)


@pytest.mark.parametrize("m", _REFEREE_MS)
@pytest.mark.parametrize("d", [2, 3])
def test_evaluators_match_the_fourier_series_on_tensor_grids(d, m):
    # the response to prod_r cos(k_r x_r) is the product of the axis
    # responses; the anisotropic grid differs per axis in N, m and gamma
    x = lcg_uniform_points(1000, d, 0x5EED)
    axes = [x[: 50 if d == 2 else 16, r] for r in range(d)]
    turn = _REFEREE_MS.index(m)
    grids = [((32, 32) if d == 2 else (16, 16, 16), (m,) * d),
             ((8, 64) if d == 2 else (8, 32, 16),
              tuple(_REFEREE_MS[(turn + r) % 4] for r in range(d)))]
    for counts, ms in grids:
        ks = [n // 4 - 1 for n in counts]
        samples = reduce(np.multiply.outer,
                         [np.cos(k * TWO_PI * np.arange(n) / n) for n, k in zip(counts, ks)])
        for gamma in (0.3, 1.0, None):
            gammas = [min(8.0, n / 2) if gamma is None else gamma for n in counts]
            q = from_samples(samples, ms, gammas)
            factors = list(zip(ms, gammas, counts, ks))
            at_points = np.prod([_mode_response(*f, x[:, r]) for r, f in enumerate(factors)],
                                axis=0)
            on_grid = reduce(np.multiply.outer,
                             [_mode_response(*f, a) for f, a in zip(factors, axes)])
            label = (counts, ms, gammas)
            assert _within_round_off(evaluate_many([q], x)[0], at_points), label
            assert _within_round_off(evaluate_dense(q, x), at_points), label
            assert _within_round_off(evaluate_on_grid(q, axes), on_grid), label


@pytest.mark.parametrize("gamma", [0.3, 1.0])
@pytest.mark.parametrize("d, level", [(2, 6), (3, 4)])
def test_evaluators_match_the_fourier_series_on_sparse_grids(d, level, gamma):
    # a sparse interpolant's response is the combination sum of its
    # component grids' product responses
    ks = (1, 3, 2)[:d]
    x = lcg_uniform_points(1000, d, 0x5EED)

    def f(pts):
        return np.prod([np.cos(k * pts[:, r]) for r, k in enumerate(ks)], axis=0)

    spec = SparseGridSpec(level, d)
    for m in _REFEREE_MS:
        q = build_sparse(f, spec, m, gamma)
        axis = {}  # (r, n) -> response of axis r on n nodes
        for term in combination_terms(spec):
            for r, n in enumerate(term.grid.counts):
                if (r, n) not in axis:
                    axis[r, n] = _mode_response(m, gamma, n, ks[r], x[:, r])
        expected = sum(
            term.coeff * np.prod([axis[r, n] for r, n in enumerate(term.grid.counts)], axis=0)
            for term in combination_terms(spec)
        )
        assert _within_round_off(evaluate_many([q], x)[0], expected), m
        assert _within_round_off(evaluate_dense(q, x), expected), m


def _random_grid(counts, seed):
    """Interpolant of random samples: N = 64 axes are banded, N = 8 ones span."""
    rng = np.random.default_rng(seed)
    return from_samples(rng.uniform(-1.0, 1.0, counts), (0,) * len(counts),
                        (1.0,) * len(counts))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_takes_empty_and_one_point_axes(d):
    # each axis position in turn empty or one point, the others wrapped
    # past 2 pi, under banded and under spanning windows
    from torusqi.analysis import offset_eval_axis

    for n in (64, 8):
        q = _random_grid((n,) * d, d)
        assert (2 * q.stencil_halfwidths[0] + 1 < n) == (n == 64)
        for r in range(d):
            for ax in (np.array([]), np.array([6.2])):
                axes = [offset_eval_axis(2)] * d
                axes[r] = ax
                values = evaluate_on_grid(q, axes)
                shape = tuple(len(a) for a in axes)
                assert values.shape == shape, (n, r, ax)
                dense = evaluate_dense(q, _product_points(axes)).reshape(shape)
                tol = 1e-13 * (1.0 + np.max(np.abs(dense), initial=0.0))
                assert np.all(np.abs(values - dense) <= tol), (n, r, ax)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_values_follow_permuted_axes_bitwise(d):
    # every value is one sum over its point's window, in window order, so
    # permuting an axis permutes the values, bitwise: axes that wrap past
    # 2 pi, hold duplicates and lie outside [0, 2 pi), on banded and
    # spanning windows
    from torusqi.analysis import offset_eval_axis

    rng = np.random.default_rng(22)
    ax = np.concatenate([offset_eval_axis(4), [0.3, 0.3, 6.2, -1.0, TWO_PI + 0.3]])
    for counts in [(64, 8, 64)[:d], (8, 64, 8)[:d]]:
        q = _random_grid(counts, d)
        axes = [ax + 0.1 * r for r in range(d)]
        perms = [rng.permutation(a.size) for a in axes]
        expected = evaluate_on_grid(q, axes)[np.ix_(*perms)]
        got = evaluate_on_grid(q, [a[p] for a, p in zip(axes, perms)])
        assert np.array_equal(got, expected), counts


@pytest.mark.parametrize("n, gamma", [(64, 1.0), (256, 1.5)])
def test_grid_1d_equals_evaluate_bitwise(n, gamma):
    # on a truncated window the grid's CSR product and evaluate's window
    # sum are the same sequential sums
    from torusqi.analysis import offset_eval_axis

    rng = np.random.default_rng(n)
    q = from_samples(rng.uniform(-1.0, 1.0, n), (2,), (gamma,))
    assert 2 * q.stencil_halfwidths[0] + 1 < n
    x = offset_eval_axis(n)
    assert np.array_equal(evaluate_on_grid(q, [x]), evaluate(q, x[:, None]))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_values_of_a_sub_grid_are_bitwise_slices(d):
    # a value depends only on its point's coordinates, so dropping,
    # repeating or reordering the other points of any axis leaves it
    # bitwise unchanged, on banded and spanning windows
    from torusqi.analysis import offset_eval_axis

    rng = np.random.default_rng(30 + d)
    ax = offset_eval_axis(8)  # wraps past 2 pi at its end
    for counts in [(64, 8, 64)[:d], (8, 64, 8)[:d]]:
        q = _random_grid(counts, d)
        axes = [ax + 0.1 * r for r in range(d)]
        full = evaluate_on_grid(q, axes)
        picks = [np.append(rng.choice(a.size, 5, replace=False), [0, 0]) for a in axes]
        got = evaluate_on_grid(q, [a[p] for a, p in zip(axes, picks)])
        assert np.array_equal(got, full[np.ix_(*picks)]), counts


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_grid_validates_every_axis_before_contracting(monkeypatch, bad):
    # the last axis is contracted first, so a bad first axis must be
    # caught before any window is built
    q = build_full(const_one, 16, 3, 0, 1.0)

    def no_windows(*args):
        raise AssertionError("a window was built before the axes were checked")

    monkeypatch.setattr(qi, "_dim_windows", no_windows)
    axes = [np.array([0.1, 2.0])] * 3
    for value, match in ((np.array([0.3, np.nan]), "finite"),
                         (np.array([[0.3, 1.0]]), "1-D")):
        with pytest.raises(ValueError, match=match):
            evaluate_on_grid(q, axes[:bad] + [value] + axes[bad + 1 :])


@pytest.mark.parametrize("counts", [(256,), (64, 128), (16, 32, 8)])
def test_grid_holds_one_axis_contraction_at_a_time(counts):
    # contracting axis r holds its input, its M_r x (the other axes'
    # current lengths) output and the axis's window; the peak stays
    # within twice the largest such step (measured about 1.35 times)
    import tracemalloc

    from torusqi.analysis import offset_eval_axis

    rng = np.random.default_rng(len(counts))
    q = from_samples(rng.uniform(-1.0, 1.0, counts), (2,) * len(counts),
                     (1.5,) * len(counts))
    axes = [offset_eval_axis(n) for n in counts]
    sizes, steps = list(counts), []
    for r in reversed(range(len(counts))):
        width = min(2 * q.stencil_halfwidths[r] + 1, counts[r])
        before = math.prod(sizes)
        sizes[r] = axes[r].size
        steps.append(before + math.prod(sizes) + 3 * axes[r].size * width)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        values = evaluate_on_grid(q, axes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert values.shape == tuple(sizes)
    assert peak < 2 * max(steps) * 8


_GRID_BYTES_SCRIPT = """
import hashlib
import numpy as np
from torusqi.analysis import gp_eval, make_gp, offset_eval_axis
from torusqi.qi import evaluate_on_grid, from_samples

a = gp_eval(make_gp(6, 1), 2 * np.pi * np.arange(256) / 256)
ax = offset_eval_axis(256)
q = from_samples(np.outer(a, a), (2, 2), (1.5, 1.5))
print(hashlib.sha256(evaluate_on_grid(q, [ax, ax]).tobytes()).hexdigest())
"""


def test_grid_bytes_do_not_depend_on_blas_threads():
    # every grid value is a CSR row sum on the calling thread; a BLAS GEMM
    # on these axes rounds differently at 1 and 2 threads (OpenBLAS 0.3.31)
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _GRID_BYTES_SCRIPT], env=env,
                              check=True, capture_output=True, text=True)
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_grid_path_validates_and_reduces_axes():
    from torusqi.analysis import make_gp

    q = build_full(make_gp(6, 2), 64, 2, 2, 1.0)
    ax = np.linspace(0.1, 6.0, 9)
    ay = np.linspace(0.2, 5.9, 7)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            evaluate_on_grid(q, [ax, np.append(ay, bad)])
    with pytest.raises(ValueError, match="1-D"):
        evaluate_on_grid(q, [ax[:, None], ay])
    with pytest.raises(ValueError, match="need 2 axes"):
        evaluate_on_grid(q, [ax])
    # far-off copies of the axes give the values of the reduced axes
    shifted = [ax + TWO_PI * 1e15, ay - 3 * TWO_PI * 1e15]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = evaluate_on_grid(q, shifted)
        near = evaluate_on_grid(q, [np.remainder(a, TWO_PI) for a in shifted])
    assert np.all(np.isfinite(far))
    assert np.array_equal(far, near)


# ---------------------------------------------------------------------------
# Building from sample arrays
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [16, 256, 1024])
def test_from_samples_matches_build_full(N):
    from torusqi.analysis import gp_eval, make_gp

    g1 = make_gp(6, 1)
    a = gp_eval(g1, TWO_PI * np.arange(N) / N)
    samples = np.outer(a, a)
    for m, gamma in ((0, 1.5), (2, 1.0)):
        q = qi.from_samples(samples, (m, m), (gamma, gamma))
        ref = build_full(make_gp(6, 2), N, 2, m, gamma)
        assert np.array_equal(q.samples, ref.samples)
        assert q.stencil_halfwidths == ref.stencil_halfwidths
        assert q.params == ref.params
        pts = np.random.default_rng(N).uniform(0, TWO_PI, size=(64, 2))
        assert np.array_equal(evaluate(q, pts), evaluate(ref, pts))
    # the interpolant owns a copy: the caller's array stays writeable
    samples[0, 0] = 0.0
    assert q.samples[0, 0] == a[0] * a[0]


def test_from_samples_validation():
    good = np.ones((8, 16))
    qi.from_samples(good, (1, 2), (1.0, 8.0))  # c = pi on the 16-node axis
    for bad in (np.nan, np.inf, -np.inf):
        vals = good.copy()
        vals[3, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            qi.from_samples(vals, (1, 2), (1.0, 1.0))
    for shape in ((8, 5), (2, 8), (7,), (0, 8)):
        with pytest.raises(ValueError):
            qi.from_samples(np.ones(shape), (1,) * len(shape), (1.0,) * len(shape))
    with pytest.raises(ValueError):
        qi.from_samples(good, (1,), (1.0, 1.0))
    with pytest.raises(ValueError):
        qi.from_samples(good, (1, 1), (1.0,))
    for gamma in (0.0, -1.0, 8.5, np.nan):
        with pytest.raises(ValueError):
            qi.from_samples(good, (1, 1), (1.0, gamma))


def test_constructor_takes_samples_and_one_kernel_per_axis():
    # the samples and each axis's kernel fix everything else: the grid,
    # the halfwidths and the values are those of from_samples
    counts, ms, gammas = (128, 64, 8), (0, 3, 8), (1.5, 0.3, 2.0)
    samples = _asymmetric(full_grid_nodes(FullGridSpec(counts))).reshape(counts)
    ref = from_samples(samples, ms, gammas)
    params = tuple(
        KernelParams(m, gamma * (TWO_PI / n)) for n, m, gamma in zip(counts, ms, gammas)
    )
    q = qi.QuasiInterpolant(samples.copy(), params)
    assert q.grid == ref.grid
    assert q.params == ref.params
    assert q.stencil_halfwidths == ref.stencil_halfwidths
    assert [2 * hw + 1 < n for hw, n in zip(q.stencil_halfwidths, counts)] == [
        True, True, False,
    ]
    pts = lcg_uniform_points(700, 3, 0x5EED)
    assert np.array_equal(evaluate(q, pts), evaluate(ref, pts))
    for wrong in (params[:2], params + params[:1]):
        with pytest.raises(ValueError, match="kernel params"):
            qi.QuasiInterpolant(samples.copy(), wrong)
    # the constructor is the samples' only gate
    for bad in (np.nan, np.inf, -np.inf):
        vals = samples.copy()
        vals[5, 7, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            qi.QuasiInterpolant(vals, params)
    # a list of floats and an int64 array are stored as float64 and give
    # bitwise the values of the float64 array
    one = (KernelParams(2, 1.5 * (TWO_PI / 16)),)
    wave = np.cos(3 * TWO_PI * np.arange(16) / 16)
    ints = np.arange(16, dtype=np.int64) % 5 - 2
    x = lcg_uniform_points(300, 1, 0x5EED)
    for given, as_float in ((wave.tolist(), wave), (ints, ints.astype(float))):
        q1 = qi.QuasiInterpolant(given, one)
        assert q1.samples.dtype == np.float64 and not q1.samples.flags.writeable
        assert np.array_equal(evaluate(q1, x), evaluate(qi.QuasiInterpolant(as_float, one), x))


# ---------------------------------------------------------------------------
# Anisotropic builder
# ---------------------------------------------------------------------------

def test_aniso_isotropic_degeneration():
    def f(pts):
        return np.sin(pts[:, 0]) * np.cos(pts[:, 1])

    qa = build_aniso(f, (32, 32), (1, 1), (1.0, 1.0))
    qf = build_full(f, 32, 2, 1, 1.0)
    pts = np.random.default_rng(5).uniform(0, TWO_PI, size=(100, 2))
    assert np.array_equal(evaluate(qa, pts), evaluate(qf, pts))


def test_aniso_tensor_factorization():
    # samples of sin(x) * 1 factorize, so the 2D evaluator is the product
    # of the two 1D evaluators
    def fx(pts):
        return np.sin(pts[:, 0])

    def f2(pts):
        return np.sin(pts[:, 0])

    q2 = build_aniso(f2, (64, 8), (0, 0), (1.0, 1.0))
    qx = build_full(fx, 64, 1, 0, 1.0)
    qy = build_full(const_one, 8, 1, 0, 1.0)
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, TWO_PI, size=(250, 2))
    prod = evaluate(qx, pts[:, :1]) * evaluate(qy, pts[:, 1:])
    np.testing.assert_allclose(evaluate(q2, pts), prod, atol=1e-13)


def test_aniso_error_driven_by_x_resolution():
    def f2(pts):
        return np.sin(pts[:, 0])

    q2 = build_aniso(f2, (64, 8), (0, 0), (1.0, 1.0))
    rng = np.random.default_rng(23)
    pts = rng.uniform(0, TWO_PI, size=(400, 2))
    err2 = np.max(np.abs(evaluate(q2, pts) - f2(pts)))

    qx = build_full(lambda p: np.sin(p[:, 0]), 64, 1, 0, 1.0)
    x1 = pts[:, :1]
    errx = np.max(np.abs(evaluate(qx, x1) - np.sin(x1[:, 0])))
    qy = build_full(const_one, 8, 1, 0, 1.0)
    saty = np.max(np.abs(evaluate(qy, pts[:, 1:]) - 1.0))
    # |Qx s * Qy 1 - s| <= |Qx s - s| (1 + saty) + |s| saty
    assert err2 <= errx * (1.0 + saty) + saty + 1e-14
    assert err2 >= 0.5 * errx  # x-resolution genuinely limits the error


def test_aniso_validation():
    with pytest.raises(ValueError):
        build_aniso(const_one, (32, 32), (0,), (1.0, 1.0))
    with pytest.raises(ValueError):
        build_aniso(const_one, (32, 3), (0, 0), (1.0, 1.0))


# ---------------------------------------------------------------------------
# Sparse builder
# ---------------------------------------------------------------------------

def test_sparse_d1_coincides_with_full():
    from torusqi.analysis import make_gp

    g = make_gp(6, 1)
    qs = build_sparse(g, SparseGridSpec(5, 1), 1, 1.0)
    qf = build_full(g, 32, 1, 1, 1.0)
    pts = eval_points_1d(111)
    assert np.array_equal(evaluate(qs, pts), evaluate(qf, pts))


def test_sparse_samples_once_per_node():
    calls = {"count": 0}

    def counting(pts):
        calls["count"] += pts.shape[0]
        return np.ones(pts.shape[0])

    spec = SparseGridSpec(4, 2)
    build_sparse(counting, spec, 1, 1.0)
    assert calls["count"] == sparse_grid_count_formula(spec)


def test_sparse_store_gather_matches_full_grid_samples():
    for d, level in [(2, 6), (3, 4), (4, 3)]:
        spec = SparseGridSpec(level, d)
        calls = []

        def recording(pts):
            calls.append(pts.shape)
            return _asymmetric(pts)

        q = build_sparse(recording, spec, 1, 1.0)
        assert calls == [(sparse_grid_count_formula(spec), d)]
        assert [t.index for t, _ in q.terms] == [
            t.index for t in combination_terms(spec)
        ]
        for term, component in q.terms:
            expected = _asymmetric(full_grid_nodes(term.grid)).reshape(term.grid.counts)
            assert np.array_equal(component.samples, expected), (d, level, term.index)


def test_sparse_constant_error_decays_with_level():
    # Unlike a single full grid, the combination leaves non-telescoping
    # cross products of coarse-level saturations, so |Q1 - 1| exceeds the
    # finest-grid saturation by a level-independent constant; it still
    # decays with the level at the finest-saturation rate overall.
    rng = np.random.default_rng(31)
    pts = rng.uniform(0, TWO_PI, size=(500, 2))
    for m in (1, 2):
        errs = {}
        for level in (3, 6):
            q = build_sparse(const_one, SparseGridSpec(level, 2), m, 1.0)
            errs[level] = np.max(np.abs(evaluate(q, pts) - 1.0))
        assert errs[6] < errs[3] / 4.0, errs
        assert errs[6] < 1e-2, errs


def test_sparse_2d_error_decreases_with_level():
    from torusqi.analysis import make_gp

    g = make_gp(6, 2)
    rng = np.random.default_rng(41)
    pts = rng.uniform(0, TWO_PI, size=(600, 2))
    ref = g(pts)
    errs = []
    for level in (2, 3, 4, 5, 6):
        q = build_sparse(g, SparseGridSpec(level, 2), 1, 1.0)
        errs.append(np.max(np.abs(evaluate(q, pts) - ref)))
    assert all(b < a for a, b in zip(errs, errs[1:])), errs


def test_sparse_missing_sample_defect():
    from torusqi.qi import _gather_term_samples
    from torusqi.grid import combination_terms

    spec = SparseGridSpec(3, 2)
    term = combination_terms(spec)[-1]
    # store that only knows the origin: every other node is missing
    store_enc = np.array([0], dtype=np.int64)
    store_vals = np.array([1.0])
    with pytest.raises(NumericsError):
        _gather_term_samples(term, store_enc, store_vals, spec.level)


def test_sparse_gamma_cap():
    # coarsest component grids have 2 points, so c = gamma pi must stay <= pi
    def never_called(pts):
        raise AssertionError("sampled before the gamma check")

    for gamma in (1.5, 0.0):
        with pytest.raises(
            ValueError, match=r"2-point component grids need c = gamma pi <= pi"
        ):
            build_sparse(never_called, SparseGridSpec(3, 2), 1, gamma)


# ---------------------------------------------------------------------------
# Level sweeps
# ---------------------------------------------------------------------------

def _sweep_points(count, d, seed=5):
    return np.random.default_rng(seed).uniform(0, TWO_PI, size=(count, d))


@pytest.mark.parametrize(
    "d, levels, m, gamma",
    [
        (1, (3, 4, 5), 2, 1.5),
        (2, (4, 5, 6, 7), 2, 1.0),
        (2, (3, 5, 7), 1, 0.7),
        (2, (7, 4), 0, 1.0),
        (3, (2, 3, 4, 5), 2, 1.0),
        (3, (5, 3), 1, 0.9),
    ],
)
def test_sweep_rows_match_single_level_builds(d, levels, m, gamma):
    specs = [SparseGridSpec(level, d) for level in levels]
    pts = _sweep_points(700, d)
    rows = evaluate_many(build_sparse_levels(_asymmetric, specs, m, gamma), pts)
    assert rows.shape == (len(specs), len(pts))
    for spec, row in zip(specs, rows):
        alone = evaluate(build_sparse(_asymmetric, spec, m, gamma), pts)
        assert np.array_equal(row, alone), spec


def test_sweep_rows_match_across_chunks(monkeypatch):
    # the sweep's block size follows its largest grid, a lone level's its
    # own; with a small budget both span many blocks, of different sizes
    monkeypatch.setattr(qi, "_CHUNK_ELEMS", 256)
    specs = [SparseGridSpec(level, 3) for level in (2, 4, 5)]
    pts = _sweep_points(1000, 3)
    qs = build_sparse_levels(_asymmetric, specs, 2, 1.0)
    rests = {c.grid.size // max(c.grid.counts) for q in qs for _, c in q.terms}
    assert len(pts) > qi._CHUNK_ELEMS // max(rests) and len(rests) > 1
    for spec, row in zip(specs, evaluate_many(qs, pts)):
        alone = evaluate(build_sparse(_asymmetric, spec, 2, 1.0), pts)
        assert np.array_equal(row, alone), spec


def test_evaluate_many_mixes_full_and_sparse():
    pts = _sweep_points(500, 2)
    qs = [
        build_full(_asymmetric, 16, 2, 1, 1.0),
        build_sparse(_asymmetric, SparseGridSpec(5, 2), 2, 1.0),
        build_aniso(_asymmetric, (64, 8), (2, 0), (1.0, 0.8)),
        build_sparse(_asymmetric, SparseGridSpec(3, 2), 1, 0.5),
    ]
    rows = evaluate_many(qs, pts)
    for q, row in zip(qs, rows):
        assert np.array_equal(row, evaluate(q, pts))


def test_sweep_shares_components_across_levels():
    specs = [SparseGridSpec(level, 3) for level in (3, 4, 5)]
    qs = build_sparse_levels(_asymmetric, specs, 1, 1.0)
    by_index = {}
    shared = 0
    for q in qs:
        for term, component in q.terms:
            if term.index in by_index:
                assert component is by_index[term.index], term.index
                shared += 1
            by_index[term.index] = component
    # consecutive 3D levels share two of their three diagonals
    assert shared == sum(
        1 for q in qs[1:] for t, _ in q.terms if sum(t.index) < q.spec.level + 2
    )
    assert shared > 0


def test_sweep_samples_once_on_the_finest_nodes():
    for d, levels in [(1, (4, 6, 5)), (2, (6, 9, 7)), (3, (5, 3))]:
        calls = []

        def recording(pts):
            calls.append(pts.shape)
            return _asymmetric(pts)

        specs = [SparseGridSpec(level, d) for level in levels]
        build_sparse_levels(recording, specs, 1, 1.0)
        finest = SparseGridSpec(max(levels), d)
        assert calls == [(sparse_grid_count_formula(finest), d)], (d, levels)


def test_sweep_validation():
    q2 = build_sparse(const_one, SparseGridSpec(3, 2), 1, 1.0)
    q3 = build_sparse(const_one, SparseGridSpec(3, 3), 1, 1.0)
    with pytest.raises(ValueError, match="at least one"):
        build_sparse_levels(const_one, [], 1, 1.0)
    with pytest.raises(ValueError, match="equal dims"):
        build_sparse_levels(
            const_one, [SparseGridSpec(3, 2), SparseGridSpec(4, 3)], 1, 1.0
        )
    with pytest.raises(ValueError, match="at least one"):
        evaluate_many([], np.zeros((3, 2)))
    with pytest.raises(ValueError, match="equal dims"):
        evaluate_many([q2, q3], np.zeros((3, 2)))
    with pytest.raises(ValueError, match="equal dims"):
        evaluate_many([q2, build_full(const_one, 8, 1, 1)], np.zeros((3, 2)))


def test_sweeps_of_different_targets_stay_apart():
    # the same component index holds different samples in the two sweeps,
    # so components must be told apart by identity, not by index
    def other(pts):
        return np.cos(pts[:, 0] - 2.0 * pts[:, 1]) + 0.5

    specs = [SparseGridSpec(level, 2) for level in (4, 5, 6)]
    qs = build_sparse_levels(_asymmetric, specs, 1, 1.0) + build_sparse_levels(
        other, specs, 1, 1.0
    )
    pts = _sweep_points(400, 2)
    rows = evaluate_many(qs, pts)
    for q, row in zip(qs, rows):
        assert np.array_equal(row, evaluate(q, pts))
    assert not np.array_equal(rows[0], rows[3])


# ---------------------------------------------------------------------------
# Product targets
# ---------------------------------------------------------------------------

_UNIT_ROUNDOFF = 2.0**-53


def _gamma_n(k):
    """gamma_k = k u / (1 - k u): a product of k factors (1 + delta_i)^(+-1)
    with |delta_i| <= u lies within 1 +- gamma_k (Higham, Lemma 3.1)."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _product_factor(d):
    g = make_gp(6, d)
    calls = []

    def factor(alpha):
        calls.append(alpha.size)
        return gp_eval(g, alpha)

    return g, factor, calls


@pytest.mark.parametrize("gamma", [0.5, 1.0])
@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize(
    "d, levels",
    [(1, (6, 4, 8)), (2, (5, 8)), (3, (3, 5)), (4, (2, 4)), (5, (2, 4))],
)
def test_product_evaluation_matches_the_generic_sweep(d, levels, m, gamma):
    # The referee is evaluate_many of build_sparse_levels of G_p, whose
    # component grids hold G_p's samples.  Both sides compute the same
    # windowed sum W = sum_t c_t prod_r sum_{j in window} k_rj g(x_rj), with
    # bitwise the same kernel values k_rj (one KernelParams per axis count);
    # they differ only in rounding.  Generic: each grid sample is
    # ((1 g) g ...) g (d - 1 roundings), the largest axis is one dot product
    # of <= n_big terms per point and each other axis one of n_r terms, so
    # each elementary product k...k g...g of a term carries at most
    # sum_r n_r + d - 1 factors (1 + delta).  Factored: each 1D value is a
    # dot product of <= n_r terms and the d values are multiplied, the same
    # count.  Both then add c_t v_t in term order (one rounding for c_t v_t,
    # at most T - 1 for the sum).  With K = max_t sum_r n_r + d + T, each
    # side is within gamma_K sum_t |c_t| prod_r a_{n_r}(x_r) of W, where
    # a_n(x) = sum_j (2 pi / n) |psi(x - x_j)| |g(x_j)| over every node, an
    # upper bound on the window's magnitude; so the two sides differ by at
    # most twice that.  a_n is computed here from psi_restricted, within a
    # few ulps of the evaluator's kernel values, which the factor
    # 1 + 2^-30 on the bound covers.
    g, factor, calls = _product_factor(d)
    specs = [SparseGridSpec(level, d) for level in levels]
    pts = _sweep_points(500, d)
    got = evaluate_sparse_product_levels(factor, specs, m, gamma, pts)
    want = evaluate_many(build_sparse_levels(g, specs, m, gamma), pts)
    terms = [combination_terms(spec) for spec in specs]
    counts = {n for row in terms for t in row for n in t.grid.counts}
    assert sorted(calls) == sorted(counts)  # one sampling per node count
    mags = {}
    for n in counts:
        nodes = FullGridSpec((n,)).axis(0)
        kern = psi_restricted(KernelParams(m, gamma * (TWO_PI / n)), pts[:, :, None] - nodes)
        mags[n] = (TWO_PI / n) * np.abs(kern) @ np.abs(gp_eval(g, nodes))
    assert got.shape == want.shape == (len(specs), len(pts))
    for row_terms, got_row, want_row in zip(terms, got, want):
        k = max(sum(t.grid.counts) for t in row_terms) + d + len(row_terms)
        bound = sum(abs(t.coeff) * np.prod([mags[n][:, r] for r, n in
                                            enumerate(t.grid.counts)], axis=0)
                    for t in row_terms)
        bound *= 2.0 * _gamma_n(k) * (1.0 + 2.0**-30)
        assert np.all(np.abs(got_row - want_row) <= bound), (d, levels)


def _exact_factor(g, n, m, gamma, x):
    """(exact value, error bound) of the computed 1D interpolant at x.

    The exact value is E = sum_j w k(x - x_j) g_j over all n nodes, at the
    float point x, float nodes x_j and float samples g_j, with the exact
    kernel k(alpha) = L(s) e^-s / (sqrt(2 pi) c), s = 2 sin^2(alpha/2) / c^2,
    L the Laguerre polynomial L_m^(1/2), c the float shape and
    w = 2 pi / n.  The computed value differs from it by at most

      e = sum_j eta_j |g_j| + gamma_n sum_j (|k_j| + eta_j) |g_j| + tau,

    where
    * eta_j bounds the computed kernel value's error: with P (P') the
      polynomial (derivative) of L's absolute coefficients, so that
      s P'(s) <= m P(s), the chord and s take at most 9 roundings (a
      relative error of alpha changes the chord by at most twice it), the
      Horner steps and the coefficients 2m + 4, exp and the final scalings
      7 more, so the relative part is under (11m + 9s + 11) u P(s), taken
      as (12m + 12s + 24) u P(s) for second-order terms; the node offsets
      are moreover off by at most Delta = 2e-15 absolute (an unreduced
      node's rounding and the float 2 pi), which moves s by at most
      |sin alpha| Delta / c^2 and L e^-s by (P + P') e^-s times that;
    * gamma_n covers the window's dot product of at most n terms;
    * tau bounds the truncation: every dropped node is at least
      (hw + 1/2) h from x, with hw = stencil_halfwidth and h = 2 pi / n, so
      tau is the sum of |k_j g_j| over the nodes at least (hw + 0.49) h
      away.
    """
    import mpmath

    c = gamma * (TWO_PI / n)
    hw = stencil_halfwidth(KernelParams(m, c), n)
    nodes = FullGridSpec((n,)).axis(0)
    coeffs = [(-1) ** k * mpmath.binomial(m + mpmath.mpf(0.5), m - k)
              / mpmath.factorial(k) for k in range(m + 1)]
    mc = mpmath.mpf(c)
    scale = (2 * mpmath.pi / n) / (mpmath.sqrt(2 * mpmath.pi) * mc)
    exact = mags = eta = tau = mpmath.mpf(0)
    for x_j, g_j in zip(nodes, gp_eval(g, nodes)):
        alpha = mpmath.mpf(x) - mpmath.mpf(x_j)
        s = 2 * mpmath.sin(alpha / 2) ** 2 / mc**2
        env = scale * mpmath.exp(-s)
        k_j = env * mpmath.polyval(coeffs[::-1], s)
        big_p = mpmath.polyval([abs(a) for a in coeffs[::-1]], s)
        dp = mpmath.polyval([k * abs(a) for k, a in enumerate(coeffs)][:0:-1], s) if m else 0
        e_j = env * ((12 * m + 12 * s + 24) * _UNIT_ROUNDOFF * big_p
                     + (big_p + dp) * 2e-15 * abs(mpmath.sin(alpha)) / mc**2)
        exact += k_j * g_j
        eta += e_j * abs(g_j)
        mags += (abs(k_j) + e_j) * abs(g_j)
        dist = abs(x - x_j)
        if min(dist, TWO_PI - dist) >= (hw + 0.49) * (TWO_PI / n):
            tau += abs(k_j * g_j)
    return exact, eta + _gamma_n(n) * mags + tau


@pytest.mark.parametrize("d, level", [(4, 7), (5, 6)])
def test_product_evaluation_is_within_its_bound_of_the_exact_sum(d, level):
    # where the factored and generic values differ most (about 5e-14 and
    # 9e-14 of max |G_p| at d = 4 and 5), the factored value is held to
    # the factored formula summed densely in 30-digit arithmetic.  With
    # E_r, e_r the exact 1D value and its error bound (_exact_factor), a
    # term's computed product is within prod_r (|E_r| + e_r) - prod_r |E_r|
    # of the exact one, and the product's d - 1 roundings, c_t's and the
    # sum's T - 1 stay within gamma_(d + T) of prod_r (|E_r| + e_r), so
    #   |computed - exact| <= sum_t |c_t| ((1 + gamma_(d+T)) prod_r (|E_r| + e_r)
    #                                      - prod_r |E_r|).
    import mpmath

    m, gamma = 2, 1.0
    g, factor, _ = _product_factor(d)
    spec = SparseGridSpec(level, d)
    pts = lcg_uniform_points(8, d, 0x5EED)
    got = evaluate_sparse_product_levels(factor, [spec], m, gamma, pts)[0]
    terms = combination_terms(spec)
    counts = sorted({n for t in terms for n in t.grid.counts})
    with mpmath.workdps(30):
        for x, value in zip(pts, got):
            factors = {(r, n): _exact_factor(g, n, m, gamma, x[r])
                       for r in range(d) for n in counts}
            exact = bound = mpmath.mpf(0)
            for t in terms:
                pairs = [factors[r, n] for r, n in enumerate(t.grid.counts)]
                exact += t.coeff * mpmath.fprod(e for e, _ in pairs)
                bound += abs(t.coeff) * (
                    (1 + _gamma_n(d + len(terms))) * mpmath.fprod(abs(e) + b for e, b in pairs)
                    - mpmath.fprod(abs(e) for e, _ in pairs)
                )
            assert abs(mpmath.mpf(float(value)) - exact) <= bound, (d, level, x)


@pytest.mark.parametrize(
    "specs, gamma, match",
    [
        ([], 1.0, "at least one"),
        ([SparseGridSpec(3, 2), SparseGridSpec(4, 3)], 1.0, "equal dims"),
        ([SparseGridSpec(3, 2)], 1.5, "2-point component grids"),
        ([SparseGridSpec(3, 3)], 0.0, "2-point component grids"),
        ([SparseGridSpec(4, 1)], 9.0, r"gamma must be in \(0, 8\.0\]"),
        ([SparseGridSpec(5, 2), SparseGridSpec(30, 2)], 1.0, "exceeds the 16777216 guard"),
        ([SparseGridSpec(32, 2)], 1.0, "exceed 62 bits"),
    ],
)
def test_product_evaluation_raises_the_generic_errors_before_sampling(specs, gamma, match):
    import tracemalloc

    def never_called(x):
        raise AssertionError("sampled before the checks")

    pts = np.zeros((4, specs[0].dims if specs else 1))
    errors = []
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match) as info:
            build_sparse_levels(never_called, specs, 1, gamma)
        errors.append(str(info.value))
        with pytest.raises(ValueError, match=match) as info:
            evaluate_sparse_product_levels(never_called, specs, 1, gamma, pts)
        errors.append(str(info.value))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert errors[0] == errors[1]
    assert peak < 1 << 20  # no grid was allocated


def test_product_evaluation_checks_the_factor():
    specs = [SparseGridSpec(3, 2)]
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError, match="non-finite"):
        evaluate_sparse_product_levels(
            lambda a: np.where(a > 3.0, np.inf, 1.0), specs, 1, 1.0, pts
        )
    with pytest.raises(ValueError, match="sample function must map"):
        evaluate_sparse_product_levels(lambda a: np.ones(a.size + 1), specs, 1, 1.0, pts)


# ---------------------------------------------------------------------------
# Kernel sweeps on one sample array
# ---------------------------------------------------------------------------

def _kernel_sweep(counts, kernels):
    """Interpolants of one asymmetric sample array, one per (ms, gammas)."""
    samples = _asymmetric(full_grid_nodes(FullGridSpec(counts))).reshape(counts)
    return [from_samples(samples, ms, gammas) for ms, gammas in kernels]


def _spans(q, r):
    return 2 * q.stencil_halfwidths[r] + 1 >= q.grid.counts[r]


# every case puts kernels whose window spans an axis in the same
# (axis, count) group as truncated ones; the repeated 2-D pair makes two
# components share their matrices
_SWEEPS = [
    # table1's sweep at N = 32: gamma 1.5 spans the axis, the rest do not
    ((32,), [((m,), (gamma,)) for m in (0, 1, 2) for gamma in (0.6, 0.8, 1.0, 1.5)]),
    ((128,), [((m,), (gamma,)) for m in (0, 5, 8) for gamma in (0.6, 1.5, 3.0, 4.0)]),
    ((64, 32), [((0, 2), (0.6, 1.5)), ((2, 1), (1.0, 0.8)), ((8, 0), (4.0, 1.0)),
                ((5, 5), (1.5, 1.5)), ((0, 2), (0.6, 1.5))]),
]


@pytest.mark.parametrize("counts, kernels", _SWEEPS)
@pytest.mark.parametrize("chunk", [None, 256])
def test_kernel_sweep_rows_match_lone_evaluations(monkeypatch, counts, kernels, chunk):
    if chunk is not None:
        monkeypatch.setattr(qi, "_CHUNK_ELEMS", chunk)
    qs = _kernel_sweep(counts, kernels)
    for r in range(len(counts)):
        assert len({_spans(q, r) for q in qs}) == 2
        assert len({q.stencil_halfwidths[r] for q in qs if not _spans(q, r)}) > 1
    pts = _sweep_points(700, len(counts))
    rest = max(q.grid.size // max(q.grid.counts) for q in qs)
    assert (len(pts) > qi._CHUNK_ELEMS // rest) == (chunk is not None)
    rows = evaluate_many(qs, pts)
    for q, row in zip(qs, rows):
        assert np.array_equal(row, evaluate(q, pts)), q.params


def test_kernel_sweep_mixes_grid_sizes():
    # groups are per (axis, count): interpolants on 32 and 64 nodes, full
    # and sparse, evaluated together
    kernels = [((m,), (gamma,)) for m in (0, 2) for gamma in (1.0, 1.5)]
    qs = _kernel_sweep((32,), kernels) + _kernel_sweep((64,), kernels)
    qs.append(build_sparse(_asymmetric, SparseGridSpec(6, 1), 2, 1.5))
    pts = _sweep_points(500, 1)
    for q, row in zip(qs, evaluate_many(qs, pts)):
        assert np.array_equal(row, evaluate(q, pts))


def test_kernel_sweep_holds_one_matrix_at_a_time():
    # table1's sweep at N = 2048: each kernel's matrix is built at its first
    # use and dropped after its last, so the twelve are never alive
    # together; holding them all takes more than their window values
    import tracemalloc

    from torusqi.analysis import offset_eval_axis

    kernels = [((m,), (gamma,)) for m in (0, 1, 2) for gamma in (0.6, 0.8, 1.0, 1.5)]
    qs = _kernel_sweep((2048,), kernels)
    pts = offset_eval_axis(2048)[:, None]
    values = sum(8 * len(pts) * (2 * q.stencil_halfwidths[0] + 1) for q in qs)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rows = evaluate_many(qs, pts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < values
    for q, row in zip(qs, rows):
        assert np.array_equal(row, evaluate(q, pts)), q.params


def test_evaluation_reads_the_interpolants_halfwidths(monkeypatch):
    # the window widths come from each interpolant's stencil_halfwidths,
    # fixed at construction: no evaluation path sizes a stencil again
    table1 = _kernel_sweep((32,), [((m,), (gamma,)) for m in (0, 1, 2)
                                   for gamma in (0.6, 0.8, 1.0, 1.5)])
    aniso = build_aniso(_asymmetric, (64, 8, 32), (2, 5, 0), (1.0, 4.0, 0.6))
    levels = build_sparse_levels(_asymmetric, [SparseGridSpec(lv, 2) for lv in (5, 6, 7)],
                                 2, 1.0)
    pts1, pts2, pts3 = (_sweep_points(700, d) for d in (1, 2, 3))
    axes = [np.linspace(0.1, 6.2, k) for k in (17, 5, 11)]
    grids = [evaluate_on_grid(q, axes[: q.grid.dims]) for q in table1 + [aniso]]
    rows = [evaluate_many(table1, pts1), evaluate(aniso, pts3), evaluate_many(levels, pts2)]

    def no_sizing(*args):
        raise AssertionError("a stencil was sized during evaluation")

    monkeypatch.setattr(qi, "stencil_halfwidth", no_sizing)
    assert np.array_equal(evaluate_many(table1, pts1), rows[0])
    assert np.array_equal(evaluate(aniso, pts3), rows[1])
    assert np.array_equal(evaluate_many(levels, pts2), rows[2])
    for q, row in zip(levels, rows[2]):
        assert np.array_equal(evaluate(q, pts2), row)
    for q, grid in zip(table1 + [aniso], grids):
        assert np.array_equal(evaluate_on_grid(q, axes[: q.grid.dims]), grid)


# ---------------------------------------------------------------------------
# Window sums
# ---------------------------------------------------------------------------

def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _csr_reference(x, n, params, hw):
    """A truncated kernel matrix from psi_restricted, as CSR in window order."""
    from scipy import sparse

    h = TWO_PI / n
    nodes = np.round(x / h).astype(np.int64)[:, None] + np.arange(-hw, hw + 1)
    kern = h * psi_restricted(params, x[:, None] - h * nodes)
    indptr = np.arange(0, kern.size + 1, 2 * hw + 1)
    return sparse.csr_matrix((kern.ravel(), np.mod(nodes, n).ravel(), indptr),
                             shape=(x.size, n))


def _wrapping_points(n, count, seed):
    # points at and next to 0 and 2 pi put windows past both ends of the axis
    h = TWO_PI / n
    edges = [0.0, 5e-324, 1e-12, 0.49 * h, 0.51 * h, TWO_PI - 0.51 * h,
             TWO_PI - 0.49 * h, TWO_PI - 1e-12, np.nextafter(TWO_PI, 0.0)]
    rng = np.random.default_rng(seed)
    return np.concatenate([edges, rng.uniform(0.0, TWO_PI, count)])


@pytest.mark.parametrize("n", [16, 64, 1024])
def test_window_sum_is_bitwise_the_csr_product(n):
    # one group of kernels shares the widest window's chord, so the
    # narrower ones take its middle rows (hw < wide); every sum must have
    # the bits of scipy's CSR matrix-vector product, whose sequential sum
    # starts at +0.0, at one, two and many points
    rng = np.random.default_rng(n)
    widths = {}
    for m in (0, 1, 2, 8):
        for gamma in (0.3, 0.6, 1.0, 1.5):
            if gamma * TWO_PI / n <= math.pi:
                params = KernelParams(m, gamma * TWO_PI / n)
                widths[params] = stencil_halfwidth(params, n)
    narrow = {p: hw for p, hw in widths.items() if 2 * hw + 1 < n}
    assert len(set(narrow.values())) > 1
    random = rng.uniform(-1.0, 1.0, n)
    random[::5] = 0.0
    random[1::7] = -0.0
    negative = -rng.uniform(0.5, 1.0, n)
    negative[::3] = -0.0
    batteries = {"random": random, "negative": negative, "negative zeros": np.full(n, -0.0)}
    x = _wrapping_points(n, 400, n)
    for pts in (x, x[:1], x[-1:], x[7:9]):
        matrix, _ = qi._dim_windows(pts, n, widths)
        for params, hw in narrow.items():
            win = matrix(params)
            ref = _csr_reference(pts, n, params, hw)
            for name, samples in batteries.items():
                got = qi._window_sum(win, samples)
                assert np.array_equal(_bits(got), _bits(ref @ samples)), (params, name, pts.size)
                if name == "negative zeros":
                    # -0.0 summed from +0.0 is +0.0, whatever the kernel's signs
                    assert not np.signbit(got).any()


def test_1d_rows_are_bitwise_the_csr_product():
    # table1's sweep at N = 128 over points that wrap: every truncated row
    # of evaluate_many is the CSR product of a window built from
    # psi_restricted, in several blocks on the thread pool
    n = 128
    qs = _kernel_sweep((n,), [((m,), (gamma,)) for m in (0, 1, 2)
                              for gamma in (0.6, 0.8, 1.0, 1.5)])
    x = _wrapping_points(n, 5000, 1)
    assert len(_blocks(qs, x.size)) > 1
    for q, row in zip(qs, evaluate_many(qs, x[:, None])):
        hw = q.stencil_halfwidths[0]
        assert 2 * hw + 1 < n
        ref = _csr_reference(x, n, q.params[0], hw) @ q.samples
        assert np.array_equal(_bits(row), _bits(ref)), q.params


# ---------------------------------------------------------------------------
# Chords taken from the group of twice the count
# ---------------------------------------------------------------------------

_CHAIN_KERNELS = ((0, 0.5), (2, 1.0), (5, 3.0), (8, 1.5))


def _halving_chain():
    """1D interpolants on 4096 .. 2 nodes, finest first, then on 24, 12, 6.

    Several kernels per count: each group holds truncated windows of
    different halfwidths and, at the small counts, spanning ones too.
    """
    qs = []
    for n in [1 << k for k in range(12, 0, -1)]:
        samples = _asymmetric(FullGridSpec((n,)).axis(0)[:, None])
        qs += [qi._assemble(samples, (m,), (gamma,))
               for m, gamma in _CHAIN_KERNELS if gamma * TWO_PI / n <= math.pi]
    for n in (24, 12, 6):
        qs += _kernel_sweep((n,), [((m,), (gamma,)) for m, gamma in _CHAIN_KERNELS
                                   if gamma * TWO_PI / n <= math.pi])
    return qs


def _chain_points():
    from torusqi.analysis import offset_eval_axis

    # exact half-node ties x = (k + 1/2) h_n round to even, so their
    # delta = 2 round(x / h_n) - round(x / h_2n) is -1 or +1
    ties = [(k + 0.5) * (TWO_PI / n) for n in (8, 64, 1024) for k in (0, 1, 2, 5, n // 2, n - 1)]
    edges = [0.0, 5e-324, np.nextafter(TWO_PI, 0.0)]
    rng = np.random.default_rng(29)
    return np.concatenate([edges, ties, offset_eval_axis(256), rng.uniform(0.0, TWO_PI, 3000)])


def test_rows_built_from_finer_chords_are_bitwise_lone_evaluations():
    qs = _halving_chain()
    x = _chain_points()
    for n in (8, 64, 1024):
        h = TWO_PI / n
        delta = 2 * np.round(x / h) - np.round(x / (h / 2))
        assert set(delta.tolist()) == {-1.0, 0.0, 1.0}
    by_count = {}
    for q in qs:
        by_count.setdefault(q.grid.counts[0], []).append(q)
    assert any(len({q.stencil_halfwidths[0] for q in group if not _spans(q, 0)}) > 1
               for group in by_count.values())
    assert any(len({_spans(q, 0) for q in group}) == 2 for group in by_count.values())
    assert len(_blocks(qs, x.size)) > 1
    for q, row in zip(qs, evaluate_many(qs, x[:, None])):
        assert np.array_equal(_bits(row), _bits(evaluate(q, x[:, None]))), q.params


def test_chords_outlive_their_group_only_for_the_next_group_of_half_its_count(monkeypatch):
    # 1D blocks run one after another, so when a group is built the only
    # chords alive are those it is given: the previous group's, exactly
    # when that group has twice its count (4096 .. 2, then 24, 12, 6); a
    # group may spend its chords exactly when the next one does not read them
    real = qi._dim_windows
    refs, built = [], []

    def recording(x, n, widths, finer=None, spend=False):
        alive = [c for c in (ref() for ref in refs) if c is not None]
        assert alive == ([finer] if finer is not None else [])
        matrix, chords = real(x, n, widths, finer, spend)
        refs.append(weakref.ref(chords))
        built.append((n, finer is not None, spend))
        return matrix, chords

    monkeypatch.setattr(qi, "_dim_windows", recording)
    qs, x = _halving_chain(), _chain_points()
    evaluate_many(qs, x[:, None])
    blocks = len(_blocks(qs, x.size))
    assert blocks > 1
    for (prev, _, spent), (n, reused, _) in zip(built, built[1:]):
        assert reused == (prev == 2 * n) == (not spent), (prev, n)
    assert built[-1][2]
    # 2048 .. 2 and 12, 6 in every block
    assert sum(reused for _, reused, _ in built) == 13 * blocks


def test_no_kernel_reads_chords_that_another_kernel_spent(monkeypatch):
    # a group's last-built kernel spends its own chord rows (or the spanning
    # chord) as scratch, unless the group of half its count reads them next;
    # every kernel matrix must still be psi_from_chord of fresh chords times
    # the spacing, in groups whose last kernel is narrower than an earlier
    # one, whose spanning kernels share one chord, and along 2n -> n chains
    real = qi._dim_windows
    built, spent = [], []

    def recording(x, n, widths, finer=None, spend=False):
        matrix, chords = real(x, n, widths, finer, spend)
        h = TWO_PI / n

        def checked(params):
            mat = matrix(params)
            if isinstance(mat, qi._Window):
                hw = widths[params]
                offsets = x - h * (mat.center + np.arange(-hw, hw + 1)[:, None])
                got = mat.values
                if spend and params == next(reversed(widths)):
                    assert np.shares_memory(mat.scratch, chords.window)
                    spent.append(n)
            else:
                offsets = x[:, None] - h * np.arange(n)
                got = mat
            want = h * psi_from_chord(params, 2.0 * np.sin(offsets / 2.0) ** 2)
            assert np.array_equal(_bits(got), _bits(want)), (n, params)
            built.append((n, params))
            return mat

        return checked, chords

    # the chains end on spanning groups (2 and 6 nodes); a lone 1000-node
    # group, built last, ends on a window narrower than an earlier one
    qs = _halving_chain() + _kernel_sweep((1000,), [((m,), (gamma,))
                                                    for m, gamma in _CHAIN_KERNELS])
    x = _chain_points()
    by_count = {}
    for q in qs:
        by_count.setdefault(q.grid.counts[0], []).append(q)
    narrower_last = [n for n, group in by_count.items() if not _spans(group[-1], 0)
                     and group[-1].stencil_halfwidths[0]
                     < max(q.stencil_halfwidths[0] for q in group if not _spans(q, 0))]
    assert 1000 in narrower_last and len(narrower_last) > 1
    assert all(sum(_spans(q, 0) for q in by_count[n]) > 1 for n in (2, 6))
    monkeypatch.setattr(qi, "_dim_windows", recording)
    rows = evaluate_many(qs, x[:, None])
    blocks = len(_blocks(qs, x.size))
    assert blocks > 1 and len(built) == len(qs) * blocks
    assert spent == [1000] * blocks
    monkeypatch.undo()
    for q, row in zip(qs, rows):
        assert np.array_equal(_bits(row), _bits(evaluate(q, x[:, None]))), q.params


def test_product_levels_take_most_chords_from_the_finer_count(monkeypatch):
    # without reuse every group computes the sines of its whole window
    # (or of the whole axis, where it spans) on each of the two axes
    spec, m, gamma = SparseGridSpec(10, 2), 2, 1.0
    pts = lcg_uniform_points(1024, 2, 3)
    counts = {n for t in combination_terms(spec) for n in t.grid.counts}
    fresh = 0
    for n in counts:
        hw = stencil_halfwidth(KernelParams(m, gamma * TWO_PI / n), n)
        fresh += 2 * len(pts) * min(2 * hw + 1, n)
    sines = []
    real = np.sin

    def counting_sin(a, *args, **kwargs):
        sines.append(np.size(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "sin", counting_sin)
    evaluate_sparse_product_levels(lambda a: np.cos(a) + 0.5, [spec], m, gamma, pts)
    assert 0 < sum(sines) <= 0.6 * fresh


_D3_CASE = """
import hashlib
import numpy as np
from torusqi import SparseGridSpec, build_aniso, build_sparse_levels, evaluate_many
from torusqi import evaluate_on_grid

f = lambda p: np.sin(p[:, 0] + 2 * p[:, 1] + 3 * p[:, 2])
qs = list(build_sparse_levels(f, [SparseGridSpec(lv, 3) for lv in (4, 5)], 2, 1.0))
qs.append(build_aniso(f, (32, 8, 16), (2, 1, 0), (1.0, 1.5, 0.6)))
pts = np.random.default_rng(3).uniform(0.0, 2 * np.pi, (4096, 3))
rows = evaluate_many(qs, pts)
grid = evaluate_on_grid(qs[-1], [np.linspace(0.0, 6.0, k) for k in (5, 7, 9)])
digest = hashlib.sha256(rows.tobytes() + grid.tobytes()).hexdigest()
"""


def test_fresh_interpreter_imports_scipy_at_the_first_d3_evaluation():
    # d >= 2 evaluation builds CSR matrices, importing scipy.sparse on its
    # first use, here from the pool's worker threads; the values are those
    # of this process, which imported it long before
    script = ("import sys\nassert 'scipy' not in sys.modules\n" + _D3_CASE
              + "assert 'scipy.sparse' in sys.modules\nprint(digest)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    here: dict = {}
    exec(_D3_CASE, here)
    assert proc.stdout.strip() == here["digest"]


# ---------------------------------------------------------------------------
# Point blocks and worker threads
# ---------------------------------------------------------------------------

def _table1_sweep():
    from torusqi.analysis import offset_eval_axis

    kernels = [((m,), (gamma,)) for m in (0, 1, 2) for gamma in (0.6, 0.8, 1.0, 1.5)]
    return _kernel_sweep((2048,), kernels), offset_eval_axis(2048)[:, None]


def _level_sweep(d, levels):
    specs = [SparseGridSpec(level, d) for level in levels]
    return build_sparse_levels(_asymmetric, specs, 2, 1.0), _sweep_points(8192, d)


def _mixed_full_3d():
    # truncated and spanning axes side by side; the last grid spans every
    # axis, so its largest axis is a dense product
    qs = _kernel_sweep((64, 8, 32), [((2, 2, 1), (1.0, 1.5, 0.8)),
                                     ((0, 5, 2), (0.6, 4.0, 1.5))])
    qs += _kernel_sweep((8, 16, 4), [((2, 2, 2), (1.5, 1.5, 1.0))])
    assert {_spans(q, r) for q in qs for r in range(3)} == {True, False}
    assert all(_spans(qs[-1], r) for r in range(3))
    return qs, _sweep_points(5000, 3)


def _spanning_1d():
    # table1's kernels at N = 32, where gamma 1.5 spans the axis
    kernels = [((m,), (gamma,)) for m in (0, 2) for gamma in (0.6, 1.5)]
    return _kernel_sweep((32,), kernels), _sweep_points(5000, 1)


_BLOCK_CASES = {
    "table1_n2048": _table1_sweep,
    "sparse2d": lambda: _level_sweep(2, (8, 9, 10, 11)),
    "sparse3d": lambda: _level_sweep(3, (4, 5, 6)),
    "full3d_mixed": _mixed_full_3d,
}


def _blocks(qs, count):
    """evaluate_many's point blocks of ``qs`` at ``count`` points."""
    parts = [c for q in qs for _, c in qi._components(q)[1]]
    rest = max(c.grid.size // max(c.grid.counts) for c in parts)
    height = max(min(2 * hw + 1, n) for c in parts
                 for n, hw in zip(c.grid.counts, c.stencil_halfwidths))
    return qi._point_blocks(count, rest, height)


@pytest.mark.parametrize("cols", [4, 8, 33])
def test_dense_product_joins_a_one_row_tail_to_the_slice_before(monkeypatch, cols):
    # with one row tile per slice, a row count one more than a multiple of
    # the tile would leave a lone last row, which numpy sends to a BLAS
    # vector routine that rounds it differently from one product's GEMM
    monkeypatch.setattr(qi, "_GEMM_ELEMS", 1)
    rng = np.random.default_rng(cols)
    for tiles in (1, 2, 3):
        mat = rng.standard_normal((tiles * qi._ROW_TILE + 1, 48))
        samples = rng.standard_normal((48, cols))
        assert np.array_equal(qi._dense_product(mat, samples), mat @ samples)


@pytest.mark.parametrize("case", ["sparse2d_l6", "sparse3d_l7", "full2d_n12"])
def test_one_point_slices_are_bitwise_the_batch(case):
    # a lone point's dense product is the first row of a two-row product,
    # not a BLAS vector product, which rounds differently
    q = {
        "sparse2d_l6": lambda: build_sparse(_asymmetric, SparseGridSpec(6, 2), 2, 1.0),
        "sparse3d_l7": lambda: build_sparse(_asymmetric, SparseGridSpec(7, 3), 2, 1.0),
        "full2d_n12": lambda: build_full(_asymmetric, 12, 2, 2, 1.0),
    }[case]()
    pts = _sweep_points(150, qi._components(q)[0])
    whole = evaluate(q, pts)
    alone = np.concatenate([evaluate(q, pts[a : a + 1]) for a in range(len(pts))])
    assert np.array_equal(_bits(alone), _bits(whole))


@pytest.mark.parametrize("gamma", [1e-20, 1e-40, 1e-100, 1e-200])
@pytest.mark.parametrize("m", [0, 2, 5, 8])
def test_tiny_shapes_give_finite_values_or_a_value_error(m, gamma):
    # u = t / c^2 up to 2 / c^2 used to overflow the Laguerre factor (NaN
    # once exp(-u) = 0 multiplied it), and a c^2 below the normal range gave
    # 0 / 0 at the node; the kernel refuses the latter
    n = 16
    samples = _asymmetric(FullGridSpec((n,)).axis(0)[:, None])
    x = np.concatenate([FullGridSpec((n,)).axis(0), _sweep_points(200, 1)[:, 0]])
    if (gamma * TWO_PI / n) ** 2 < sys.float_info.min:
        with pytest.raises(ValueError, match="smallest normal"):
            from_samples(samples, (m,), (gamma,))
        return
    q = from_samples(samples, (m,), (gamma,))
    assert np.all(np.isfinite(evaluate(q, x)))


@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_blocks_change_no_value(case):
    # each slice has its own block partition; concatenated, the slices give
    # the bits of the whole batch
    qs, pts = _BLOCK_CASES[case]()
    n = len(pts)
    assert len(_blocks(qs, n)) > 1
    cuts = [0, 2, 9, n // 3, n // 3 + 2, n - 1000, n]
    whole = evaluate_many(qs, pts)
    parts = [evaluate_many(qs, pts[a:b]) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(whole, np.concatenate(parts, axis=1))


@pytest.mark.parametrize("case", ["spanning_1d", "full3d_mixed", "sparse3d"])
def test_blocks_and_slices_keep_the_bits_of_one_product(monkeypatch, case):
    # the dense products of a lone block and a lone slice per block are the
    # single BLAS call over every point that evaluation made before it was
    # blocked; a BLAS row's rounding may depend on its offset in the call,
    # which the block and slice sizes keep modulo the row tile
    qs, pts = {"spanning_1d": _spanning_1d, **_BLOCK_CASES}[case]()
    assert any(_spans(c, int(np.argmax(c.grid.counts)))
               for q in qs for _, c in qi._components(q)[1])
    blocked = evaluate_many(qs, pts)
    monkeypatch.setattr(qi, "_BLOCKS", 1)
    monkeypatch.setattr(qi, "_WINDOW_ELEMS", 1 << 40)
    monkeypatch.setattr(qi, "_GEMM_ELEMS", 1 << 40)
    assert len(_blocks(qs, len(pts))) == 1
    assert np.array_equal(evaluate_many(qs, pts), blocked)
    monkeypatch.setattr(qi, "_GEMM_ELEMS", 1)  # one row tile per slice
    assert np.array_equal(evaluate_many(qs, pts), blocked)


@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_threads_change_no_value_and_none_outlive_the_call(monkeypatch, case):
    qs, pts = _BLOCK_CASES[case]()
    monkeypatch.setattr(qi, "_usable_cpus", lambda: 1)
    inline = evaluate_many(qs, pts)
    for cpus in (2, 3):
        monkeypatch.setattr(qi, "_usable_cpus", lambda: cpus)
        threads = threading.active_count()
        assert np.array_equal(evaluate_many(qs, pts), inline), cpus
        assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_blocks_run_inline_or_on_min_blocks_cpus_workers(monkeypatch, cpus):
    qs, pts = _level_sweep(2, (6, 7))
    blocks = _blocks(qs, len(pts))
    ran = []
    run_block = qi._evaluate_block

    def recording(*args):
        ran.append(threading.get_ident())
        run_block(*args)

    monkeypatch.setattr(qi, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(qi, "_evaluate_block", recording)
    evaluate_many(qs, pts)
    assert len(ran) == len(blocks) == 4
    if cpus == 1:
        assert set(ran) == {threading.get_ident()}
    else:
        assert threading.get_ident() not in ran
        assert 1 <= len(set(ran)) <= min(cpus, len(blocks))


def test_1d_blocks_run_on_the_calling_thread(monkeypatch):
    # 1D blocks gain nothing from a pool, so they run inline at any CPU count
    qs, pts = _table1_sweep()
    ran = []
    run_block = qi._evaluate_block

    def recording(*args):
        ran.append(threading.get_ident())
        run_block(*args)

    monkeypatch.setattr(qi, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(qi, "_evaluate_block", recording)
    threads = threading.active_count()
    evaluate_many(qs, pts)
    assert len(ran) == len(_blocks(qs, len(pts))) > 1
    assert set(ran) == {threading.get_ident()}
    assert threading.active_count() == threads


@pytest.mark.parametrize("d", [1, 3])
def test_empty_point_batch(d):
    qs = [build_full(_asymmetric, 16, d, 2, 1.0),
          build_sparse(_asymmetric, SparseGridSpec(4, d), 1, 0.8)]
    pts = np.empty((0, d))
    assert evaluate_many(qs, pts).shape == (2, 0)
    for q in qs:
        assert evaluate(q, pts).shape == evaluate_dense(q, pts).shape == (0,)


def test_a_failing_block_raises_and_leaves_no_thread(monkeypatch):
    qs, pts = _level_sweep(2, (6, 7))
    run_block = qi._evaluate_block
    seen = []

    def failing(*args):
        seen.append(None)
        if len(seen) == 2:
            raise NumericsError("block failed")
        run_block(*args)

    monkeypatch.setattr(qi, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(qi, "_evaluate_block", failing)
    threads = threading.active_count()
    with pytest.raises(NumericsError, match="block failed"):
        evaluate_many(qs, pts)
    assert threading.active_count() == threads


@pytest.mark.parametrize("count", [0, 1, 1023, 2047, 2048, 4097, 8192, 8193, 100_000])
@pytest.mark.parametrize("rest", [1, 64, 4096, 1 << 20])
@pytest.mark.parametrize("height", [1, 31, 4096])
def test_point_blocks_partition(count, rest, height):
    blocks = qi._point_blocks(count, rest, height)
    if count == 0:
        assert blocks == []
        return
    assert blocks[0].start == 0 and blocks[-1].start < count <= blocks[-1].stop
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    size = blocks[0].stop - blocks[0].start
    # the chords and one kernel's values share the window budget, which
    # never cuts a block below one row tile
    cap = min(qi._CHUNK_ELEMS // rest, max(qi._ROW_TILE, qi._WINDOW_ELEMS // (2 * height)))
    assert size <= max(1, cap)
    assert 2 * size * height <= max(qi._WINDOW_ELEMS, 2 * qi._ROW_TILE * height)
    if len(blocks) > 1 and cap >= qi._ROW_TILE:
        assert size % qi._ROW_TILE == 0
    if cap >= count:
        # quarters, or fewer blocks of at least _MIN_BLOCK points
        assert len(blocks) == min(4, max(1, count // qi._MIN_BLOCK))


def test_1d_window_arrays_stay_within_the_budget():
    # table1's three kernels at N = 8192 (32,769 offset points): a block's
    # chords and a kernel's values hold at most _WINDOW_ELEMS elements
    # together, the last kernel spends the chords as its scratch, and an
    # earlier one's new scratch is at most half the budget (another half
    # covers the block's per-point rows); only the output rows and the
    # reduced points grow with the point count.  Three arrays of up to
    # _WINDOW_ELEMS elements each, as blocks held before, pass the bound
    import tracemalloc

    from torusqi.analysis import offset_eval_axis

    qs = _kernel_sweep((8192,), [((0,), (0.8,)), ((1,), (1.0,)), ((2,), (1.5,))])
    pts = offset_eval_axis(8192)[:, None]
    assert len(_blocks(qs, len(pts))) > qi._BLOCKS
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evaluate_many(qs, pts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * (2 * qi._WINDOW_ELEMS + (len(qs) + 1) * len(pts))


@pytest.mark.parametrize("n", [16, 256])
def test_window_budget_changes_no_value(monkeypatch, n):
    # m = 2 spans 16 nodes, a dense product that BLAS rounds by row tile,
    # and is truncated on 256; a budget of 127 points (the chords and one
    # kernel's values, 2 x 127 x height elements) rounds down to 64-point
    # blocks, and one past the points leaves a single block
    qs = _kernel_sweep((n,), [((2,), (1.0,))])
    assert _spans(qs[0], 0) == (n == 16)
    pts = _sweep_points(2000, 1)
    height = min(2 * qs[0].stencil_halfwidths[0] + 1, n)
    monkeypatch.setattr(qi, "_WINDOW_ELEMS", 2 * 127 * height)
    assert {b.stop - b.start for b in _blocks(qs, len(pts))} == {64}
    small = evaluate_many(qs, pts)
    monkeypatch.setattr(qi, "_WINDOW_ELEMS", 1 << 40)
    assert len(_blocks(qs, len(pts))) == 1
    assert np.array_equal(_bits(small), _bits(evaluate_many(qs, pts)))


# ---------------------------------------------------------------------------
# Stencils
# ---------------------------------------------------------------------------

def test_stencil_halfwidth_properties():
    N = 256
    spacing = TWO_PI / N
    hw1 = stencil_halfwidth(KernelParams(0, 1.0 * spacing), N)
    hw2 = stencil_halfwidth(KernelParams(0, 2.0 * spacing), N)
    assert 1 <= hw1 < hw2 <= N // 2
    # c comparable to the period spans the whole grid
    assert stencil_halfwidth(KernelParams(0, 3.0), 8) == 4


def test_stencil_covers_envelope():
    # kernel values outside the stencil window are below 1e-15 of the peak
    N = 128
    spacing = TWO_PI / N
    for m in (0, 1, 2):
        p = KernelParams(m, 1.5 * spacing)
        hw = stencil_halfwidth(p, N)
        from torusqi.kernel import psi_restricted

        peak = abs(psi_restricted(p, 0.0))
        alphas = spacing * np.arange(hw + 1, N // 2 + 1)
        if alphas.size:
            assert np.max(np.abs(psi_restricted(p, alphas))) <= 1e-15 * peak
