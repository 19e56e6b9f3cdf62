"""Seeded mutants that the tier-1 tests must kill.

Run from the root of a checkout:

    python3 tools/mutants.py

Each entry of ``MUTANTS`` names a file under ``src/torusqi``, the exact
text to replace (it must occur there exactly once), the replacement, and
the tests that must fail under it.  The named tests first run on an
unmodified copy of the checkout, where all of them must pass.  Then each
mutant is applied to its own temporary copy of ``src/`` (with ``tests/``,
``perfbench/`` and ``pyproject.toml`` beside it), and only its named tests
run there, two mutants at a time with one BLAS thread each.  A test id
without brackets covers every parametrization of that test.

Exit status 1 if an old text no longer matches (a refactor moved the code:
restate the entry), if a named test fails on the unmodified copy, or if a
named test passes under its mutant (the mutant survives it); 0 when every
mutant is killed by every test named for it.  A new test that kills a
seeded mutation gets an entry here.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench")
WORKERS = 2


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/torusqi
    old: str
    new: str
    tests: tuple[str, ...]


_REFEREE = (
    "tests/test_qi.py::test_evaluators_match_the_fourier_series",
    "tests/test_qi.py::test_evaluators_match_the_fourier_series_on_tensor_grids",
    "tests/test_qi.py::test_evaluators_match_the_fourier_series_on_sparse_grids",
)

MUTANTS = (
    Mutant(
        "window-weight",
        "qi.py",
        "        kern *= spacing\n",
        "        kern *= spacing * (1 + 1e-9)\n",
        _REFEREE + (
            "tests/test_qi.py::test_truncated_vs_dense_battery",
            "tests/test_qi.py::test_grid_path_matches_dense",
        ),
    ),
    Mutant(
        # the window's rows summed last to first
        "window-sum-reversed",
        "qi.py",
        "    for k, row in enumerate(win.values):\n",
        "    for k, row in reversed(list(enumerate(win.values))):\n",
        (
            "tests/test_qi.py::test_window_sum_is_bitwise_the_csr_product",
            "tests/test_qi.py::test_1d_rows_are_bitwise_the_csr_product",
            "tests/test_qi.py::test_grid_1d_equals_evaluate_bitwise",
        ),
    ),
    Mutant(
        # a window of -0.0 terms sums to -0.0, where CSR's sum gives +0.0
        "window-sum-from-negative-zero",
        "qi.py",
        "    out = np.zeros(win.center.size)\n",
        "    out = np.full(win.center.size, -0.0)\n",
        ("tests/test_qi.py::test_window_sum_is_bitwise_the_csr_product",),
    ),
    Mutant(
        # one reduction over the window, which numpy sums pairwise when
        # the block holds one point
        "window-sum-by-reduce",
        "qi.py",
        "    out = np.zeros(win.center.size)\n",
        "    terms = ext[win.center + np.arange(len(win.values))[:, None]] * win.values\n"
        "    return np.add.reduce(terms, axis=0, initial=0.0)\n"
        "    out = np.zeros(win.center.size)\n",
        ("tests/test_qi.py::test_window_sum_is_bitwise_the_csr_product",),
    ),
    Mutant(
        # every axis truncated at axis 0's halfwidth
        "halfwidth-of-axis-0",
        "qi.py",
        "            groups.setdefault((r, n), {})[params] = c.stencil_halfwidths[r]\n",
        "            groups.setdefault((r, n), {})[params] = c.stencil_halfwidths[0]\n",
        ("tests/test_qi.py::test_truncated_vs_dense_battery",),
    ),
    Mutant(
        "halfwidth-short",
        "qi.py",
        "    hw = int(math.ceil(alpha_star / (TWO_PI / n_points))) + 1\n",
        "    hw = int(math.ceil(alpha_star / (TWO_PI / n_points))) + (1 if params.m < 3 else -1)\n",
        _REFEREE[1:] + (
            "tests/test_qi.py::test_truncated_vs_dense_battery",
            "tests/test_qi.py::test_grid_path_matches_dense",
        ),
    ),
    Mutant(
        # one Laguerre coefficient enters the Horner loop with its sign flipped
        "horner-coefficient-sign-flipped",
        "kernel.py",
        "        out += signed[-2]\n",
        "        out -= signed[-2]\n",
        (
            "tests/test_kernel.py::test_psi_values",
            "tests/test_kernel.py::test_psi_from_chord_is_psi_restricted_bitwise",
            "tests/test_kernel.py::test_psi_from_chord_in_place_keeps_the_bits_and_the_input",
        ),
    ),
    Mutant(
        "psi-hat-inf-m8",
        "kernel.py",
        "    return out if ells.ndim else float(out[0])\n",
        "    if p.m == 8:\n        out[:] = math.inf\n    return out if ells.ndim else float(out[0])\n",
        (
            "tests/test_cli.py::test_kernel_dump_reproduces_capture",
            "tests/test_kernel.py::test_psi_hat_jet_route_reproduces_capture",
        ),
    ),
    Mutant(
        # every axis's 1D factors read at axis 0's coordinates
        "product-factors-at-axis-0",
        "qi.py",
        "    u = [dict(zip(counts, evaluate_many(qs, x[:, None]))) for x in pts.T]\n",
        "    u = [dict(zip(counts, evaluate_many(qs, pts[:, :1]))) for x in pts.T]\n",
        (
            "tests/test_qi.py::test_product_evaluation_matches_the_generic_sweep",
            "tests/test_qi.py::test_product_evaluation_is_within_its_bound_of_the_exact_sum",
        ),
    ),
    Mutant(
        # the factor sampled only at the finest spec's node counts, which
        # miss a coarser level's in d = 1
        "product-counts-of-the-finest-spec",
        "qi.py",
        "    counts = sorted({n for row in terms for t in row for n in t.grid.counts}, reverse=True)\n",
        "    counts = sorted({n for t in terms[specs.index(max(specs, key=lambda s: s.level))]\n"
        "                     for n in t.grid.counts}, reverse=True)\n",
        ("tests/test_qi.py::test_product_evaluation_matches_the_generic_sweep",),
    ),
    Mutant(
        # a coarser group reads the finer window's rows as if every point had
        # delta = 2 round(x / h_n) - round(x / h_2n) = 0
        "finer-chord-without-delta",
        "qi.py",
        "            pick = np.arange(x.size) + x.size * (2 * base - finer.base + 1)\n",
        "            pick = np.arange(x.size) + x.size\n",
        (
            "tests/test_qi.py::test_rows_built_from_finer_chords_are_bitwise_lone_evaluations",
            "tests/test_qi.py::test_product_evaluation_matches_the_generic_sweep",
        ),
    ),
    Mutant(
        # every group keeps its chords for the group of half its count, also
        # when that group is not the next one built on the axis
        "chords-kept-for-every-group",
        "qi.py",
        "                if (r, n) in halved:\n                    chords[r, n // 2] = made\n",
        "                chords[r, n // 2] = made\n",
        ("tests/test_qi.py::test_chords_outlive_their_group_only_for_the_next_group_of_half_its_count",),
    ),
    Mutant(
        "d1-gamma-check-dropped",
        "qi.py",
        "    if dims == 1:\n        _check_gamma(gamma)\n",
        "    if dims == 1:\n        pass\n",
        ("tests/test_qi.py::test_product_evaluation_raises_the_generic_errors_before_sampling",),
    ),
    Mutant(
        "fsum-to-sum",
        "specfun.py",
        "np.array([math.fsum(row) for row in terms.tolist()])",
        "np.array([sum(row) for row in terms.tolist()])",
        (
            "tests/test_kernel.py::test_psi_hat_jet_route_reproduces_capture",
            "tests/test_kernel.py::test_array_route_is_bitwise_the_scalar_routes",
        ),
    ),
    Mutant(
        "horner-factors-swapped",
        "specfun.py",
        "        acc = _truncated_product(acc, delta)\n",
        "        acc = _truncated_product(delta, acc)\n",
        (
            "tests/test_kernel.py::test_psi_hat_jet_route_reproduces_capture",
            "tests/test_kernel.py::test_array_route_is_bitwise_the_scalar_routes",
        ),
    ),
    Mutant(
        # a lane that converged keeps summing until its floor, and is
        # recorded only if it converges there; past the term cap it falls to
        # the jet route (summing on alone moves no bit: the terms after
        # convergence are below 1e-18 of the sum)
        "series-lane-not-frozen",
        "kernel.py",
        "        stop = converged | ((mag > prev_mag) & (k > 2.0 * q + 10.0))\n",
        "        stop = (mag > prev_mag) & (k > 2.0 * q + 10.0)\n",
        ("tests/test_kernel.py::test_array_route_is_bitwise_the_scalar_routes",),
    ),
    Mutant(
        # every frequency of a call reads the largest bucket's table
        "one-miller-bucket-per-call",
        "specfun.py",
        "        lanes = buckets == size\n",
        "        lanes, size = buckets > 0, int(buckets.max())\n",
        ("tests/test_kernel.py::test_array_route_is_bitwise_the_scalar_routes",),
    ),
    Mutant(
        # a NaN in one row block of the error grid must reach the table
        "nan-in-conv2d-row-block",
        "cli.py",
        "        block += np.multiply.outer(g[rows], e[cols])\n",
        "        block += np.multiply.outer(g[rows], e[cols])\n"
        "        block[0, 0] = np.nan\n",
        (
            "tests/test_cli.py::test_conv2d_smoke",
            "tests/test_cli.py::test_conv2d_errors_match_the_2d_interpolant",
            "tests/test_cli.py::test_conv2d_linf_is_bitwise_the_full_scan",
        ),
    ),
    Mutant(
        # the row bound of the error grid's maximum loses its |g_i| max|e|
        # term, so rows that hold the maximum are dropped
        "conv2d-row-bound-without-g-term",
        "cli.py",
        "        rows = np.flatnonzero((ae * au.max() + ag * ae.max()) * slack >= low)\n",
        "        rows = np.flatnonzero(ae * au.max() * slack >= low)\n",
        ("tests/test_cli.py::test_conv2d_linf_is_bitwise_the_full_scan",),
    ),
    Mutant(
        # the sum of squares loses its cross term 2 (e.g)(e.u)
        "conv2d-cross-term-dropped",
        "cli.py",
        "    sq = dot(e, e) * (dot(u, u) + dot(g, g)) + 2.0 * dot(e, g) * dot(e, u)\n",
        "    sq = dot(e, e) * (dot(u, u) + dot(g, g))\n",
        ("tests/test_cli.py::test_conv2d_errors_match_the_2d_interpolant",),
    ),
    Mutant(
        # each contracted axis lands first, not back at its position r
        "grid-axis-moved-to-front",
        "qi.py",
        "        res = np.moveaxis(vals.reshape((xs[r].size,) + others), 0, r)\n",
        "        res = np.moveaxis(vals.reshape((xs[r].size,) + others), 0, 0)\n",
        (
            "tests/test_qi.py::test_grid_path_banded_battery",
            "tests/test_qi.py::test_grid_takes_empty_and_one_point_axes",
        ),
    ),
    Mutant(
        # axis 0 first: the values hold, but the result is not C-ordered
        "grid-axes-in-forward-order",
        "qi.py",
        "    for r in reversed(range(q.grid.dims)):\n",
        "    for r in range(q.grid.dims):\n",
        ("tests/test_qi.py::test_grid_path_banded_battery",),
    ),
    Mutant(
        # a dense kernel matrix sends every axis to a BLAS GEMM
        "grid-dense-blas-product",
        "qi.py",
        "        vals = mat @ np.moveaxis(res, r, 0).reshape(n, -1)\n",
        "        vals = mat.toarray() @ np.moveaxis(res, r, 0).reshape(n, -1)\n",
        (
            "tests/test_qi.py::test_grid_1d_equals_evaluate_bitwise",
            "tests/test_qi.py::test_grid_bytes_do_not_depend_on_blas_threads",
        ),
    ),
    Mutant(
        # a directory at a later path fails its rename after earlier renames
        "write-directory-check-dropped",
        "cli.py",
        "            if path.is_dir():\n",
        "            if False:\n",
        ("tests/test_cli.py::test_write_error_leaves_no_table_behind",),
    ),
    Mutant(
        # ell = 65 is inside the alias band of a tier-1 run that expects success
        "nan-alias-coefficient",
        "kernel.py",
        "    alias = np.abs(psi_fourier_analytic(p_fine, band))\n",
        "    alias = np.abs(psi_fourier_analytic(p_fine, band))\n"
        "    alias[band == 65] = math.nan\n",
        ("tests/test_cli.py::test_strangfix_alias_band_from_n_over_2_exits_0",),
    ),
    Mutant(
        # a NaN alias coefficient must be named by its frequency, not only
        # refused by the table writer
        "alias-finite-check-dropped",
        "kernel.py",
        "    if not finite.all():\n"
        "        k = int(np.argmin(finite))\n"
        "        raise NumericsError(f\"alias-band coefficient of m={m} at ell={band[k]} is {alias[k]}\")\n",
        "",
        ("tests/test_cli.py::test_strangfix_one_non_finite_alias_coefficient_exits_3",),
    ),
    Mutant(
        "constructor-finite-check-dropped",
        "qi.py",
        "        if not np.all(np.isfinite(samples)):\n"
        "            raise ValueError(\"samples hold a non-finite value\")\n",
        "",
        (
            "tests/test_qi.py::test_constructor_takes_samples_and_one_kernel_per_axis",
            "tests/test_qi.py::test_from_samples_validation",
            "tests/test_qi.py::test_build_rejects_non_finite_samples",
            "tests/test_qi.py::test_product_evaluation_checks_the_factor",
        ),
    ),
    Mutant(
        "shape-scaled",
        "qi.py",
        "        KernelParams(int(m), gamma * (TWO_PI / n))\n",
        "        KernelParams(int(m), gamma * (TWO_PI / n) * (1 - 1e-9))\n",
        _REFEREE,
    ),
    Mutant(
        # blocks sized by the point count alone: window arrays grow with it
        "blocks-ignore-window-height",
        "qi.py",
        "    cap = min(_CHUNK_ELEMS // rest, max(_ROW_TILE, _WINDOW_ELEMS // height))\n",
        "    cap = _CHUNK_ELEMS // rest\n",
        (
            "tests/test_qi.py::test_1d_window_arrays_stay_within_the_budget",
            "tests/test_qi.py::test_point_blocks_partition",
        ),
    ),
    Mutant(
        # a capped block that is not whole row tiles moves a dense row's
        # offset within its BLAS tile
        "blocks-not-whole-tiles",
        "qi.py",
        "        size = max(1, cap - cap % _ROW_TILE if cap >= _ROW_TILE else cap)\n",
        "        size = max(1, cap)\n",
        (
            "tests/test_qi.py::test_window_budget_changes_no_value",
            "tests/test_qi.py::test_point_blocks_partition",
        ),
    ),
)

_OUTCOME = re.compile(r"^(FAILED|ERROR) (\S+)")


def _copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in COPIED:
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _failed_tests(tree: Path, tests) -> tuple[set[str], str]:
    """Ids of the tests that failed or errored in ``tree``, and pytest's output."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE",
         "--no-header", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = {m.group(2) for m in map(_OUTCOME.match, proc.stdout.splitlines()) if m}
    if proc.returncode not in (0, 1):  # usage error or nothing collected
        failed.add("<pytest exit %d>" % proc.returncode)
    return failed, proc.stdout + proc.stderr


def _hit(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def _run_mutant(mutant: Mutant) -> str | None:
    """None if every named test fails under the mutant, else the reason it survives."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
        tree = Path(tmp)
        _copy_checkout(tree)
        target = tree / "src" / "torusqi" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"old text occurs {text.count(mutant.old)} times in {mutant.file}"
        target.write_text(text.replace(mutant.old, mutant.new))
        failed, _ = _failed_tests(tree, mutant.tests)
    survived = [t for t in mutant.tests if not _hit(t, failed)]
    if survived:
        return "survives " + ", ".join(survived)
    return None


def main() -> int:
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="mutant-baseline-") as tmp:
        _copy_checkout(Path(tmp))
        failed, output = _failed_tests(Path(tmp), tests)
    if failed:
        print(output)
        print(f"mutants: the unmodified copy fails {sorted(failed)}", file=sys.stderr)
        return 1
    with ThreadPoolExecutor(WORKERS) as pool:
        verdicts = list(pool.map(_run_mutant, MUTANTS))
    for mutant, verdict in zip(MUTANTS, verdicts):
        print(f"{mutant.name}: {'killed' if verdict is None else 'FAILED, ' + verdict}")
    return 0 if all(v is None for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
