import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torusqi.cli import _build_parser, main
from torusqi.specfun import NumericsError

TWO_PI = 2.0 * math.pi


def run(args):
    return main(args)


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_row_contract(tmp_path):
    out = tmp_path / "t.csv"
    code = run(
        ["table1", "--p", "6", "--m", "0", "--gamma", "1.0",
         "--nmin", "32", "--nmax", "64", "--out", str(out)]
    )
    assert code == 0
    path = tmp_path / "t_m0.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "N,h,gamma,err_linf,rate_linf,err_l2,rate_l2"
    assert len(lines) == 3  # header + two rows
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[0] == "32" and second[0] == "64"
    assert first[4] == ""  # no rate on the first row
    assert float(second[4]) == pytest.approx(2.0, abs=0.5)


def test_table1_deterministic_bytes(tmp_path):
    args = ["table1", "--p", "6", "--m", "1", "--gamma", "0.8,1.2",
            "--nmin", "32", "--nmax", "64"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert (tmp_path / "a_m1.csv").read_bytes() == (tmp_path / "b_m1.csv").read_bytes()


def test_table1_at_a_tiny_shape_exits_0(tmp_path):
    # at m = 8, gamma = 1e-20 the kernel's Laguerre factor at the far nodes
    # overflows double range before exp(-u) = 0 multiplies it; the operator's
    # values are finite, so the table is written
    out = tmp_path / "t.csv"
    assert run(["table1", "--p", "6", "--m", "8", "--gamma", "1e-20",
                "--nmin", "32", "--nmax", "64", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (tmp_path / "t_m8.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2 and all(math.isfinite(float(row[3])) for row in rows)


def test_table1_reproduces_capture(tmp_path):
    # README command, captured before the (m, gamma) sweep was evaluated in
    # one call per N
    out = tmp_path / "t.csv"
    assert run(["table1", "--p", "6", "--m", "0,1,2", "--gamma", "0.6,0.8,1.0,1.5",
                "--nmin", "32", "--nmax", "512", "--out", str(out)]) == 0
    for m in (0, 1, 2):
        capture = Path(__file__).parent / "data" / f"table1_m{m}.csv"
        assert (tmp_path / f"t_m{m}.csv").read_bytes() == capture.read_bytes()


@pytest.mark.parametrize("stem, flags", [
    # the benchmark's table1 flags
    ("table1_n8192", ["--p", "6", "--m", "0,1,2", "--gamma", "0.6,0.8,1.0,1.5",
                      "--nmin", "32", "--nmax", "8192"]),
    # no reference levels: gamma is chosen at the finest N
    ("table1_p4", ["--p", "4", "--m", "0,1", "--gamma", "0.6,1.5",
                   "--nmin", "32", "--nmax", "1024"]),
])
def test_table1_reproduces_capture_beyond_the_choice(tmp_path, stem, flags):
    # captured when every (m, gamma) was evaluated at every N; past the N's
    # that choose gamma only the chosen one is, with the same bytes
    out = tmp_path / f"{stem}.csv"
    assert run(["table1", *flags, "--out", str(out)]) == 0
    ms = flags[flags.index("--m") + 1].split(",")
    for m in ms:
        capture = Path(__file__).parent / "data" / f"{stem}_m{m}.csv"
        assert (tmp_path / f"{stem}_m{m}.csv").read_bytes() == capture.read_bytes()


@pytest.mark.parametrize("p, sweep_ns", [("6", (32, 64, 128, 256, 512)), ("4", (8192,))])
def test_table1_sweeps_gamma_only_where_the_choice_reads_it(tmp_path, monkeypatch, p,
                                                            sweep_ns):
    # the 12 (m, gamma) interpolants are evaluated at the N's with reference
    # levels (p = 6) or else at the finest N; elsewhere only each order's
    # chosen gamma is
    import torusqi.cli as cli_mod

    real = cli_mod.evaluate_many
    rows: dict[int, int] = {}

    def counted(qs, pts):
        n = (len(pts) - 1) // 4
        rows[n] = rows.get(n, 0) + len(qs)
        return real(qs, pts)

    monkeypatch.setattr(cli_mod, "evaluate_many", counted)
    assert run(["table1", "--p", p, "--m", "0,1,2", "--gamma", "0.6,0.8,1.0,1.5",
                "--nmin", "32", "--nmax", "8192", "--out", str(tmp_path / "t.csv")]) == 0
    ns = [32 * 2**k for k in range(9)]
    assert rows == {n: 12 if n in sweep_ns else 3 for n in ns}


def test_table1_repeated_values_write_one_table(tmp_path):
    base = ["table1", "--nmin", "32", "--nmax", "64"]
    assert run(base + ["--m", "1", "--gamma", "0.8", "--out", str(tmp_path / "a.csv")]) == 0
    assert run(base + ["--m", "1,1", "--gamma", "0.8,0.8",
                       "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a_m1.csv").read_bytes() == (tmp_path / "b_m1.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--m", "0,9", "--nmin", "32", "--nmax", "64"],
        ["table1", "--m", "0", "--gamma", "1.0,9.5", "--nmin", "32", "--nmax", "64"],
        ["conv2d", "--m", "0,9", "--nmin", "16", "--nmax", "32"],
    ],
)
def test_invalid_later_value_writes_nothing(tmp_path, argv):
    # every table is computed and checked before the first file is written
    assert run(argv + ["--out", str(tmp_path / "t.csv")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_table1_number_format(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["table1", "--m", "0", "--nmin", "32", "--nmax", "32",
                "--out", str(out)]) == 0
    row = (tmp_path / "t_m0.csv").read_text().splitlines()[1].split(",")
    # 12 significant digits, scientific
    mantissa = row[3].split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) == 12


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["table1", "--bogus", "1"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# flags of each subcommand
# ---------------------------------------------------------------------------

FLAG_DEFAULTS = {
    "table1": dict(p=6, m=(0, 1, 2), gamma=(1.0,), nmin=32, nmax=512,
                   out=Path("table1.csv")),
    "conv2d": dict(p=6, m=(0, 1, 2), gamma=1.0, nmin=16, nmax=256,
                   out=Path("conv2d.csv")),
    "sparse": dict(p=6, m=0, gamma=1.0, dims=3, levels=(3, 8), seed=0x5EED,
                   out=Path("sparse.dat")),
    "strangfix": dict(m=(0, 1, 2), gamma=1.0, nmin=64, nmax=512,
                      out=Path("strangfix.dat")),
    "kernel": dict(m=0, gamma=1.0, nmin=8, nmax=64, out=Path("kernel.dat")),
}


@pytest.mark.parametrize("sub", sorted(FLAG_DEFAULTS))
def test_subcommand_flags_and_defaults(sub):
    args = vars(_build_parser().parse_args([sub]))
    assert args == {"subcommand": sub, **FLAG_DEFAULTS[sub]}
    for name, value in FLAG_DEFAULTS[sub].items():
        assert type(args[name]) is type(value), name


# flags a subcommand does not read; each used to be accepted and ignored
@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--dims", "3"],
        ["table1", "--levels", "3..8"],
        ["table1", "--seed", "5EED"],
        ["conv2d", "--dims", "3"],
        ["conv2d", "--levels", "3..8"],
        ["conv2d", "--seed", "5EED"],
        ["sparse", "--nmin", "32"],
        ["sparse", "--nmax", "32"],
        ["strangfix", "--p", "6"],
        ["strangfix", "--dims", "3"],
        ["strangfix", "--levels", "3..8"],
        ["strangfix", "--seed", "5EED"],
        ["kernel", "--p", "6"],
        ["kernel", "--dims", "3"],
        ["kernel", "--levels", "3..8"],
        ["kernel", "--seed", "5EED"],
    ],
    ids=" ".join,
)
def test_unread_flag_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# flags read as one value; each used to take a list and keep its first item
@pytest.mark.parametrize(
    "argv",
    [
        ["conv2d", "--gamma", "0.8,1.5"],
        ["sparse", "--m", "1,2"],
        ["sparse", "--gamma", "0.8,1.5"],
        ["strangfix", "--gamma", "0.8,1.5"],
        ["kernel", "--m", "1,2"],
        ["kernel", "--gamma", "0.8,1.5"],
    ],
    ids=" ".join,
)
def test_scalar_flag_rejects_list(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err


# values the subcommands' own parsers reject, each with its message
@pytest.mark.parametrize(
    "argv, message",
    [
        (["table1", "--m", "0,a"], "expected comma-separated ints: 0,a"),
        (["table1", "--gamma", "x"], "expected comma-separated floats: x"),
        (["sparse", "--levels", "3-8"], "expected A..B level range: 3-8"),
        (["sparse", "--seed", "zz"], "expected a hex seed: zz"),
    ],
    ids=["m", "gamma", "levels", "seed"],
)
def test_malformed_value_exits_2_with_its_message(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_invalid_value_returns_2(tmp_path):
    out = tmp_path / "t.csv"
    # gamma outside the supported range surfaces as invalid arguments
    assert run(["table1", "--m", "0", "--gamma", "9.5", "--nmin", "32",
                "--nmax", "32", "--out", str(out)]) == 2
    assert run(["table1", "--m", "0", "--nmin", "33", "--nmax", "64",
                "--out", str(out)]) == 2
    assert run(["sparse", "--levels", "5..2", "--out", str(out)]) == 2
    assert run(["table1", "--m", "0", "--nmin", "64", "--nmax", "32",
                "--out", str(out)]) == 2
    assert run(["sparse", "--dims", "0", "--out", str(out)]) == 2
    assert run(["table1", "--p", "0", "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_write_error_leaves_no_table_behind(tmp_path, capsys):
    # the second order's path is a directory: the first order's table must
    # not be renamed into place, and no temporary file may stay
    (tmp_path / "x_m1.csv").mkdir()
    assert run(["table1", "--m", "0,1", "--nmin", "32", "--nmax", "64",
                "--out", str(tmp_path / "x.csv")]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x_m1.csv"]
    assert list((tmp_path / "x_m1.csv").iterdir()) == []
    assert run(["table1", "--m", "0", "--nmin", "32", "--nmax", "64",
                "--out", str(tmp_path / "x.csv")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x_m0.csv", "x_m1.csv"]


def test_numerical_failure_returns_3(tmp_path, monkeypatch):
    import torusqi.cli as cli_mod

    def boom(cfg):
        raise NumericsError("synthetic failure")

    monkeypatch.setitem(cli_mod._RUNNERS, "table1", boom)
    assert run(["table1", "--out", str(tmp_path / "t.csv")]) == 3


@pytest.mark.parametrize("p", ["6", "4"])  # with and without reference levels
def test_zero_error_exits_3(tmp_path, monkeypatch, capsys, p):
    import torusqi.cli as cli_mod

    monkeypatch.setattr(cli_mod, "error_norms", lambda *args: (0.0, 0.0, 0.0, 0.0))
    out = tmp_path / "t.csv"
    assert run(["table1", "--p", p, "--m", "0", "--nmin", "32", "--nmax", "64",
                "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "t_m0.csv").exists()


# ---------------------------------------------------------------------------
# strangfix
# ---------------------------------------------------------------------------

def test_strangfix_orders(tmp_path):
    out = tmp_path / "sf.dat"
    code = run(["strangfix", "--m", "0,1", "--gamma", "1.0",
                "--nmin", "64", "--nmax", "256", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m gamma ell order saturation_max aliasing_max"
    rows = [ln.split() for ln in lines[1:]]
    assert len(rows) == 6  # two orders x three probes
    for row in rows:
        m = int(row[0])
        assert float(row[3]) == pytest.approx(2 * m + 2, abs=0.15)


def test_strangfix_repeated_order_writes_its_rows_once(tmp_path):
    # --m is deduplicated as table1 and conv2d deduplicate it
    out = tmp_path / "sf.dat"
    assert run(["strangfix", "--m", "1,1", "--nmin", "64", "--nmax", "128",
                "--out", str(out)]) == 0
    rows = [ln.split() for ln in out.read_text().splitlines()[1:]]
    assert [(row[0], row[2]) for row in rows] == [("1", "1"), ("1", "2"), ("1", "3")]


def test_strangfix_alias_band_from_n_over_2_exits_0(tmp_path):
    # --nmax 128 puts ell = 64..192 in the alias band, so this run passes
    # the coefficient at ell = 65 through the finite check
    out = tmp_path / "sf.dat"
    assert run(["strangfix", "--m", "0", "--nmin", "64", "--nmax", "128",
                "--out", str(out)]) == 0
    rows = [ln.split() for ln in out.read_text().splitlines()[1:]]
    assert [row[5] for row in rows] == ["7.22158506936e-03"] * 3


def test_strangfix_saturated_residual_exits_3(tmp_path, capsys):
    out = tmp_path / "sf.dat"
    assert run(["strangfix", "--m", "6", "--gamma", "1", "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_strangfix_non_finite_jet_exits_3(tmp_path, monkeypatch, capsys):
    from torusqi import specfun

    monkeypatch.setattr(specfun, "_miller_table", lambda z, size: (math.nan,) * (size + 1))
    out = tmp_path / "sf.dat"
    assert run(["strangfix", "--m", "2", "--nmin", "64", "--nmax", "128",
                "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_strangfix_non_finite_alias_coefficient_exits_3(tmp_path, monkeypatch, capsys):
    from torusqi import kernel

    real = kernel.psi_fourier_analytic
    monkeypatch.setattr(kernel, "psi_fourier_analytic",
                        lambda p, ell: np.where(np.abs(ell) > 40, math.nan, real(p, ell)))
    out = tmp_path / "out" / "sf.dat"
    assert run(["strangfix", "--m", "0", "--nmin", "64", "--nmax", "128",
                "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.parent.exists()


def test_strangfix_one_non_finite_alias_coefficient_exits_3(tmp_path, monkeypatch, capsys):
    # the alias band is ell = 64..192, computed in one call; a NaN inside
    # the band must be caught and named by its frequency
    from torusqi import kernel

    real = kernel.psi_fourier_analytic
    monkeypatch.setattr(kernel, "psi_fourier_analytic",
                        lambda p, ell: np.where(ell == 65, math.nan, real(p, ell)))
    out = tmp_path / "out" / "sf.dat"
    assert run(["strangfix", "--m", "0", "--nmin", "64", "--nmax", "128",
                "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "ell=65" in err
    assert not out.parent.exists()


# ---------------------------------------------------------------------------
# kernel dump
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "flags, psi_sha256, psihat_sha256",
    [
        (["--m", "1", "--gamma", "1.2732", "--nmin", "8", "--nmax", "64"],
         "a608f5ea2449a1f6b6b86a00ed754a6050e4d0896520cc6438dd6520115863d9",
         "82871c8b860efa78f6cce80ec64030f8c3023ab79c68e375a6e8c6c12991db00"),
        (["--m", "8", "--gamma", "3.0", "--nmin", "16", "--nmax", "4096"],
         "ecabde7e7f80665e853d65f1a4513aae566f9e3e06421a53516e213f33b12e6d",
         "159b6d9fd076412e8beae2b77822c5515ff5994d9d055a1585a39f334a030495"),
    ],
    ids=["readme-m1", "m8-nmax4096"],
)
def test_kernel_dump_reproduces_capture(tmp_path, flags, psi_sha256, psihat_sha256):
    # SHA-256 of both files, captured before every table went through one writer
    assert run(["kernel", *flags, "--out", str(tmp_path / "k.dat")]) == 0
    digest = {name: hashlib.sha256((tmp_path / f"k_{name}.dat").read_bytes()).hexdigest()
              for name in ("psi", "psihat")}
    assert digest == {"psi": psi_sha256, "psihat": psihat_sha256}


def test_kernel_dump_profile_integrates_to_coefficient(tmp_path):
    out = tmp_path / "k.dat"
    # c = gamma 2 pi / nmin = 1.0 with gamma = 4/pi, nmin = 8
    gamma = 4.0 / math.pi
    code = run(["kernel", "--m", "0", "--gamma", f"{gamma:.17g}",
                "--nmin", "8", "--nmax", "16", "--out", str(out)])
    assert code == 0
    psi = np.loadtxt(tmp_path / "k_psi.dat", skiprows=1)
    hat = np.loadtxt(tmp_path / "k_psihat.dat", skiprows=1)
    integral = np.trapezoid(psi[:, 1], psi[:, 0])
    assert integral == pytest.approx(hat[0, 1], abs=1e-9)
    assert hat.shape[0] == 17


def test_shape_constant_is_rounded_as_the_interpolant_rounds_it(tmp_path, monkeypatch):
    # c = gamma (2 pi / N) everywhere: at N = 48 the other association,
    # (gamma 2 pi) / N, differs from it in the last bit
    from torusqi import cli as cli_mod
    from torusqi import kernel
    from torusqi.qi import from_samples

    def c_of(n):
        return from_samples(np.zeros(n), [1], [1.0186]).params[0].c

    seen = []

    def recording(original):
        def record(p, *args):
            seen.append(p)
            return original(p, *args)

        return record

    monkeypatch.setattr(kernel, "psi_fourier_analytic",
                        recording(kernel.psi_fourier_analytic))
    kernel.strang_fix_certify(1, 1.0186, [48, 96], [1])
    assert {p.c for p in seen} == {c_of(48), c_of(96)}
    seen.clear()
    monkeypatch.setattr(cli_mod, "psi_restricted", recording(cli_mod.psi_restricted))
    assert run(["kernel", "--m", "1", "--gamma", "1.0186", "--nmin", "48",
                "--nmax", "4", "--out", str(tmp_path / "k.dat")]) == 0
    assert [p.c for p in seen] == [c_of(48)]


@pytest.mark.parametrize(
    "flags",
    [["--nmin", "0"], ["--nmax", "5000"], ["--nmax", "-1"]],
    ids=" ".join,
)
def test_kernel_range_flags_exit_2_before_writing(tmp_path, capsys, flags):
    assert run(["kernel", *flags, "--out", str(tmp_path / "k.dat")]) == 2
    assert "invalid arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, field", [("psi_restricted", "psi"),
                                         ("psi_fourier_analytic", "psi_hat")])
def test_kernel_non_finite_values_exit_3_before_writing(tmp_path, monkeypatch, capsys, name,
                                                        field):
    from torusqi import cli as cli_mod

    real = getattr(cli_mod, name)

    def inf_at_m8(p, arg):
        value = real(p, arg)
        return value * math.inf if p.m == 8 else value

    monkeypatch.setattr(cli_mod, name, inf_at_m8)
    out = tmp_path / "out" / "k.dat"
    assert run(["kernel", "--m", "8", "--out", str(out)]) == 3
    assert f"numerical failure: non-finite {field} = " in capsys.readouterr().err
    assert not out.parent.exists()
    assert run(["kernel", "--m", "2", "--out", str(out)]) == 0


# ---------------------------------------------------------------------------
# conv2d and sparse smoke runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "flags, evaluator",
    [
        pytest.param(["table1", "--m", "0", "--nmin", "32", "--nmax", "64"],
                     "evaluate_many", id="table1"),
        pytest.param(["conv2d", "--m", "0", "--nmin", "16", "--nmax", "32"],
                     "evaluate_many", id="conv2d"),
        pytest.param(["sparse", "--dims", "2", "--levels", "2..3"],
                     "evaluate_sparse_product_levels", id="sparse"),
    ],
)
def test_non_finite_approximant_exits_3_before_writing(tmp_path, monkeypatch, capsys, flags,
                                                       evaluator):
    import torusqi.cli as cli_mod

    real = getattr(cli_mod, evaluator)

    def nan_in_first_value(*args):
        values = real(*args)
        values[0, 0] = math.nan
        return values

    monkeypatch.setattr(cli_mod, evaluator, nan_in_first_value)
    out = tmp_path / "out" / "t.dat"
    assert run([*flags, "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.parent.exists()


def test_conv2d_smoke(tmp_path):
    out = tmp_path / "c.csv"
    code = run(["conv2d", "--m", "0", "--gamma", "1.0",
                "--nmin", "16", "--nmax", "32", "--out", str(out)])
    assert code == 0
    lines = (tmp_path / "c_m0.csv").read_text().splitlines()
    assert lines[0] == "N,h,gamma,err_linf,rate_linf,err_l2,rate_l2"
    assert len(lines) == 3
    errs = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert errs[1] < errs[0]


def test_conv2d_frees_each_grid(tmp_path):
    # one table entry's (4N+1)^2 approximant and reference take two grids
    # at N = 512; keeping the grids of earlier entries alive passes three
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code = run(["conv2d", "--m", "0,1,2", "--nmin", "16", "--nmax", "512",
                    "--out", str(tmp_path / "c.csv")])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3 * (4 * 512 + 1) ** 2 * 8


def test_conv2d_streams_below_one_grid(tmp_path):
    # the errors are reduced one row block at a time, so no (4N+1)^2
    # array exists; materializing the approximant alone takes one grid
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code = run(["conv2d", "--m", "0,1,2", "--nmin", "16", "--nmax", "512",
                    "--out", str(tmp_path / "c.csv")])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < (4 * 512 + 1) ** 2 * 8


def _conv2d_factors(m: int, gamma: float, n: int):
    """g_p's node samples, the offset axis, u and g_p there, as conv2d takes them."""
    from torusqi.analysis import gp_eval, make_gp, offset_eval_axis
    from torusqi.grid import FullGridSpec
    from torusqi.qi import evaluate, from_samples

    g1 = make_gp(6, 1)
    a = gp_eval(g1, FullGridSpec((n,)).axis(0))
    ax = offset_eval_axis(n)
    u = evaluate(from_samples(a, (m,), (gamma,)), ax[:, None])
    return a, ax, u, gp_eval(g1, ax)


def _errors_2d_peak(n: int, m: int = 2) -> int:
    _, _, u, g = _conv2d_factors(m, 1.5, n)
    return _traced_errors_2d_peak(u, g)


def _traced_errors_2d_peak(u: np.ndarray, g: np.ndarray) -> int:
    import tracemalloc

    from torusqi.cli import _errors_2d

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _errors_2d(u, g)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_conv2d_error_grid_holds_no_n_by_4n_intermediate():
    # the maximum forms only the rows and columns whose bound can reach it,
    # in row blocks of at most about 2^20 values, so one N = 1024 error
    # grid peaks below an N x (4N+1) array
    n = 1024
    assert _errors_2d_peak(n) < n * (4 * n + 1) * 8


@pytest.mark.parametrize("m", [0, 1, 2])
def test_conv2d_linf_forms_only_the_entries_that_can_reach_it(m):
    # at the benchmark's gamma = 1.5 and N = 1024 at most 182 rows and 18
    # columns of the 4097^2 grid can hold its maximum (0.33 MB measured);
    # scanning every row block of the whole grid peaks at 16.75 MB
    assert _errors_2d_peak(1024, m) < 1_000_000


def test_conv2d_linf_of_a_zero_error_scans_in_row_blocks():
    # u = g gives L = 0, so every row and column is kept; the row blocks
    # keep the peak near two blocks of 2^20 values (17.05 MB measured),
    # where one (4N+1)^2 grid at N = 2048 takes 537 MB
    from torusqi.analysis import gp_eval, make_gp, offset_eval_axis

    g = gp_eval(make_gp(6, 1), offset_eval_axis(2048))
    assert _traced_errors_2d_peak(g, g.copy()) < 20_000_000


def test_conv2d_errors_hold_no_n_by_n_array(tmp_path):
    # conv2d's errors come from 1D factors, so at N = 2048 neither they
    # nor the command's one-N run hold an N x N array, such as the samples
    # of a 2D interpolant
    import tracemalloc

    n = 2048
    assert _errors_2d_peak(n) < n * n * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code = run(["conv2d", "--m", "2", "--gamma", "1.5", "--nmin", str(n),
                    "--nmax", str(n), "--out", str(tmp_path / "c.csv")])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < n * n * 8


@pytest.mark.parametrize("gamma", [0.5, 1.5])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_conv2d_errors_match_the_2d_interpolant(m, gamma):
    # the interpolant of G_p's N x N samples is u x u, with u the 1D
    # interpolant of one axis's samples; the referee is the 2D grid engine
    # on the outer-product samples, and its error grid's norms
    from torusqi.cli import _errors_2d
    from torusqi.qi import evaluate_on_grid, from_samples

    for n in (16, 32, 64, 128):
        a, ax, u, g = _conv2d_factors(m, gamma, n)
        grid = evaluate_on_grid(from_samples(np.outer(a, a), (m, m), (gamma, gamma)), [ax, ax])
        assert np.max(np.abs(np.outer(u, u) - grid)) <= 1e-14 * np.max(np.abs(grid)), (m, n)
        diff = grid - np.outer(g, g)
        linf = float(np.max(np.abs(diff)))
        l2 = math.sqrt(np.mean(diff**2) * TWO_PI**2)
        got_linf, got_l2 = _errors_2d(u, g)
        assert abs(got_linf - linf) <= 1e-14, (m, n)
        assert abs(got_l2 - l2) <= 1e-14, (m, n)


def _full_scan_linf(u: np.ndarray, g: np.ndarray) -> float:
    """max |e_i u_j + g_i e_j| over the whole grid, in row blocks."""
    e = u - g
    step = max(1, (1 << 20) // u.size)
    err = 0.0
    for start in range(0, u.size, step):
        rows = slice(start, start + step)
        block = np.multiply.outer(e[rows], u)
        block += np.multiply.outer(g[rows], e)
        err = np.maximum(err, np.abs(block, out=block).max())
    return float(err)


def _linf_battery():
    """(name, u, g) pairs that stress the pruning bounds of the maximum."""
    rng = np.random.default_rng(20241)
    cases = []
    for k in range(60):
        n = int(rng.integers(1, 200))
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 3)
        u = g + rng.standard_normal(n) * 10.0 ** rng.integers(-12, 0)
        cases.append((f"random{k}", u, g))
        cases.append((f"equal{k}", g.copy(), g))
        cases.append((f"negated{k}", -g, g))
        ulp = g.copy()
        flip = rng.random(n) < 0.5
        ulp[flip] = np.nextafter(g[flip], np.inf)
        cases.append((f"ulp{k}", ulp, g))
        ties_g = rng.integers(-3, 4, n).astype(float)
        cases.append((f"ties{k}", ties_g + rng.integers(-1, 2, n), ties_g))
        const = np.full(n, float(rng.standard_normal()))
        cases.append((f"constant{k}", const + rng.standard_normal(n) * 1e-6, const))
        for scale in (1e300, 1e150, 1e-150, 1e-300, 5e-324):
            cases.append((f"scale{scale:g}-{k}", u * scale, g * scale))
        cases.append((f"subnormal{k}", rng.integers(-8, 9, n) * 5e-324,
                      rng.integers(-8, 9, n) * 5e-324))
    return cases


def test_conv2d_linf_is_bitwise_the_full_scan():
    # only entries whose bound can reach the maximum are formed, each with
    # the full scan's two roundings, so the maximum keeps every bit
    from torusqi.cli import _errors_2d

    def same(x, y):
        return repr(x) == repr(y) or (math.isnan(x) and math.isnan(y))

    cases = [(f"m{m}-N{n}", *_conv2d_factors(m, 1.5, n)[2:])
             for m in (0, 1, 2) for n in (16 << k for k in range(7))]
    cases += _linf_battery()
    base_u, base_g = _conv2d_factors(2, 1.5, 16)[2:]
    for bad in (math.nan, math.inf, -math.inf):
        for at in (0, base_u.size // 2, base_u.size - 1):
            for target in ("u", "g"):
                u, g = base_u.copy(), base_g.copy()
                (u if target == "u" else g)[at] = bad
                cases.append((f"{bad}-in-{target}@{at}", u, g))
    with np.errstate(all="ignore"):
        for name, u, g in cases:
            assert same(_errors_2d(u, g)[0], _full_scan_linf(u, g)), name


def test_conv2d_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at these flags the 2D grid engine's threaded GEMMs rounded
    # differently at 1 and 2 BLAS threads (OpenBLAS 0.3.31); conv2d now
    # evaluates 1D factors with no BLAS call and sums without BLAS, so its
    # bytes must not depend on the thread count
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / threads / "c.csv"
        subprocess.run(
            [sys.executable, "-m", "torusqi.cli", "conv2d", "--m", "2", "--gamma", "1.5",
             "--nmin", "512", "--nmax", "1024", "--out", str(out)],
            env=env, check=True,
        )
        outs.append((out.parent / "c_m2.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sparse_smoke(tmp_path):
    out = tmp_path / "s.dat"
    code = run(["sparse", "--dims", "2", "--m", "1", "--gamma", "1.0",
                "--levels", "2..4", "--seed", "5EED", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "level npoints rel_linf rel_l2"
    rows = [ln.split() for ln in lines[1:]]
    assert [int(r[0]) for r in rows] == [2, 3, 4]
    rels = [float(r[2]) for r in rows]
    assert rels[-1] < rels[0]


def test_sparse_2d_sweep_reproduces_capture(tmp_path):
    # captured when the sweep first summed its terms' 1D factors; every
    # level's bytes must stay
    out = tmp_path / "s.dat"
    code = run(["sparse", "--dims", "2", "--m", "2", "--gamma", "1.0",
                "--levels", "8..11", "--out", str(out)])
    assert code == 0
    capture = Path(__file__).parent / "data" / "sparse2d_levels8_11.dat"
    assert out.read_bytes() == capture.read_bytes()



@pytest.mark.parametrize(
    "flags, message",
    [
        (["--levels", "1..30"], "exceeds the 16777216 guard"),
        (["--gamma", "1.5"], "2-point component grids need c = gamma pi <= pi"),
    ],
    ids=" ".join,
)
def test_sparse_guards_exit_2_before_writing(tmp_path, capsys, flags, message):
    out = tmp_path / "out" / "s.dat"
    assert run(["sparse", "--dims", "2", *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.parent.exists()


# ---------------------------------------------------------------------------
# exit codes across the envelope
# ---------------------------------------------------------------------------

# (flags, gamma at the cap min(8, N / 2) of the run's smallest grid, where
# c = gamma 2 pi / N reaches pi): the smallest valid --nmin of each
# subcommand (strangfix probes ell <= 3, which needs N >= 8; kernel takes
# N >= 1), one run per subcommand where gamma 8 is allowed, and sparse
# --dims 1..4 at low levels (their 2-point grids cap gamma at 1)
_EDGES = [
    (["table1", "--nmin", "4", "--nmax", "8"], "2"),
    (["table1", "--nmin", "16", "--nmax", "32"], "8"),
    (["conv2d", "--nmin", "4", "--nmax", "8"], "2"),
    (["strangfix", "--nmin", "8", "--nmax", "16"], "4"),
    (["strangfix", "--nmin", "16", "--nmax", "32"], "8"),
    (["kernel", "--nmin", "1", "--nmax", "256"], "0.5"),
    (["kernel", "--nmin", "16", "--nmax", "0"], "8"),
    (["sparse", "--dims", "1", "--levels", "4..5"], "8"),
] + [(["sparse", "--dims", d, "--levels", "1..3"], "1") for d in ("1", "2", "3", "4")]


@pytest.mark.parametrize(
    "argv",
    [flags[:1] + ["--m", m, "--gamma", gamma] + flags[1:]
     for flags, cap in _EDGES for m in ("0", "8") for gamma in ("0.3", cap)],
    ids=" ".join,
)
def test_envelope_edges_exit_0_with_finite_numbers_or_2_or_3(tmp_path, argv):
    out = tmp_path / "out" / "run.txt"
    try:
        code = run(argv + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3)
    if code == 0:
        written = sorted(out.parent.iterdir())
        assert written
        for path in written:
            for line in path.read_text().splitlines()[1:]:
                for token in line.replace(",", " ").split():
                    assert math.isfinite(float(token)), (path.name, line)


# ---------------------------------------------------------------------------
# imports
# ---------------------------------------------------------------------------

_NO_SCIPY_SCRIPT = """
import sys
import torusqi.cli as cli

out = sys.argv[1]
commands = [
    ["table1", "--m", "0,2", "--gamma", "0.6,1.5", "--nmin", "32", "--nmax", "128"],
    ["conv2d", "--m", "0,2", "--nmin", "16", "--nmax", "32"],
    ["sparse", "--dims", "3", "--levels", "4..5"],
    ["sparse", "--dims", "2", "--levels", "6..7"],
    ["strangfix", "--m", "0,1", "--nmin", "64", "--nmax", "256"],
    ["kernel", "--m", "2"],
]
lazy = ("scipy.", "numpy.polynomial.", "concurrent.futures.", "numpy.ma.")


def loaded():
    return sorted(m for m in sys.modules if (m + ".").startswith(lazy))


seen = {"import": loaded()}
for i, argv in enumerate(commands):
    assert cli.main(argv + ["--out", f"{out}/{i}.txt"]) == 0, argv
    seen[argv[0]] = loaded()
print(seen)
assert not any(seen.values()), seen
"""


def test_cli_commands_import_no_scipy(tmp_path):
    # every command evaluates 1D interpolants only, which sum their windows
    # in numpy on the calling thread; scipy.sparse and concurrent.futures
    # are imported by d >= 2 evaluation alone, scipy.special and
    # numpy.polynomial by the Hankel-quadrature test oracle, and numpy.ma
    # (which np.unique loads) by none
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(list(tmp_path.iterdir())) >= 6
