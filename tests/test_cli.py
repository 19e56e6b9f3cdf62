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


def test_invalid_value_returns_2(tmp_path):
    out = tmp_path / "t.csv"
    # gamma outside the supported range surfaces as invalid arguments
    assert run(["table1", "--m", "0", "--gamma", "9.5", "--nmin", "32",
                "--nmax", "32", "--out", str(out)]) == 2
    assert run(["table1", "--m", "0", "--nmin", "33", "--nmax", "64",
                "--out", str(out)]) == 2
    assert run(["sparse", "--levels", "5..2", "--out", str(out)]) == 2


def test_numerical_failure_returns_3(tmp_path, monkeypatch):
    import torusqi.cli as cli_mod

    def boom(cfg):
        raise NumericsError("synthetic failure")

    monkeypatch.setitem(cli_mod._RUNNERS, "table1", boom)
    assert run(["table1", "--out", str(tmp_path / "t.csv")]) == 3


@pytest.mark.parametrize("p", ["6", "4"])  # with and without reference levels
def test_zero_error_exits_3(tmp_path, monkeypatch, capsys, p):
    import torusqi.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_errors_1d", lambda *args: (0.0, 0.0))
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


def test_strangfix_saturated_residual_exits_3(tmp_path, capsys):
    out = tmp_path / "sf.dat"
    assert run(["strangfix", "--m", "6", "--gamma", "1", "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# kernel dump
# ---------------------------------------------------------------------------

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


@pytest.mark.parametrize(
    "flags",
    [["--nmin", "0"], ["--nmax", "5000"], ["--nmax", "-1"]],
    ids=" ".join,
)
def test_kernel_range_flags_exit_2_before_writing(tmp_path, capsys, flags):
    assert run(["kernel", *flags, "--out", str(tmp_path / "k.dat")]) == 2
    assert "invalid arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# conv2d and sparse smoke runs
# ---------------------------------------------------------------------------

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
    # captured before levels were built and evaluated as one sweep; the
    # sweep must reproduce every level's bytes
    out = tmp_path / "s.dat"
    code = run(["sparse", "--dims", "2", "--m", "2", "--gamma", "1.0",
                "--levels", "8..11", "--out", str(out)])
    assert code == 0
    capture = Path(__file__).parent / "data" / "sparse2d_levels8_11.dat"
    assert out.read_bytes() == capture.read_bytes()



# ---------------------------------------------------------------------------
# imports
# ---------------------------------------------------------------------------

def test_cli_import_leaves_out_scipy_special():
    # only the Hankel-quadrature test oracle uses scipy.special
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, torusqi.cli; assert 'scipy.special' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
