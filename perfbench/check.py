"""Row-by-row comparison of workload outputs with the golden captures.

A row is one line of an output file below its header: one sparse level,
one table N, or one (m, ell) line.  ``golden/<workload>/seed<n>/`` holds
the files the library wrote at benchmark seed n on the commit the
benchmark was defined on: seeds GOLDEN_SEEDS for a seeded workload, seed 0
for one that takes no seed (it stands for every seed).

With a capture for the seed, a file that is byte-identical passes whole.
Otherwise each row is held to the ROADMAP behaviour contract, which lets a
summation-order change shift the approximant by at most 1e-13 relative:

* integer fields are equal;
* error columns are within ERROR_ABS of the golden value: approximant and
  target magnitudes are below 1 and the L2 norms weight by at most
  (2 pi)^(3/2), so a shift of 1e-13 moves an error by at most that much;
* rate columns equal log2 of the ratio of the row's and the previous row's
  printed errors, which were checked themselves;
* every other float is within 1e-13 relative of the golden value;
* every float field may also move by one unit in its 12th significant
  digit, the last one the CLI prints.

A sparse workload at a seed without a capture evaluates at other points,
so its errors differ from any capture.  Its rows are compared with seed 0
and pass when ``level`` and ``npoints`` are equal, and ``rel_linf`` and
``rel_l2`` are finite and within a factor SEED_FACTORS of the seed-0 value.
Over the captured seeds 1..10, the errors stayed within 1.24x (rel_linf)
and 1.08x (rel_l2) of seed 0.  This fallback catches gross errors only;
small shifts show only at a captured seed.
"""

from __future__ import annotations

import math
from pathlib import Path


GOLDEN = Path(__file__).resolve().parent / "golden"
SHIFT_REL = 1e-13
ERROR_ABS = SHIFT_REL * (2.0 * math.pi) ** 1.5
ERROR_COLUMNS = {"err_linf", "err_l2", "rel_linf", "rel_l2",
                 "saturation_max", "aliasing_max"}
RATE_OF = {"rate_linf": "err_linf", "rate_l2": "err_l2"}
RATE_ABS = 1e-10  # log2 of a ratio of two errors printed to 12 digits
SEED_FACTORS = {"rel_linf": 2.0, "rel_l2": 1.25}


def _float(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _last_digit(value: float) -> float:
    return 10.0 ** (math.floor(math.log10(abs(value))) - 11) if value else 0.0


def _field_ok(column: str, got: str, want: str, same_seed: bool) -> bool:
    if want == "" or want.lstrip("-").isdigit():
        return got == want
    value, golden = _float(got), float(want)
    if value is None:
        return False
    if not same_seed:
        factor = SEED_FACTORS.get(column, 1.0)
        return value > 0.0 and golden / factor <= value <= golden * factor
    allowed = ERROR_ABS if column in ERROR_COLUMNS else SHIFT_REL * abs(golden)
    return abs(value - golden) <= allowed + _last_digit(golden)


def _rate_ok(rate: str, err: str, prev_err: str) -> bool:
    value, e, e_prev = _float(rate), _float(err), _float(prev_err)
    if value is None or not e or not e_prev or e * e_prev <= 0.0:
        return False
    return abs(value - math.log2(e_prev / e)) <= RATE_ABS


def _rows(lines: list[str]) -> list[dict[str, str]]:
    sep = "," if "," in lines[0] else None
    header = lines[0].split(sep)
    return [dict(zip(header, line.split(sep))) if len(line.split(sep)) == len(header)
            else {} for line in lines[1:]]


def failed_rows(produced: Path, golden: Path, same_seed: bool) -> tuple[int, int]:
    """(rows owed, rows failed) of one output file against its capture."""
    want_lines = golden.read_text().splitlines()
    owed = len(want_lines) - 1
    if not produced.is_file():
        return owed, owed
    if same_seed and produced.read_bytes() == golden.read_bytes():
        return owed, 0
    got_lines = produced.read_text().splitlines()
    if len(got_lines) != len(want_lines) or got_lines[0] != want_lines[0]:
        return owed, owed
    got, want = _rows(got_lines), _rows(want_lines)
    failed = 0
    for i, (g, w) in enumerate(zip(got, want)):
        ok = bool(g)
        for column, value in w.items():
            if not ok:
                break
            if column in RATE_OF and value != "":
                err = RATE_OF[column]
                ok = i > 0 and _rate_ok(g[column], g[err], got[i - 1].get(err, ""))
            else:
                ok = _field_ok(column, g[column], value, same_seed)
        failed += not ok
    return owed, failed


def golden_dir(workload, seed: int) -> Path:
    return GOLDEN / workload.name / f"seed{seed if workload.seeded else 0}"


def check_pass(workload, commands: list[dict] | None, out_dir: Path,
               seed: int) -> tuple[int, int]:
    """(rows owed, rows failed) of one workload pass.

    ``commands`` holds each command's exit code and error from the worker;
    None means the worker produced no report, so every row failed.  A
    command that raised or exited non-zero fails every row it owed.
    """
    golden = golden_dir(workload, seed)
    same_seed = golden.is_dir()
    if not same_seed:
        golden = golden_dir(workload, 0)
    owed = failed = 0
    for i, command in enumerate(workload.commands):
        ran = commands is not None and commands[i]["rc"] == 0 and not commands[i]["error"]
        for name in command.outputs:
            o, f = failed_rows(out_dir / name, golden / name, same_seed)
            owed += o
            failed += f if ran else o
    return owed, failed
