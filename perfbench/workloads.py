"""Workload definitions shared by the runner and the worker.

A workload is a fixed list of ``torus-qi`` commands run in sequence in one
interpreter.  Each command names the ``--out`` file it is given and the
files it writes, so a failed command can be charged for every row it owed.
Only the sparse commands take the benchmark seed: it becomes their
``--seed`` as ``DEFAULT_CLI_SEED + seed``, so seed 0 reproduces the CLI
default.  Golden outputs exist for GOLDEN_SEEDS.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_CLI_SEED = 0x5EED
GOLDEN_SEEDS = range(11)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    out: str  # value given to --out
    outputs: tuple[str, ...]  # files the command writes
    seeded: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]

    @property
    def seeded(self) -> bool:
        return any(c.seeded for c in self.commands)

    def argvs(self, seed: int, out_dir: str) -> list[list[str]]:
        """Full argument lists for ``torusqi.cli.main``, outputs in out_dir."""
        out = []
        for c in self.commands:
            argv = list(c.argv) + ["--out", f"{out_dir}/{c.out}"]
            if c.seeded:
                argv += ["--seed", format(DEFAULT_CLI_SEED + seed, "x")]
            out.append(argv)
        return out


def _ms(stem: str) -> tuple[str, ...]:
    return tuple(f"{stem}_m{m}.csv" for m in (0, 1, 2))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse",
            (
                Command(
                    ("sparse", "--dims", "3", "--m", "2", "--gamma", "1.0",
                     "--levels", "4..8"),
                    "sparse3d.dat", ("sparse3d.dat",), seeded=True,
                ),
                Command(
                    ("sparse", "--dims", "2", "--m", "2", "--gamma", "1.0",
                     "--levels", "10..15"),
                    "sparse2d.dat", ("sparse2d.dat",), seeded=True,
                ),
            ),
        ),
        Workload(
            "paper_tables",
            (
                Command(
                    ("table1", "--p", "6", "--m", "0,1,2",
                     "--gamma", "0.6,0.8,1.0,1.5", "--nmin", "32", "--nmax", "8192"),
                    "table1.csv", _ms("table1"),
                ),
                Command(
                    ("conv2d", "--m", "0,1,2", "--gamma", "1.5",
                     "--nmin", "16", "--nmax", "1024"),
                    "conv2d.csv", _ms("conv2d"),
                ),
                Command(
                    ("strangfix", "--m", "0,1,2", "--gamma", "1.0186",
                     "--nmin", "64", "--nmax", "2048"),
                    "strangfix.dat", ("strangfix.dat",),
                ),
            ),
        ),
    )
}
