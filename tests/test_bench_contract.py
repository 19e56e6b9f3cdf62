"""The library still fits perfbench: its traced pass and its golden outputs.

The tracer replaces module attributes that ``torusqi.qi`` looks up at call
time (``sparse_grid_points`` among them) and counts from their results, so
a refactor that binds them differently or changes what they return would
silently zero or skew the per-layer metrics.  The benchmark's check also
compares CLI outputs with golden captures, so two of its commands are run
here and must reproduce those bytes.  These tests only read perfbench.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import torusqi.qi
from torusqi.cli import main
from torusqi.grid import SparseGridSpec, sparse_grid_count_formula

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_traced_sparse_build_counts_nodes_and_restores():
    spec = SparseGridSpec(5, 3)
    with tracer.installed(tracer.Tracer()) as t:
        q = torusqi.qi.build_sparse(lambda p: np.ones(len(p)), spec, 1, 1.0)
        assert tracer.unrestored() != []
    assert t.counts["grid.sparse_nodes"] == sparse_grid_count_formula(spec)
    assert t.counts["grid.combination_terms"] == len(q.terms)
    assert t.calls_to("grid.sparse_grid_points") == 1
    assert tracer.unrestored() == []


@pytest.mark.parametrize(
    "workload, out",
    [("paper_tables", "strangfix.dat"), ("sparse", "sparse3d.dat")],
)
def test_cli_reproduces_golden_bytes(tmp_path, workload, out):
    w = WORKLOADS[workload]
    (argv,) = [
        a for c, a in zip(w.commands, w.argvs(0, str(tmp_path))) if c.out == out
    ]
    assert main(argv) == 0
    golden = PERFBENCH / "golden" / workload / "seed0" / out
    assert (tmp_path / out).read_bytes() == golden.read_bytes()
