"""The library attributes that perfbench's traced pass wraps still fit it.

The tracer replaces module attributes that ``torusqi.qi`` looks up at call
time (``sparse_grid_points`` among them) and counts from their results, so
a refactor that binds them differently or changes what they return would
silently zero or skew the per-layer metrics.  This test only reads
perfbench.
"""

import sys
from pathlib import Path

import numpy as np

import torusqi.qi
from torusqi.grid import SparseGridSpec, sparse_grid_count_formula

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def test_traced_sparse_build_counts_nodes_and_restores():
    spec = SparseGridSpec(5, 3)
    with tracer.installed(tracer.Tracer()) as t:
        q = torusqi.qi.build_sparse(lambda p: np.ones(len(p)), spec, 1, 1.0)
        assert tracer.unrestored() != []
    assert t.counts["grid.sparse_nodes"] == sparse_grid_count_formula(spec)
    assert t.counts["grid.combination_terms"] == len(q.terms)
    assert t.calls_to("grid.sparse_grid_points") == 1
    assert tracer.unrestored() == []
