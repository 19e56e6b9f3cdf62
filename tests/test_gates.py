"""Input gates of the public functions: each raises ValueError with its message."""

import numpy as np
import pytest

from torusqi.analysis import dft_coeffs, error_norms, lcg_uniform_points, make_gp, offset_eval_axis
from torusqi.grid import FullGridSpec, SparseGridSpec, multi_indices_with_sum
from torusqi.kernel import (
    KernelParams,
    f2_phi_closed,
    f2_phi_quadrature,
    phi_generalized,
    strang_fix_certify,
)
from torusqi.qi import build_full, evaluate

_P = KernelParams(1, 0.5)
_ONE_POINT = np.zeros((1, 2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: make_gp(6, 2)(np.zeros((3, 3))), "points must have 2 coordinates"),
        (lambda: dft_coeffs(np.zeros((4, 4))), "samples must be one-dimensional"),
        (lambda: error_norms(np.zeros(0), np.zeros(0), np.zeros((0, 2)), 1.0),
         "need at least one evaluation point"),
        (lambda: error_norms(np.zeros(2), np.zeros(1), np.zeros((2, 1)), 1.0),
         "reference/approx must produce one value per point"),
        (lambda: offset_eval_axis(0), "N must be >= 1, got 0"),
        (lambda: lcg_uniform_points(0, 2, 1), "count and dims must both be >= 1"),
        (lambda: FullGridSpec(()), "need at least one dimension"),
        (lambda: SparseGridSpec(0, 2), "level must be >= 1, got 0"),
        (lambda: SparseGridSpec(3, 0), "dims must be >= 1, got 0"),
        (lambda: multi_indices_with_sum(3, 0), "dimension must be >= 1, got 0"),
        (lambda: phi_generalized(_P, -0.1), "distance must be >= 0"),
        (lambda: f2_phi_closed(_P, -0.1), "frequency radius must be >= 0"),
        (lambda: f2_phi_quadrature(_P, -0.1), "frequency radius must be >= 0"),
        (lambda: strang_fix_certify(1, 1.0, [64], [1]),
         "need at least two grid sizes to fit an exponent"),
        (lambda: strang_fix_certify(1, 1.0, [2048, 4096], [1]),
         "alias band exceeds the coefficient ceiling"),
        (lambda: evaluate(build_full(lambda p: p[:, 0], 8, 1, 0), _ONE_POINT),
         r"points must have shape \(n, 1\)"),
    ],
    ids=[
        "gp-coordinates", "dft-2d", "error-no-points", "error-value-count",
        "offset-axis-0", "lcg-count-0", "full-grid-no-dims", "sparse-level-0",
        "sparse-dims-0", "multi-indices-d-0", "phi-negative", "f2-closed-negative",
        "f2-quadrature-negative", "strangfix-one-n", "strangfix-alias-ceiling",
        "evaluate-extra-coordinate",
    ],
)
def test_input_gate_raises_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()

