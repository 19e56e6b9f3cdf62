"""High-order quasi-interpolation of periodic functions on tori.

Laguerre-corrected Gaussian kernels restricted to the circle reach
approximation order 2m+2 on equispaced samples without solving any linear
system; tensor products, anisotropic grids, and the sparse-grid
combination technique extend the construction to higher dimensions.
"""

from .analysis import (
    TestFunctionGp,
    convergence_rates,
    dft_coeffs,
    error_norms,
    gp_eval,
    make_gp,
    trig_interp_eval,
)
from .grid import (
    CombinationTerm,
    FullGridSpec,
    SparseGridSpec,
    combination_terms,
    full_grid_nodes,
    multi_indices_with_sum,
    sparse_grid_count_formula,
    sparse_grid_nodes,
    sparse_grid_points,
)
from .kernel import (
    KernelParams,
    StrangFixReport,
    comb_identity_residual,
    f2_phi_closed,
    f2_phi_quadrature,
    phi_generalized,
    psi_fourier_analytic,
    psi_fourier_quadrature,
    psi_from_chord,
    psi_restricted,
    strang_fix_certify,
)
from .qi import (
    QuasiInterpolant,
    SparseQuasiInterpolant,
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
)
from .specfun import (
    NumericsError,
    binom_real,
    jet_psi2_hat,
    laguerre_general,
    scaled_bessel_i,
)

__version__ = "0.1.0"
