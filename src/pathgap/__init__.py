"""pathgap: spectral gaps of discrete Schrodinger operators on path graphs.

Builds tridiagonal Hamiltonians (path Laplacian plus a compactly supported
potential), computes their two lowest eigenvalues as certified Wronskian
roots or by Sturm bisection, evaluates analytic two-sided eigenvalue bounds,
and runs the volume sweeps behind the n^-3 gap-scaling law.
"""
from .bounds import (
    BoundCheck,
    BoundsReport,
    SideCorrections,
    TrialState,
    build_trial_state,
    compute_side_corrections,
    cosine_pieces,
    evaluate_bounds,
    excited_energy_bounds,
    ground_energy_lower_bound,
    ground_energy_upper_bound,
    mixing_weight_product,
    side_correction_product,
    side_energies,
    single_site_diagnostics,
)
from .eigensolver import (
    ConvergenceError,
    PositivityError,
    SpectralResult,
    dirichlet_ground_energy,
    eigenvalue,
    eigenvalues_low,
    free_spectrum,
    ground_state,
    spectrum_low,
    sturm_count,
)
from .operators import (
    Potential,
    TridiagonalOperator,
    apply_operator,
    assemble_hamiltonian,
    build_potential,
    quadratic_form,
    rayleigh_quotient,
)
from .scaling import (
    GapSeries,
    ScalingFit,
    fit_power_law,
    gap_series,
    geometric_grid,
    linear_grid,
    series_from_csv,
    series_to_csv,
)

__version__ = "0.1.0"
