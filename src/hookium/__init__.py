"""Closed-form states of two Coulomb-interacting particles in a planar trap.

The relative-motion radial equation closes into Gaussian-times-polynomial
eigenstates whenever the trap frequency sits on a quantization branch; the
package finds those branches exactly, builds the states, and derives the
measurable consequences: single-particle densities by center-of-mass
convolution, position-space information entropies, and the mapping onto the
quasi-exactly-solvable sextic oscillator with Rayleigh-Ritz levels for
energies outside the polynomial sector.
"""

from .hooke import (
    CenterOfMassState,
    EquilibriumError,
    NoBranchError,
    QuantizationBranch,
    RadialWavefunction,
    build_wavefunction,
    oscillator_branch,
    quantization_polynomial,
    solve_frequencies,
    verify_branch,
)
from .integrate import QuadratureNonConvergence, adaptive_quad
from .observables import (
    CATALOG,
    ClosedFormDensityCase,
    CmWidthFit,
    DensityComparison,
    DensityProfile,
    EntropyProfile,
    EntropyScanRow,
    EntropySurface,
    bessel_i,
    closed_form_density,
    compare_density_routes,
    default_grid,
    density_quadrature,
    entropy_density,
    entropy_scan,
    entropy_surface,
    fit_cm_width,
    total_entropy,
)
from .qes import (
    BracketError,
    HookeEquivalence,
    InverseMap,
    NodeCountUnreachable,
    SexticParams,
    SexticWavefunction,
    VariationalState,
    condition_residual,
    hooke_state_to_sextic,
    map_from_hooke,
    map_to_hooke,
    node_count,
    qes_condition,
    qes_eigen_series,
    rayleigh_quotient,
    sector_degree,
    sector_energies,
    sextic_residual,
    sextic_state_to_hooke,
    variational_state,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "BracketError",
    "CenterOfMassState",
    "CheckResult",
    "ClosedFormDensityCase",
    "CmWidthFit",
    "DensityComparison",
    "DensityProfile",
    "EquilibriumError",
    "EntropyProfile",
    "EntropyScanRow",
    "EntropySurface",
    "HookeEquivalence",
    "InverseMap",
    "NoBranchError",
    "NodeCountUnreachable",
    "QuadratureNonConvergence",
    "QuantizationBranch",
    "RadialWavefunction",
    "SexticParams",
    "SexticWavefunction",
    "VariationalState",
    "adaptive_quad",
    "bessel_i",
    "build_wavefunction",
    "closed_form_density",
    "compare_density_routes",
    "condition_residual",
    "default_grid",
    "density_quadrature",
    "entropy_density",
    "entropy_scan",
    "entropy_surface",
    "fit_cm_width",
    "hooke_state_to_sextic",
    "map_from_hooke",
    "map_to_hooke",
    "node_count",
    "oscillator_branch",
    "qes_condition",
    "qes_eigen_series",
    "quantization_polynomial",
    "rayleigh_quotient",
    "run_checks",
    "sector_degree",
    "sector_energies",
    "sextic_residual",
    "sextic_state_to_hooke",
    "solve_frequencies",
    "total_entropy",
    "variational_state",
    "verify_branch",
]
