"""Quantum capacity of the bosonic dephasing channel on truncated Fock spaces."""

__version__ = "0.1.0"

from .fock import (
    DephasingParams,
    FockDensityMatrix,
    InputDistribution,
    TruncationError,
    apply_dephasing,
    coherent_information,
    diagonal_state,
    evolve_master_equation,
    kraus_apply,
    phase_average_oracle,
    phase_rotate,
    random_density_matrix,
)
from .optimize import (
    CapacityResult,
    TwoPointBound,
    ansatz_distribution,
    asymptotic_capacity,
    capacity_sweep,
    coherent_information_diagonal,
    default_sigma,
    maximize_coherent_information,
    maximize_over_ansatz,
    objective_gradient,
    two_point_lower_bound,
)

__all__ = [
    "__version__",
    "DephasingParams",
    "FockDensityMatrix",
    "TruncationError",
    "apply_dephasing",
    "coherent_information",
    "diagonal_state",
    "evolve_master_equation",
    "kraus_apply",
    "phase_average_oracle",
    "phase_rotate",
    "random_density_matrix",
    "InputDistribution",
    "CapacityResult",
    "TwoPointBound",
    "ansatz_distribution",
    "asymptotic_capacity",
    "capacity_sweep",
    "coherent_information_diagonal",
    "default_sigma",
    "maximize_coherent_information",
    "maximize_over_ansatz",
    "objective_gradient",
    "two_point_lower_bound",
]
