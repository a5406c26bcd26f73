"""Spectral splitting of the flat torus Laplacian under trigonometric perturbations."""

from .errors import (
    CouplingTooLargeError,
    DegenerateBranchError,
    EigensolverError,
    EmptyEigenspaceError,
    FormalPotentialError,
    ResourceLimitError,
)
from .lattice import (
    EigenspaceBasis,
    LatticeVector,
    eigenspace,
    lattice_box,
    multiplicity,
    representations,
    spectrum_up_to,
    squared_norm,
)
from .potential import PotentialSpec, evaluate, evaluate_batch, fourier_coefficient
from .eigensolve import symmetric_eigen
from .perturbation import (
    PerturbationMatrix,
    SecondOrderCorrections,
    SplittingReport,
    assemble_first_order,
    default_gap_tolerance,
    default_resolvent_cutoff,
    eigenvector_correction_coefficients,
    first_order_corrections,
    second_order_corrections,
)
from .galerkin import (
    GalerkinOperator,
    GalerkinValidation,
    assemble_galerkin,
    eigen_near,
    validate_first_order,
)

__version__ = "0.1.0"

__all__ = [
    "CouplingTooLargeError",
    "DegenerateBranchError",
    "EigensolverError",
    "EigenspaceBasis",
    "EmptyEigenspaceError",
    "FormalPotentialError",
    "GalerkinOperator",
    "GalerkinValidation",
    "LatticeVector",
    "PerturbationMatrix",
    "PotentialSpec",
    "ResourceLimitError",
    "SecondOrderCorrections",
    "SplittingReport",
    "assemble_first_order",
    "assemble_galerkin",
    "default_gap_tolerance",
    "default_resolvent_cutoff",
    "eigen_near",
    "eigenspace",
    "eigenvector_correction_coefficients",
    "evaluate",
    "evaluate_batch",
    "first_order_corrections",
    "fourier_coefficient",
    "lattice_box",
    "multiplicity",
    "representations",
    "second_order_corrections",
    "spectrum_up_to",
    "squared_norm",
    "symmetric_eigen",
    "validate_first_order",
    "__version__",
]
