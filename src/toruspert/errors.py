"""Exception types shared across the package."""


class EmptyEigenspaceError(ValueError):
    """Requested eigenvalue is not in the spectrum for this dimension."""


class FormalPotentialError(ValueError):
    """Real-space evaluation requested for a potential with a flat direction."""


class DegenerateBranchError(ValueError):
    """First-order corrections too close for higher-order branch formulas."""


class CouplingTooLargeError(RuntimeError):
    """Perturbed cluster cannot be separated from the rest of the spectrum."""


class ResourceLimitError(ValueError):
    """Requested computation exceeds the configured desk-scale limits."""


class EigensolverError(RuntimeError):
    """Eigendecomposition did not converge or missed its accuracy contract."""
