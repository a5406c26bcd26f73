"""Exception types shared across the package, and the one size check."""

# Peak-memory budget behind every size refusal: 4 GiB, what a split of
# a 4096-mode eigenspace reaches at 256 bytes per secular-matrix entry,
# which leaves room for the interpreter and the OS on a 7 GB machine.
MEMORY_BUDGET = 4 * 2**30


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


def check_size(what: str, count: int, unit: str, limit: int, peak_bytes: int) -> None:
    """Refuse work whose size `count` exceeds `limit`, before it allocates.

    `peak_bytes` is the predicted peak memory of the work; the
    ResourceLimitError message states the count, the limit and that
    prediction.
    """
    if count > limit:
        raise ResourceLimitError(
            f"{what} has {count} {unit} (limit {limit}); "
            f"it would peak at about {peak_bytes / 1e9:.1f} GB"
        )


class EigensolverError(RuntimeError):
    """Eigendecomposition did not converge or missed its accuracy contract."""
