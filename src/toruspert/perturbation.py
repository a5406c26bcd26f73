"""Degenerate perturbation corrections for the torus Laplacian.

Restricting the potential to one Laplacian eigenspace gives the
secular matrix A with entries A[u, v] = c(k_u - k_v), the Fourier
coefficient of the potential at the difference frequency.  Its
eigenvalues are the first-order eigenvalue corrections of the
perturbed operator and its eigenvectors pick the branch basis inside
the eigenspace.  Second-order corrections and first-order eigenvector
mixing are resolvent sums over lattice modes outside the eigenspace,
truncated to a sup-norm box whose tail is negligible for genuinely
decaying coefficients.  Both come from one pass over the box
(`_resolvent_pass`), which returns the branch coefficients C[p, i] and
the denominators lambda0 - |p|^2; second order is the diagonal of the
coupling C^T (C / denom) and the mixing its off-diagonal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolve import symmetric_eigen
from .errors import MEMORY_BUDGET, DegenerateBranchError, check_size
from .lattice import EigenspaceBasis, box_points, eigenspace
from .potential import PotentialSpec, coefficient_exponents

# Largest eigenspace whose secular matrix is assembled.  A split run
# peaks at about 256 bytes per matrix entry (exponents, np.unique, the
# eigensolve and the rendered report), so 4096 modes fill the budget.
_BYTES_PER_ENTRY = 256
MAX_MULTIPLICITY = math.isqrt(MEMORY_BUDGET // _BYTES_PER_ENTRY)

# Hard cap on resolvent-box size; beyond this the dense sums stop being
# a desk-scale computation.
MAX_BOX_POINTS = 2_000_000

# Largest resolvent sum, counted as box points x branches.  The pass
# peaks at about 27 bytes per entry (the exponent kernel's three
# box x m arrays plus the box itself; measured at 2M and 9.4M entries),
# rounded up to 32: at most 134M entries fit the budget.
_RESOLVENT_BYTES_PER_ENTRY = 32
MAX_RESOLVENT_ENTRIES = MEMORY_BUDGET // _RESOLVENT_BYTES_PER_ENTRY

FULLY_SPLIT = "fully_split"
PARTIALLY_SPLIT = "partially_split"
UNSPLIT = "unsplit"


@dataclass(frozen=True)
class PerturbationMatrix:
    """Secular matrix of the potential on one eigenspace.

    `entries[u, v]` is the potential coefficient at k_u - k_v for the
    stored basis order; `spec` records the potential (including the
    constant-term convention that fixes the diagonal).
    """

    lambda0: int
    basis: EigenspaceBasis
    entries: np.ndarray
    spec: PotentialSpec

    @property
    def subtract_constant(self) -> bool:
        return self.spec.subtract_constant


def assemble_first_order(spec: PotentialSpec, basis: EigenspaceBasis) -> PerturbationMatrix:
    """Build the secular matrix for `spec` on `basis` (in basis order).

    Every entry is bit-identical to `fourier_coefficient(spec, k_u - k_v)`:
    the exponents come from `coefficient_exponents`, which does the same
    float operations, and `math.exp` (not `np.exp`, which can differ by
    an ulp) is applied once per distinct exponent.  The diagonal, the
    only place where k_u - k_v = 0, follows the constant convention.
    Eigenspaces of more than MAX_MULTIPLICITY modes raise
    ResourceLimitError before anything m x m is allocated.
    """
    if spec.n != basis.n:
        raise ValueError(
            f"potential dimension {spec.n} != eigenspace dimension {basis.n}"
        )
    m = basis.multiplicity
    check_size(
        f"eigenspace of {basis.lambda0} in dimension {basis.n}", m, "modes",
        MAX_MULTIPLICITY, _BYTES_PER_ENTRY * m * m,
    )
    K = np.array(basis.frequencies, dtype=np.int64).reshape(m, basis.n)
    W = coefficient_exponents(spec, K, K)
    exponents, inverse = np.unique(W, return_inverse=True)
    values = np.array([math.exp(-w) for w in exponents.tolist()])
    entries = values[inverse.reshape(m, m)]
    entries[np.diag_indices(m)] = 0.0 if spec.subtract_constant else 1.0
    return PerturbationMatrix(
        lambda0=basis.lambda0, basis=basis, entries=entries, spec=spec
    )


def default_gap_tolerance(entries: np.ndarray) -> float:
    """Clustering tolerance scaled to the coefficient magnitude."""
    return 1e-9 * max(1.0, float(np.abs(entries).max()))


@dataclass(frozen=True)
class SplittingReport:
    """First-order splitting of one degenerate eigenvalue.

    `corrections` are the secular eigenvalues in ascending order with
    `eigenvectors[:, i]` the matching branch vector in the basis order
    recorded by `matrix`.  `clusters` groups correction indices whose
    adjacent gaps fall at or below `gap_tolerance`; `min_gap` is +inf
    for a one-dimensional eigenspace.
    """

    lambda0: int
    n: int
    corrections: np.ndarray
    eigenvectors: np.ndarray
    min_gap: float
    gap_tolerance: float
    verdict: str
    clusters: tuple[tuple[int, ...], ...]
    matrix: PerturbationMatrix

    @property
    def multiplicity(self) -> int:
        return len(self.corrections)

    def to_dict(self) -> dict:
        """JSON-ready view (schema 1); non-finite min_gap maps to null."""
        return {
            "schema": 1,
            "kind": "splitting_report",
            "lambda0": self.lambda0,
            "n": self.n,
            "alpha": list(self.matrix.spec.alpha),
            "subtract_constant": self.matrix.spec.subtract_constant,
            "multiplicity": self.multiplicity,
            "basis": [list(k) for k in self.matrix.basis.frequencies],
            "corrections": self.corrections.tolist(),
            "min_gap": float(self.min_gap) if math.isfinite(self.min_gap) else None,
            "gap_tolerance": float(self.gap_tolerance),
            "verdict": self.verdict,
            "clusters": [list(c) for c in self.clusters],
            "eigenvectors": self.eigenvectors.T.tolist(),
            "matrix": self.matrix.entries.tolist(),
        }


def _cluster_indices(values: np.ndarray, tolerance: float) -> tuple[tuple[int, ...], ...]:
    clusters = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] <= tolerance:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return tuple(tuple(c) for c in clusters)


def first_order_corrections(
    spec: PotentialSpec,
    lambda0: int,
    n: int,
    gap_tolerance: float | None = None,
) -> SplittingReport:
    """Diagonalize the secular matrix and classify the splitting.

    The verdict is `fully_split` when every adjacent gap exceeds the
    tolerance (vacuously for multiplicity 1), `unsplit` when all
    corrections fall in one cluster, `partially_split` otherwise.
    """
    if n != spec.n:
        raise ValueError(f"dimension argument {n} != potential dimension {spec.n}")
    basis = eigenspace(lambda0, n)
    matrix = assemble_first_order(spec, basis)
    if gap_tolerance is None:
        gap_tolerance = default_gap_tolerance(matrix.entries)
    elif gap_tolerance <= 0.0:
        raise ValueError(f"gap tolerance must be positive, got {gap_tolerance}")
    w, Q = symmetric_eigen(matrix.entries)
    m = len(w)
    if m == 1:
        min_gap = math.inf
    else:
        min_gap = float(np.diff(w).min())
    clusters = _cluster_indices(w, gap_tolerance)
    if all(len(c) == 1 for c in clusters):
        verdict = FULLY_SPLIT
    elif len(clusters) == 1:
        verdict = UNSPLIT
    else:
        verdict = PARTIALLY_SPLIT
    return SplittingReport(
        lambda0=lambda0,
        n=n,
        corrections=w,
        eigenvectors=Q,
        min_gap=min_gap,
        gap_tolerance=float(gap_tolerance),
        verdict=verdict,
        clusters=clusters,
        matrix=matrix,
    )


def default_resolvent_cutoff(lambda0: int) -> int:
    """Sup-norm box half-width for resolvent sums: max(3 sqrt(lambda0), 8)."""
    return max(math.ceil(3.0 * math.sqrt(lambda0)), 8)


def _check_pass(basis, B, cutoff):
    """The checks a resolvent pass needs, none of which allocates the box.

    The branch matrix has one row per basis vector and orthonormal
    columns, the cutoff is an integer of at least sqrt(lambda0) + 1,
    and the box fits MAX_BOX_POINTS and MAX_RESOLVENT_ENTRIES.
    """
    lambda0, n, m = basis.lambda0, basis.n, basis.multiplicity
    if B.ndim != 2 or B.shape[0] != m:
        raise ValueError(
            f"branch array must have {m} rows (one per basis frequency), got {B.shape}"
        )
    gram = B.T @ B
    if np.abs(gram - np.eye(B.shape[1])).max() > 1e-10:
        raise ValueError("branch vectors must be orthonormal")

    if not isinstance(cutoff, int) or cutoff < 1:
        raise ValueError(f"cutoff must be a positive integer, got {cutoff!r}")
    if cutoff < math.sqrt(lambda0) + 1.0:
        raise ValueError(
            f"cutoff {cutoff} too small: must be at least sqrt(lambda0) + 1"
        )
    n_points = (2 * cutoff + 1) ** n
    peak = _RESOLVENT_BYTES_PER_ENTRY * n_points * m
    check_size("resolvent box", n_points, "points", MAX_BOX_POINTS, peak)
    check_size(
        f"resolvent sum over {n_points} box points x {m} modes", n_points * m,
        "entries", MAX_RESOLVENT_ENTRIES, peak,
    )


def _resolvent_pass(spec, basis, B, cutoff):
    """One pass over the resolvent box: returns (C, denom).

    C[p, i] = sum_v B[v, i] c(p - k_v) for every box point p with
    |p|^2 != lambda0 (ascending lex order) and denom[p] = lambda0 - |p|^2.
    The caller has run `_check_pass` on the same arguments.
    """
    lambda0 = basis.lambda0
    points = box_points(basis.n, cutoff)
    sq = (points * points).sum(axis=1)
    outside = sq != lambda0
    points = points[outside]
    denom = lambda0 - sq[outside].astype(float)

    K = np.array(basis.frequencies, dtype=np.int64)
    coeff = np.exp(-coefficient_exponents(spec, points, K))
    # c_i(m) = sum_v branch[v, i] * c(m - k_v); t = 0 never occurs here
    # because every box point has |m|^2 != lambda0.
    C = coeff @ B
    return C, denom


def _tail_estimate(spec, lambda0, n, basis, cutoff):
    alpha_min = min(spec.alpha)
    max_inf = max(max(abs(c) for c in k) for k in basis.frequencies)
    s = max(0, cutoff + 1 - max_inf)
    gap = max(1.0, (cutoff + 1) ** 2 - lambda0)
    return 4.0 * n * (2 * cutoff + 3) ** (n - 1) * math.exp(-2.0 * alpha_min * s * s) / gap


@dataclass(frozen=True)
class SecondOrderCorrections:
    """Second-order eigenvalue corrections for a set of split branches."""

    lambda0: int
    values: np.ndarray
    cutoff: int
    tail_estimate: float
    first_order: np.ndarray


def second_order_corrections(
    spec: PotentialSpec,
    lambda0: int,
    n: int,
    branches,
    cutoff: int | None = None,
) -> SecondOrderCorrections:
    """Resolvent-sum second-order corrections for the given branches.

    `branches` holds orthonormal secular eigenvectors as columns.  The
    sum runs over lattice modes with |m|^2 != lambda0 inside the
    sup-norm box of half-width `cutoff` (default max(3 sqrt(lambda0), 8));
    boxes of more than MAX_BOX_POINTS points or MAX_RESOLVENT_ENTRIES
    points x modes raise ResourceLimitError before they are built.
    Branches that are not secular eigenvectors, or whose first-order
    corrections collide within the default gap tolerance, are rejected
    before the box is built: the formula needs distinct first-order
    values.  `tail_estimate` is a rough upper bound on the discarded
    mass; it is meaningless for formal specs.
    """
    basis = eigenspace(lambda0, n)
    B = np.asarray(branches, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if cutoff is None:
        cutoff = default_resolvent_cutoff(lambda0)
    _check_pass(basis, B, cutoff)
    matrix = assemble_first_order(spec, basis)
    gap_tolerance = default_gap_tolerance(matrix.entries)
    mu = np.einsum("vi,vw,wi->i", B, matrix.entries, B)
    resid = np.abs(matrix.entries @ B - B * mu).max()
    if resid > 1e-8 * max(1.0, np.abs(matrix.entries).max()):
        raise ValueError(
            "branch vectors are not secular-matrix eigenvectors "
            f"(residual {resid:.3e})"
        )
    order = np.argsort(mu, kind="stable")
    for a, b in zip(order[:-1], order[1:]):
        if mu[b] - mu[a] <= gap_tolerance:
            raise DegenerateBranchError(
                f"branches {int(a)} and {int(b)} have first-order corrections "
                f"{mu[a]!r} and {mu[b]!r} within tolerance {gap_tolerance!r}"
            )
    C, denom = _resolvent_pass(spec, basis, B, cutoff)
    values = ((C * C) / denom[:, None]).sum(axis=0)
    return SecondOrderCorrections(
        lambda0=lambda0,
        values=values,
        cutoff=cutoff,
        tail_estimate=_tail_estimate(spec, lambda0, n, basis, cutoff),
        first_order=mu,
    )


def eigenvector_correction_coefficients(
    spec: PotentialSpec,
    lambda0: int,
    n: int,
    report: SplittingReport,
    cutoff: int | None = None,
) -> np.ndarray:
    """First-order mixing of split branches inside the eigenspace.

    Returns the matrix beta with beta[i, j] the coefficient of branch j
    in the first-order correction of branch i: the inter-branch
    coupling through the out-of-eigenspace resolvent divided by the
    first-order gap, and an exactly zero diagonal (normalization).
    The basis, branch vectors and corrections are the report's own, so
    the report must be fully split and computed for this `spec`,
    `lambda0` and `n` (ValueError otherwise).  The box is the one
    `second_order_corrections` sums over, with the same size limits.
    """
    if n != spec.n:
        raise ValueError(f"dimension argument {n} != potential dimension {spec.n}")
    if (report.lambda0, report.n, report.matrix.spec) != (lambda0, n, spec):
        raise ValueError(
            f"report is for lambda0={report.lambda0}, n={report.n} and "
            f"{report.matrix.spec}, not lambda0={lambda0}, n={n} and {spec}"
        )
    if report.verdict != FULLY_SPLIT:
        worst = max(report.clusters, key=len)
        raise DegenerateBranchError(
            f"corrections are not fully split (verdict {report.verdict}; "
            f"cluster {worst} collides); branch mixing is undefined"
        )
    if cutoff is None:
        cutoff = default_resolvent_cutoff(lambda0)
    _check_pass(report.matrix.basis, report.eigenvectors, cutoff)
    C, denom = _resolvent_pass(spec, report.matrix.basis, report.eigenvectors, cutoff)
    mu = report.corrections
    coupling = C.T @ (C / denom[:, None])
    gaps = mu[:, None] - mu[None, :]
    np.fill_diagonal(gaps, 1.0)
    beta = coupling.T / gaps
    np.fill_diagonal(beta, 0.0)
    return beta
