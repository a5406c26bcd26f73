"""Independent check of perturbative predictions by direct truncation.

The operator Delta + eps V is projected onto the Fourier modes inside
a sup-norm box and diagonalized as a dense symmetric matrix.  Nothing
here reuses the perturbation formulas: the matrix is built straight
from the potential coefficients, so the eigenvalue cluster that grows
out of a degenerate eigenvalue gives an external reference for the
first-order corrections, their Richardson error trend in eps, and the
insensitivity to the cutoff.  Each box's potential matrix V is built
once and serves every coupling on it (`_box_clusters`): the main box
takes all couplings, the cutoff + 2 box the largest one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import perturbation
from .eigensolve import symmetric_eigen
from .errors import MEMORY_BUDGET, CouplingTooLargeError, check_size
from .lattice import LatticeVector, box_points
from .potential import PotentialSpec, coefficient_exponents

# Largest truncation basis.  An oracle run peaks at about 51-59 bytes
# per matrix entry (the potential matrix, one coupling's operator, the
# exponent kernel's scratch and the eigensolve's work arrays; measured
# at N = 729-2197), rounded up to 64: 8192 modes fill the budget.
_BYTES_PER_ENTRY = 64
MAX_BASIS_SIZE = math.isqrt(MEMORY_BUDGET // _BYTES_PER_ENTRY)


@dataclass(frozen=True)
class GalerkinOperator:
    """Dense truncation of Delta + eps V on a sup-norm frequency box."""

    spec: PotentialSpec
    n: int
    epsilon: float
    cutoff: int
    basis: tuple[LatticeVector, ...]
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return len(self.basis)


def assemble_galerkin(
    spec: PotentialSpec, n: int, epsilon: float, cutoff: int
) -> GalerkinOperator:
    """Build the truncated operator on the box max_j |m_j| <= cutoff.

    The basis is the box's `box_points`, in ascending lex order; entry
    (m, m') is |m|^2 [m = m'] + eps * c(m - m'), with c from the
    potential's own `coefficient_exponents`.  Requires 0 <= eps < 1 and
    a basis of at most MAX_BASIS_SIZE modes.
    """
    if n != spec.n:
        raise ValueError(f"dimension argument {n} != potential dimension {spec.n}")
    epsilon = float(epsilon)
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must satisfy 0 <= eps < 1, got {epsilon}")
    size = _check_truncation(n, cutoff)
    P, sq, H = _box_potential(spec, n, cutoff)
    H *= epsilon
    H[np.diag_indices(size)] += sq
    return GalerkinOperator(
        spec=spec, n=n, epsilon=epsilon, cutoff=cutoff,
        basis=tuple(map(tuple, P.tolist())), matrix=H,
    )


def _box_potential(spec: PotentialSpec, n: int, cutoff: int):
    """(points, |k|^2, V) on the box of half-width `cutoff`.

    V[m, m'] = c(m - m'), with the constant convention on the diagonal,
    does not depend on eps, so one box serves every coupling.
    """
    P = box_points(n, cutoff)
    sq = (P * P).sum(axis=1)
    V = np.exp(-coefficient_exponents(spec, P, P))
    if spec.subtract_constant:
        np.fill_diagonal(V, 0.0)
    return P, sq, V


def _check_truncation(n: int, cutoff: int) -> int:
    """Size of the box of half-width `cutoff`; refuses it beyond MAX_BASIS_SIZE."""
    if not isinstance(cutoff, int) or cutoff < 1:
        raise ValueError(f"cutoff must be a positive integer, got {cutoff!r}")
    size = (2 * cutoff + 1) ** n
    check_size(
        "truncated basis", size, "modes", MAX_BASIS_SIZE,
        _BYTES_PER_ENTRY * size * size,
    )
    return size


def _nearest(w: np.ndarray, lambda0: int, count: int) -> np.ndarray:
    """Indices of the `count` values of w nearest lambda0; ties go to the smaller."""
    return np.lexsort((w, np.abs(w - float(lambda0))))[:count]


def eigen_near(op: GalerkinOperator, lambda0: int, count: int) -> np.ndarray:
    """The `count` eigenvalues closest to lambda0, ascending.

    Distance ties resolve toward the smaller eigenvalue.
    """
    if not 1 <= count <= op.size:
        raise ValueError(f"count must be in [1, {op.size}], got {count}")
    w, _ = symmetric_eigen(op.matrix)
    return np.sort(w[_nearest(w, lambda0, count)])


@dataclass(frozen=True)
class ValidationRow:
    """Cluster data for one coupling value."""

    epsilon: float
    eigenvalues: tuple[float, ...]
    d: tuple[float, ...] | None
    max_error: float


@dataclass(frozen=True)
class TrendCheck:
    """Error ratio between two consecutive couplings against the O(eps) band."""

    eps_high: float
    eps_low: float
    ratio: float | None
    band_low: float
    band_high: float
    ok: bool


@dataclass(frozen=True)
class GalerkinValidation:
    """Comparison of truncated-operator clusters with first-order predictions."""

    lambda0: int
    n: int
    spec: PotentialSpec
    cutoff: int
    multiplicity: int
    first_order: np.ndarray
    rows: tuple[ValidationRow, ...]
    trend: tuple[TrendCheck, ...]
    cutoff_shift: float | None
    cutoff_converged: bool | None
    formal_warning: str | None
    passed: bool

    def fan_rows(self) -> list[tuple[float, int, float]]:
        """(epsilon, branch index, eigenvalue) triples for plotting."""
        out = []
        for row in self.rows:
            for i, mu in enumerate(row.eigenvalues):
                out.append((row.epsilon, i, mu))
        return out

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "oracle_report",
            "lambda0": self.lambda0,
            "n": self.n,
            "alpha": list(self.spec.alpha),
            "subtract_constant": self.spec.subtract_constant,
            "cutoff": self.cutoff,
            "multiplicity": self.multiplicity,
            "first_order": self.first_order.tolist(),
            "rows": [
                {
                    "epsilon": row.epsilon,
                    "eigenvalues": list(row.eigenvalues),
                    "d": list(row.d) if row.d is not None else None,
                    "max_error": row.max_error,
                }
                for row in self.rows
            ],
            "trend": [
                {
                    "eps_high": t.eps_high,
                    "eps_low": t.eps_low,
                    "ratio": t.ratio,
                    "band": [t.band_low, t.band_high],
                    "ok": t.ok,
                }
                for t in self.trend
            ],
            "cutoff_shift": self.cutoff_shift,
            "cutoff_converged": self.cutoff_converged,
            "formal_warning": self.formal_warning,
            "passed": self.passed,
        }


def _box_clusters(spec, n, cutoff, epsilons, lambda0, m) -> list[np.ndarray]:
    """The m-fold cluster near lambda0 for each coupling on one box, or fail loudly.

    The box's potential matrix V is built once; each coupling's operator
    is eps V + diag(|k|^2), and the last coupling scales V in place.
    The caller has checked the box size.  The m eigenvalues nearest
    lambda0 must be separated from every other eigenvalue by at least
    half the unperturbed spectral gap around lambda0 within the box.

    The cluster values are refined by Rayleigh-Ritz on their own
    eigenvectors.  A full eigensolve is accurate only to about
    eps_mach * max|H|, and the largest diagonal entry of H grows as
    cutoff^2; the eigenvectors are localized near |k|^2 = lambda0, so
    the projected m x m matrix carries errors on the scale of lambda0
    instead, and the small eigensolve keeps that accuracy.
    """
    _, sq, V = _box_potential(spec, n, cutoff)
    if int((sq == lambda0).sum()) != m:
        raise ValueError(
            f"cutoff {cutoff} does not contain the full eigenspace of {lambda0}"
        )
    levels = np.unique(sq)
    pos = int(np.searchsorted(levels, lambda0))
    half_gap = float(np.diff(levels[max(pos - 1, 0):pos + 2]).min()) / 2.0

    diag = np.diag_indices(len(sq))
    clusters = []
    for j, eps in enumerate(epsilons):
        H = V * eps if j + 1 < len(epsilons) else np.multiply(V, eps, out=V)
        H[diag] += sq
        w, Q = symmetric_eigen(H)
        near = np.sort(_nearest(w, lambda0, m))
        Qc = Q[:, near]
        G = Qc.T @ (H @ Qc)
        inside, _ = symmetric_eigen((G + G.T) / 2.0)
        outside = np.delete(w, near)
        if outside.size:
            separation = float(np.abs(outside[:, None] - inside[None, :]).min())
            if separation < half_gap:
                raise CouplingTooLargeError(
                    f"cluster at lambda0={lambda0} is not isolated at eps={eps}: "
                    f"separation {separation:.6e} < half unperturbed gap {half_gap:.6e}"
                )
        clusters.append(inside)
    return clusters


def validate_first_order(
    spec: PotentialSpec,
    lambda0: int,
    n: int,
    epsilons,
    cutoff: int,
    check_cutoff: bool = True,
) -> GalerkinValidation:
    """Track the perturbed cluster over several couplings.

    For each eps the report records the cluster eigenvalues, the scaled
    deviations d_i = (mu_i - lambda0)/eps, and the worst error against
    the ascending first-order corrections.  Consecutive eps pairs get a
    Richardson check: the error ratio must sit within a factor of 5 of
    the coupling ratio (for a decade step, [0.02, 0.5]) unless the
    errors are already at the 1e-12 floor.  eps = 0 rows are trivial
    (exact degeneracy, zero error).  Unless the potential is formal, the
    largest-coupling cluster is recomputed at cutoff + 2 and must move
    by less than 1e-12.  Both box sizes are checked against
    MAX_BASIS_SIZE before anything is computed; each box's coefficient
    kernel then runs once, whatever the number of couplings.
    """
    eps_list = [float(e) for e in epsilons]
    if not eps_list:
        raise ValueError("need at least one epsilon")
    if any(e < 0.0 or e >= 1.0 for e in eps_list):
        raise ValueError("every epsilon must satisfy 0 <= eps < 1")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilons must be strictly descending")
    rerun = check_cutoff and not spec.is_formal
    _check_truncation(spec.n, cutoff)
    if rerun:
        _check_truncation(spec.n, cutoff + 2)

    report = perturbation.first_order_corrections(spec, lambda0, n)
    predicted = report.corrections
    m = report.multiplicity

    clusters = _box_clusters(spec, n, cutoff, eps_list, lambda0, m)
    rows = []
    for eps, cluster in zip(eps_list, clusters):
        values = tuple(float(x) for x in cluster)
        if eps == 0.0:
            rows.append(ValidationRow(eps, values, d=None, max_error=0.0))
            continue
        d = (cluster - float(lambda0)) / eps
        err = float(np.abs(d - predicted).max())
        rows.append(ValidationRow(eps, values, tuple(float(x) for x in d), err))
    errors = {row.epsilon: row.max_error for row in rows}

    trend = []
    for hi, lo in zip(eps_list, eps_list[1:]):
        expected = lo / hi
        band = (0.2 * expected, 5.0 * expected)
        if errors[hi] <= 1e-12 or errors[lo] <= 1e-12:
            trend.append(TrendCheck(hi, lo, None, band[0], band[1], True))
            continue
        ratio = errors[lo] / errors[hi]
        ok = band[0] <= ratio <= band[1]
        trend.append(TrendCheck(hi, lo, ratio, band[0], band[1], ok))

    formal_warning = None
    cutoff_shift = None
    cutoff_converged = None
    if spec.is_formal:
        formal_warning = (
            "formal potential (zero decay weight in some direction): no continuum "
            "limit; cluster values depend on the cutoff and its check is skipped"
        )
    elif rerun:
        (cluster2,) = _box_clusters(spec, n, cutoff + 2, eps_list[:1], lambda0, m)
        cutoff_shift = float(np.abs(clusters[0] - cluster2).max())
        cutoff_converged = cutoff_shift < 1e-12

    passed = all(t.ok for t in trend) and cutoff_converged is not False
    return GalerkinValidation(
        lambda0=lambda0,
        n=n,
        spec=spec,
        cutoff=cutoff,
        multiplicity=m,
        first_order=predicted,
        rows=tuple(rows),
        trend=tuple(trend),
        cutoff_shift=cutoff_shift,
        cutoff_converged=cutoff_converged,
        formal_warning=formal_warning,
        passed=passed,
    )
