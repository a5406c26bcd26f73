"""Dense symmetric eigensolver with a checked contract.

Small matrices go through a hand-rolled cyclic Jacobi iteration, which
keeps full relative accuracy on the nearly-diagonal matrices produced
upstream (off-diagonal entries down at the exp(-36) scale).  Large
matrices fall back to LAPACK via numpy; if its divide-and-conquer
iteration does not converge reading the lower triangle, it is retried
once on the upper triangle, which holds the same values but goes
through a different tridiagonal reduction.  Either way the result is
post-processed to a single deterministic convention and verified
against the residual and orthogonality tolerances before it is
returned.

Conventions: eigenvalues ascending (stable order), and each
eigenvector is signed so its largest-magnitude component (first such
index on ties) is positive.
"""
from __future__ import annotations

import numpy as np

from .errors import EigensolverError

# Above this size a full Jacobi pass in Python costs more than it buys;
# LAPACK takes over behind the same contract checks.
JACOBI_MAX_DIM = 128

_MAX_SWEEPS = 60

CONTRACT_TOL = 1e-10


def _jacobi(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic-by-rows Jacobi on a symmetric matrix; returns (diag, Q).

    Raises EigensolverError if a sweep still rotates after _MAX_SWEEPS.
    """
    A = A.copy()
    m = A.shape[0]
    Q = np.eye(m)
    # Threshold on the *off-diagonal* scale, not the overall one: a matrix
    # whose couplings all sit at the exp(-36) level must still have them
    # annihilated rather than skipped.
    off = float(np.abs(A - np.diag(np.diag(A))).max()) if m > 1 else 0.0
    stop = 1e-14 * off
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = A[p, q]
                if abs(apq) <= stop:
                    continue
                rotated = True
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + np.hypot(1.0, theta))
                else:
                    t = -1.0 / (-theta + np.hypot(1.0, theta))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                app, aqq = A[p, p], A[q, q]
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                A[p, :] = A[:, p]
                A[q, :] = A[:, q]
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = 0.0
                A[q, p] = 0.0
                qp = Q[:, p].copy()
                qq = Q[:, q].copy()
                Q[:, p] = c * qp - s * qq
                Q[:, q] = s * qp + c * qq
        if not rotated:
            break
    else:
        raise EigensolverError(
            f"Jacobi iteration on an order-{m} matrix was still rotating after "
            f"{_MAX_SWEEPS} sweeps"
        )
    return np.diag(A).copy(), Q


def _lapack(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh, retried on the upper triangle if it does not converge."""
    try:
        return np.linalg.eigh(A)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.eigh(A, UPLO="U")
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"LAPACK eigh did not converge on either triangle of an order-{A.shape[0]} "
            f"matrix: {exc}"
        ) from exc


def symmetric_eigen(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a real symmetric matrix.

    Returns (w, Q) with eigenvalues w ascending and orthonormal
    eigenvector columns Q[:, i], deterministically signed.  Raises
    ValueError for non-square, non-finite, or non-symmetric input
    (symmetry is required to 1e-12 relative), and EigensolverError (a
    RuntimeError) if LAPACK or Jacobi does not converge or the computed
    decomposition misses the residual or orthogonality tolerance
    CONTRACT_TOL (the residual one scaled by max(1, max|A|)).
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    m = A.shape[0]
    if m < 1:
        raise ValueError("matrix must be at least 1x1")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(A).max()))
    asym = float(np.abs(A - A.T).max())
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric: max |A - A^T| = {asym:.3e}")
    A = (A + A.T) / 2.0

    if m <= JACOBI_MAX_DIM:
        w, Q = _jacobi(A)
    else:
        w, Q = _lapack(A)

    order = np.argsort(w, kind="stable")
    w = w[order]
    Q = Q[:, order]
    for i in range(m):
        lead = int(np.argmax(np.abs(Q[:, i])))
        if Q[lead, i] < 0.0:
            Q[:, i] = -Q[:, i]

    residual = float(np.abs(A @ Q - Q * w).max())
    ortho = float(np.abs(Q.T @ Q - np.eye(m)).max())
    bound = CONTRACT_TOL * scale
    if residual > bound or ortho > CONTRACT_TOL:
        raise EigensolverError(
            f"eigendecomposition failed its contract: residual {residual:.3e} "
            f"(bound {bound:.3e}), orthogonality {ortho:.3e} (bound {CONTRACT_TOL:.3e})"
        )
    return w, Q
