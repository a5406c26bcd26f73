"""Gaussian trigonometric potential on the n-torus.

The potential is defined through its Fourier coefficients

    c(t) = exp(-(alpha_1 t_1^2 + ... + alpha_n t_n^2)),   t in Z^n,

with the t = 0 coefficient optionally replaced by 0 so the potential
has zero mean.  All coefficients are real, positive away from the
origin, and even in t, so the real-space function is a real cosine
series.

A spec with some alpha_j = 0 is called formal: every coefficient is
still well defined and finite, but the series does not converge to a
function of x_j in that direction, so real-space evaluation refuses it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormalPotentialError
from .lattice import MAX_DIMENSION

DEFAULT_TRUNCATION = 12


@dataclass(frozen=True)
class PotentialSpec:
    """Parameters of one Gaussian trigonometric potential.

    Parameters
    ----------
    n : int
        Torus dimension, 1 <= n <= 8.
    alpha : tuple of float
        Per-coordinate decay weights, all >= 0.  A zero entry makes the
        spec formal (coefficient queries fine, evaluation rejected).
    subtract_constant : bool
        If True (default) the t = 0 coefficient is 0, i.e. the constant
        Fourier mode is removed; if False it is 1.
    eval_truncation : int
        Half-width T of the evaluation box |t_j| <= T.  With weights
        >= 1 the default 12 leaves a tail below exp(-144), far under
        double precision.
    """

    n: int
    alpha: tuple[float, ...]
    subtract_constant: bool = True
    eval_truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"dimension must be an integer, got {self.n!r}")
        if not 1 <= self.n <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {self.n}")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if len(self.alpha) != self.n:
            raise ValueError(
                f"alpha has {len(self.alpha)} entries for dimension {self.n}"
            )
        for j, a in enumerate(self.alpha):
            if not math.isfinite(a) or a < 0.0:
                raise ValueError(f"alpha[{j}] must be finite and >= 0, got {a}")
        if not isinstance(self.eval_truncation, int) or self.eval_truncation < 1:
            raise ValueError(
                f"eval_truncation must be a positive integer, got {self.eval_truncation!r}"
            )

    @property
    def is_formal(self) -> bool:
        return any(a == 0.0 for a in self.alpha)

    @property
    def flat_directions(self) -> tuple[int, ...]:
        return tuple(j for j, a in enumerate(self.alpha) if a == 0.0)


def fourier_coefficient(spec: PotentialSpec, t) -> float:
    """Coefficient of e^{i t.x}; the t = 0 value follows the constant convention."""
    t = tuple(int(c) for c in t)
    if len(t) != spec.n:
        raise ValueError(f"frequency {t} has wrong dimension (expected {spec.n})")
    if all(c == 0 for c in t):
        return 0.0 if spec.subtract_constant else 1.0
    s = 0.0
    for a, c in zip(spec.alpha, t):
        s += a * (c * c)
    return math.exp(-s)


def coefficient_exponents(spec: PotentialSpec, rows, cols) -> np.ndarray:
    """Exponent matrix W[i, k] = sum_j alpha_j (rows[i, j] - cols[k, j])^2.

    `rows` and `cols` are int64 arrays of frequencies, one per row, so
    the coefficient at rows[i] - cols[k] is exp(-W[i, k]) wherever the
    difference is nonzero.  The sum runs in coordinate order from 0.0,
    which is exactly the float arithmetic of `fourier_coefficient`;
    callers apply their own exp and constant-term convention.
    """
    if rows.shape[1] != spec.n or cols.shape[1] != spec.n:
        raise ValueError(
            f"frequency arrays have {rows.shape[1]} and {cols.shape[1]} "
            f"coordinates; the potential has dimension {spec.n}"
        )
    # Two scratch arrays reused over the coordinates instead of three
    # fresh temporaries per coordinate: at Galerkin orders in the
    # thousands each one is tens of MB of page faults.
    W = np.zeros((rows.shape[0], cols.shape[0]))
    d = np.empty(W.shape, dtype=np.int64)
    term = np.empty(W.shape)
    for j, a in enumerate(spec.alpha):
        np.subtract.outer(rows[:, j], cols[:, j], out=d)
        np.multiply(d, d, out=d)
        np.multiply(d, a, out=term)
        W += term
    return W


def _require_evaluable(spec: PotentialSpec) -> None:
    if spec.is_formal:
        dirs = ", ".join(str(j) for j in spec.flat_directions)
        raise FormalPotentialError(
            "potential is formal: alpha is zero along coordinate(s) "
            f"{dirs}, so the series does not converge in those directions"
        )


def evaluate(spec: PotentialSpec, x) -> float:
    """Real-space value at a point x (length-n sequence of floats).

    Sums the cosine series over the box |t_j| <= eval_truncation.  The
    coefficients factor per coordinate, so the box sum is computed as a
    product of n one-dimensional sums; the result is identical to the
    direct box sum up to floating-point roundoff.  Rejects formal specs.
    """
    _require_evaluable(spec)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != spec.n:
        raise ValueError(f"point has dimension {x.shape[0]}, expected {spec.n}")
    return float(evaluate_batch(spec, x[None, :])[0])


def evaluate_batch(spec: PotentialSpec, xs) -> np.ndarray:
    """Vectorized `evaluate` over rows of an (N, n) array of points."""
    _require_evaluable(spec)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != spec.n:
        raise ValueError(f"expected an (N, {spec.n}) array of points, got {xs.shape}")
    T = spec.eval_truncation
    t = np.arange(1, T + 1)
    total = np.ones(xs.shape[0])
    for j, a in enumerate(spec.alpha):
        weights = np.exp(-a * t * t)
        # 1 + 2 sum_t w_t cos(t x_j): the one-dimensional factor sum
        total = total * (1.0 + 2.0 * np.cos(np.outer(xs[:, j], t)) @ weights)
    if spec.subtract_constant:
        total = total - 1.0
    return total
