"""Independent reference implementations used to check the package.

Everything here deliberately avoids the library's own code paths:
counting is done by exhaustive box enumeration with numpy histograms,
series are summed with naive Python loops, and resolvent sums are
written out longhand.  Slow and obvious beats fast and shared.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def box_multiplicities(lambda_max: int, n: int) -> np.ndarray:
    """counts[s] = #{k in Z^n : |k|^2 = s} for s <= lambda_max."""
    r = math.isqrt(lambda_max) + 1
    sq = np.arange(-r, r + 1, dtype=np.int64) ** 2
    total = functools.reduce(np.add.outer, [sq] * n).ravel()
    keep = total <= lambda_max
    return np.bincount(total[keep], minlength=lambda_max + 1)


def sphere_points(lambda0: int, n: int) -> list[tuple[int, ...]]:
    """Every k in Z^n with |k|^2 = lambda0, sorted, as tuples of Python ints.

    Filters the whole cube [-r, r]^n (r = isqrt(lambda0)) with numpy and
    sorts the survivors, instead of recursing over coordinates.
    """
    r = math.isqrt(lambda0)
    side = np.arange(-r, r + 1, dtype=np.int64)
    grids = np.meshgrid(*([side] * n), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    keep = (points * points).sum(axis=1) == lambda0
    return sorted(tuple(row) for row in points[keep].tolist())


def naive_potential_value(alpha, x, subtract_constant: bool, truncation: int) -> float:
    """Direct cosine-series sum over the whole frequency box."""
    n = len(alpha)
    total = 0.0
    for t in itertools.product(range(-truncation, truncation + 1), repeat=n):
        if all(c == 0 for c in t):
            coeff = 0.0 if subtract_constant else 1.0
        else:
            coeff = math.exp(-sum(a * c * c for a, c in zip(alpha, t)))
        total += coeff * math.cos(sum(c * xi for c, xi in zip(t, x)))
    return total


def quadrature_coefficient(values_on_grid: np.ndarray, grid_1d: np.ndarray, t) -> complex:
    """Mean of V(x) e^{-i t.x} over the uniform periodic grid.

    `values_on_grid` must be the potential sampled on the meshgrid built
    from `grid_1d` in ij-indexing, one axis per coordinate.
    """
    n = len(t)
    axes = np.meshgrid(*([grid_1d] * n), indexing="ij")
    phase = np.zeros_like(values_on_grid, dtype=float)
    for c, ax in zip(t, axes):
        phase += c * ax
    integrand = values_on_grid * np.exp(-1j * phase)
    return complex(integrand.mean())


def brute_second_order(alpha, subtract_constant, lambda0, frequencies, branches, cutoff):
    """Longhand resolvent sum for second-order corrections.

    `frequencies` is the ordered eigenspace; `branches` has one branch
    vector per column.
    """
    n = len(alpha)
    m, k = branches.shape
    values = []
    for i in range(k):
        total = 0.0
        for point in itertools.product(range(-cutoff, cutoff + 1), repeat=n):
            s = sum(c * c for c in point)
            if s == lambda0:
                continue
            num = 0.0
            for v in range(m):
                diff = tuple(a - b for a, b in zip(point, frequencies[v]))
                if all(c == 0 for c in diff):
                    coeff = 0.0 if subtract_constant else 1.0
                else:
                    coeff = math.exp(-sum(a * c * c for a, c in zip(alpha, diff)))
                num += branches[v, i] * coeff
            total += num * num / (lambda0 - s)
        values.append(total)
    return values


def brute_branch_coupling(alpha, subtract_constant, lambda0, frequencies, branches, cutoff):
    """Longhand inter-branch resolvent couplings N[j, i]."""
    n = len(alpha)
    m, k = branches.shape
    coupling = np.zeros((k, k))
    for point in itertools.product(range(-cutoff, cutoff + 1), repeat=n):
        s = sum(c * c for c in point)
        if s == lambda0:
            continue
        c_vec = np.zeros(k)
        for i in range(k):
            num = 0.0
            for v in range(m):
                diff = tuple(a - b for a, b in zip(point, frequencies[v]))
                if all(c == 0 for c in diff):
                    coeff = 0.0 if subtract_constant else 1.0
                else:
                    coeff = math.exp(-sum(a * c * c for a, c in zip(alpha, diff)))
                num += branches[v, i] * coeff
            c_vec[i] = num
        coupling += np.outer(c_vec, c_vec) / (lambda0 - s)
    return coupling


def fit_through_origin(xs, ys) -> float:
    """Least-squares slope of y = c * x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return float((ys @ xs) / (xs @ xs))
