"""Spectrum and eigenspaces of the Laplacian on the flat n-torus.

The Fourier modes e^{i k.x} with k in Z^n diagonalize the (negative)
Laplacian with eigenvalue |k|^2 = k_1^2 + ... + k_n^2, so the spectrum
is the set of integers representable as a sum of n squares.  The
multiplicity of an eigenvalue counts signed, ordered integer vectors,
while `representations` lists the canonical unsigned nondecreasing
tuples; expanding a representation over coordinate permutations and
sign choices recovers the signed count.

`eigenspace` is derived from `representations`: each canonical tuple
is expanded over its distinct coordinate orderings and the signs of
its nonzero entries, and the union is sorted once.  The size of that
expansion is known exactly from the tuples alone, so an eigenspace
too large to list is refused before a single vector exists.  Counting is kept
separate from listing, because a count costs far less than the list it
counts: `multiplicity` and `spectrum_up_to` use a memoized counter
whose memo lives for one call.  Both recursions run over the
coordinates in order and solve the last one in closed form: once the
earlier coordinates leave a remainder r, the last coordinate is
+-isqrt(r) when r is a perfect square and absent otherwise, so no loop
runs over it.  Everything stays exact integer arithmetic on Python ints.

Eigenspace bases are always listed in ascending lexicographic order of
the frequency vectors, which fixes row/column conventions everywhere
downstream.  The sup-norm box that truncates resolvent sums and the
Galerkin oracle is built once, by `box_points`, as an int64 array in
the same order; `lattice_box` is its tuple view.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyEigenspaceError, check_size

# Enumeration is exact integer arithmetic; the cap only bounds runtime.
MAX_DIMENSION = 8

# Largest eigenspace that is listed.  A listed vector costs about 200
# bytes (tuple, list and tuple slots, the basis's duplicate-check set;
# measured 140-195 B for n = 4-8) and about 4 us.  Every consumer of a
# basis refuses more than perturbation.MAX_MULTIPLICITY = 4096 modes,
# so the cap only keeps larger listings for inspection under about
# 0.2 GB and a few seconds.
MAX_EIGENSPACE_MODES = 2**20
_BYTES_PER_VECTOR = 200

LatticeVector = tuple[int, ...]


def squared_norm(v: LatticeVector) -> int:
    """Sum of squared entries of an integer vector."""
    return sum(c * c for c in v)


def _check_dimension(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"dimension must be an integer, got {n!r}")
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {n}")


def _check_lambda(lambda0: int) -> None:
    if not isinstance(lambda0, int) or isinstance(lambda0, bool):
        raise ValueError(f"eigenvalue must be an integer, got {lambda0!r}")
    if lambda0 < 0:
        raise ValueError(f"eigenvalue must be non-negative, got {lambda0}")


def _signed_count(rem: int, slots: int, memo: dict) -> int:
    if slots == 1:
        s = math.isqrt(rem)
        if s * s != rem:
            return 0
        return 2 if s else 1
    total = memo.get((rem, slots))
    if total is None:
        total = _signed_count(rem, slots - 1, memo)
        total += 2 * sum(
            _signed_count(rem - a * a, slots - 1, memo)
            for a in range(1, math.isqrt(rem) + 1)
        )
        memo[rem, slots] = total
    return total


def multiplicity(lambda0: int, n: int) -> int:
    """Number of k in Z^n with |k|^2 = lambda0 (signed, ordered count).

    Returns 0 when lambda0 is not a sum of n squares; multiplicity(0, n)
    is 1 for every n.
    """
    _check_lambda(lambda0)
    _check_dimension(n)
    return _signed_count(lambda0, n, {})


def _representations(rem: int, slots: int, lo: int) -> list[LatticeVector]:
    if slots == 1:
        a = math.isqrt(rem)
        return [(a,)] if a * a == rem and a >= lo else []
    out = []
    a = lo
    while slots * a * a <= rem:
        for tail in _representations(rem - a * a, slots - 1, a):
            out.append((a,) + tail)
        a += 1
    return out


def representations(lambda0: int, n: int) -> list[LatticeVector]:
    """Canonical representations of lambda0 as a sum of n squares.

    Each representation is a nondecreasing tuple of non-negative
    integers (a_1 <= ... <= a_n) with sum a_j^2 = lambda0; the list is
    sorted lexicographically.  Empty when lambda0 is not representable.
    """
    _check_lambda(lambda0)
    _check_dimension(n)
    return _representations(lambda0, n, 0)


def _expansion_size(values: LatticeVector) -> int:
    """Signed orderings of a nondecreasing tuple.

    n! / prod(count of each value)! distinct orderings, times 2 per
    nonzero entry for its sign.
    """
    size = math.factorial(len(values))
    for _, run in itertools.groupby(values):
        size //= math.factorial(len(tuple(run)))
    return size << sum(1 for a in values if a)


def _orderings(values: LatticeVector) -> list[LatticeVector]:
    """Distinct orderings of a nondecreasing tuple, in ascending lex order."""
    if len(values) <= 1:
        return [values]
    out = []
    for i, a in enumerate(values):
        if i and values[i - 1] == a:
            continue
        out.extend((a,) + tail for tail in _orderings(values[:i] + values[i + 1:]))
    return out


@dataclass(frozen=True)
class EigenspaceBasis:
    """Ordered Fourier basis of one Laplacian eigenspace.

    `frequencies` holds every k in Z^n with |k|^2 = lambda0.  The
    canonical constructor (`eigenspace`) lists them in ascending
    lexicographic order; the invariants checked here (correct norms, no
    duplicates, closure under negation) hold for any ordering, which
    tests exploit to permute bases.
    """

    lambda0: int
    n: int
    frequencies: tuple[LatticeVector, ...]

    def __post_init__(self):
        seen = set(self.frequencies)
        if len(seen) != len(self.frequencies):
            raise ValueError("duplicate frequency in eigenspace basis")
        for k in self.frequencies:
            if len(k) != self.n:
                raise ValueError(f"frequency {k} has wrong dimension (expected {self.n})")
            if squared_norm(k) != self.lambda0:
                raise ValueError(f"frequency {k} has |k|^2 != {self.lambda0}")
            if tuple(-c for c in k) not in seen:
                raise ValueError(f"basis not closed under negation: missing -{k}")

    @property
    def multiplicity(self) -> int:
        return len(self.frequencies)


def eigenspace(lambda0: int, n: int) -> EigenspaceBasis:
    """Eigenspace basis for eigenvalue lambda0 in dimension n.

    Every canonical representation is expanded over its distinct
    coordinate orderings and the signs of its nonzero entries; the
    frequencies are then sorted once into ascending lexicographic order.
    Raises EmptyEigenspaceError when lambda0 is not a sum of n squares,
    and ResourceLimitError, before listing, when the eigenspace has more
    than MAX_EIGENSPACE_MODES vectors.
    """
    _check_lambda(lambda0)
    _check_dimension(n)
    reps = _representations(lambda0, n, 0)
    count = sum(map(_expansion_size, reps))
    check_size(
        f"eigenspace of {lambda0} in dimension {n}", count, "modes",
        MAX_EIGENSPACE_MODES, count * _BYTES_PER_VECTOR,
    )
    vectors = sorted(
        k
        for rep in reps
        for ordering in _orderings(rep)
        for k in itertools.product(*[(-c, c) if c else (0,) for c in ordering])
    )
    if not vectors:
        raise EmptyEigenspaceError(
            f"{lambda0} is not a sum of {n} squares; the eigenspace is empty"
        )
    return EigenspaceBasis(lambda0=lambda0, n=n, frequencies=tuple(vectors))


def box_points(n: int, radius: int) -> np.ndarray:
    """All k in Z^n with max_j |k_j| <= radius, as int64 rows in ascending lex order.

    The first coordinate varies slowest (an "ij" meshgrid), so row i is
    the i-th tuple of itertools.product(range(-radius, radius + 1), repeat=n).
    """
    _check_dimension(n)
    if not isinstance(radius, int) or radius < 0:
        raise ValueError(f"radius must be a non-negative integer, got {radius!r}")
    side = np.arange(-radius, radius + 1, dtype=np.int64)
    grids = np.meshgrid(*([side] * n), indexing="ij", copy=False)
    return np.stack(grids, axis=-1).reshape(-1, n)


def lattice_box(n: int, radius: int) -> list[LatticeVector]:
    """`box_points` as a list of tuples of Python ints, in the same order."""
    return list(map(tuple, box_points(n, radius).tolist()))


def spectrum_up_to(lambda_max: int, n: int) -> list[tuple[int, int]]:
    """Ascending list of (eigenvalue, multiplicity) pairs up to lambda_max."""
    _check_lambda(lambda_max)
    _check_dimension(n)
    out = []
    memo: dict = {}
    for lam in range(lambda_max + 1):
        m = _signed_count(lam, n, memo)
        if m > 0:
            out.append((lam, m))
    return out
