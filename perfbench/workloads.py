"""Seeded question streams for the three benchmark workloads.

Nothing here imports `toruspert`: the input pools are sized with the
benchmark's own sum-of-squares enumeration, so a defect in the
library's lattice code cannot shape the inputs it is measured on.

A stream is a sequence of rounds.  Every round asks each pool item
(as often as its weight says), in a seed-shuffled order, with fresh
seed-drawn parameters (decay weights, constant-term convention and,
for the oracle, eigenvalue and coupling decades).  Runs stop on a
round boundary, so every run carries the same mix of question sizes
whatever the seed, which keeps throughput, tail latency and peak
memory comparable between seeds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("split-dense", "split-sparse", "oracle")

# Which machine-speed reference (calibrate.py) matches where each
# workload spends its time.
REFERENCE_KIND = {"split-dense": "python", "split-sparse": "python", "oracle": "lapack"}

# Load-sizing rule for second order: the resolvent arrays hold
# (box points) x m doubles several times over and the library has no
# byte budget yet, so boxes above this size exhaust a 7 GB machine
# (lambda0 = 30 on T^4 would need 35^4 x 576, about 864M entries).
SECOND_ORDER_MAX_ENTRIES = 16_000_000

ALPHA_RANGE = (0.8, 2.0)


@dataclass(frozen=True)
class Question:
    """One user question: a `split` or an `oracle` call with its inputs."""

    qid: str
    kind: str
    n: int
    lambda0: int
    alpha: tuple[float, ...]
    subtract_constant: bool
    epsilons: tuple[float, ...] = ()
    cutoff: int = 0

    def to_dict(self) -> dict:
        return {
            "qid": self.qid, "kind": self.kind, "n": self.n,
            "lambda0": self.lambda0, "alpha": list(self.alpha),
            "subtract_constant": self.subtract_constant,
            "epsilons": list(self.epsilons), "cutoff": self.cutoff,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Question":
        return cls(
            qid=d["qid"], kind=d["kind"], n=d["n"], lambda0=d["lambda0"],
            alpha=tuple(d["alpha"]), subtract_constant=d["subtract_constant"],
            epsilons=tuple(d["epsilons"]), cutoff=d["cutoff"],
        )


def sphere_points(lambda0: int, n: int) -> np.ndarray:
    """All k in Z^n with |k|^2 = lambda0, as int64 rows in ascending lex order.

    Walks the box [-r, r]^n (r = isqrt(lambda0)) over the leading
    coordinates and solves the last one with an integer square root,
    vectorized over the second-to-last, so no dead branch is explored.
    """
    if n == 1:
        r = math.isqrt(lambda0)
        if r * r != lambda0:
            return np.zeros((0, 1), dtype=np.int64)
        return np.array([[-r], [r]] if r else [[0]], dtype=np.int64)
    if n == 2:
        r = math.isqrt(lambda0)
        a = np.arange(-r, r + 1, dtype=np.int64)
        rem = lambda0 - a * a
        b = np.sqrt(rem.astype(float)).round().astype(np.int64)
        on = b * b == rem
        a, b = a[on], b[on]
        lo = np.stack([a, -b], axis=1)
        hi = np.stack([a, b], axis=1)
        pairs = np.concatenate([lo, hi[b > 0]])
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        return pairs[order]
    r = math.isqrt(lambda0)
    parts = []
    for a in range(-r, r + 1):
        tail = sphere_points(lambda0 - a * a, n - 1)
        if len(tail):
            parts.append(np.column_stack([np.full(len(tail), a, dtype=np.int64), tail]))
    if not parts:
        return np.zeros((0, n), dtype=np.int64)
    return np.concatenate(parts)


def count(lambda0: int, n: int) -> int:
    """Signed, ordered count of k in Z^n with |k|^2 = lambda0."""
    return len(sphere_points(lambda0, n))


def resolvent_cutoff(lambda0: int) -> int:
    """Box half-width the library uses for resolvent sums by default."""
    return max(math.ceil(3.0 * math.sqrt(lambda0)), 8)


def second_order_fits(lambda0: int, n: int, m: int) -> bool:
    """The load-sizing rule: resolvent box points x m within the limit."""
    return (2 * resolvent_cutoff(lambda0) + 1) ** n * m <= SECOND_ORDER_MAX_ENTRIES


# split-dense: fixed (n, lambda0) items whose verdict does not depend
# on the drawn weights, so a round does the same work for every seed.
# Multiplicities 24-256: Jacobi below 129, LAPACK above; the fully
# split items with a small resolvent box also run second order.
# The weight is how many times an item is asked per round; the weights
# put the median (T^4, m = 144) and the 90th percentile inside a size
# class rather than on the edge between two.
SPLIT_DENSE = (
    (3, 5, 2), (3, 6, 2), (3, 9, 2), (3, 14, 1), (3, 20, 2),
    (3, 26, 1), (3, 41, 1),
    (4, 2, 1), (4, 3, 1), (4, 10, 3), (4, 14, 1), (4, 21, 1),
)

# split-sparse: large eigenvalues of small multiplicity, so the
# secular matrix stays cheap and enumeration carries the load.  Each
# item is the first lambda0 >= start whose multiplicity lies in
# [m_lo, m_hi]; enumeration cost grows with lambda0 and does not
# depend on the drawn weights.  (n, start, m_lo, m_hi, weight)
SPLIT_SPARSE = (
    (2, 100_000, 16, 48, 2),
    (2, 150_000, 16, 48, 2),
    (2, 200_000, 16, 48, 1),
    (2, 300_000, 16, 48, 1),
    (3, 2_000, 16, 96, 2),
    (3, 2_500, 16, 96, 1),
    (3, 4_000, 16, 96, 1),
)

# oracle: (n, eigenvalue choices, cutoff, number of couplings, first
# decade choices, weight).  The box size N = (2 cutoff + 1)^n fixes the
# cost; the seed picks the eigenvalue (all fit inside the box), the
# weights and the first decade.  The weights put the median and the
# 90th percentile inside a size class rather than between two.
#
# On T^3 the box of half-width 3 meets the oracle's 1e-12 cutoff test
# only from eps = 1e-3 down: at 1e-2 with weights near 0.8 the cutoff
# + 2 rerun moves the cluster by about 2e-12 and the oracle rightly
# reports no convergence, so T^3 questions start at 1e-3.
ORACLE = (
    (1, (1, 4, 9, 16), 100, 3, (2, 3), 1),
    (1, (1, 4, 9, 16, 25), 150, 2, (2, 3), 1),
    (1, (4, 9, 16, 25, 36), 200, 2, (2, 3), 1),
    (2, (1, 2, 4, 5), 7, 3, (2, 3), 3),
    (2, (5, 8, 9, 10), 8, 3, (2, 3), 3),
    (2, (8, 9, 10, 13), 9, 2, (2, 3), 1),
    (3, (1, 2, 3), 3, 2, (3,), 2),
)


def _alpha(rng, n):
    return tuple(float(x) for x in rng.uniform(*ALPHA_RANGE, size=n))


def first_with_multiplicity(n, start, m_lo, m_hi):
    lam = start
    while not m_lo <= count(lam, n) <= m_hi:
        lam += 1
    return lam


def _round_items(workload, rng):
    if workload == "split-dense":
        for n, lam, weight in SPLIT_DENSE:
            for _ in range(weight):
                yield dict(kind="split", n=n, lambda0=lam)
    elif workload == "split-sparse":
        for n, start, m_lo, m_hi, weight in SPLIT_SPARSE:
            lam = first_with_multiplicity(n, start, m_lo, m_hi)
            for _ in range(weight):
                yield dict(kind="split", n=n, lambda0=lam)
    elif workload == "oracle":
        for n, lams, cutoff, k, tops, weight in ORACLE:
            for _ in range(weight):
                top = int(rng.choice(tops))
                yield dict(
                    kind="oracle", n=n, lambda0=int(rng.choice(lams)), cutoff=cutoff,
                    epsilons=tuple(10.0 ** -(top + i) for i in range(k)),
                )
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def rounds(workload: str, seed: int):
    """Endless generator of rounds (lists of Questions) for one seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    r = 0
    while True:
        items = list(_round_items(workload, rng))
        order = rng.permutation(len(items))
        batch = []
        for j, i in enumerate(order):
            item = items[i]
            batch.append(Question(
                qid=f"{r}.{j}",
                alpha=_alpha(rng, item["n"]),
                subtract_constant=bool(rng.integers(2)),
                **item,
            ))
        yield batch
        r += 1
