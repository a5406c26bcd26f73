"""Machine-speed references for normalizing times on a shared machine.

The speed of a shared machine drifts by tens of percent over seconds
to minutes as other tenants load it, which would swamp the run-to-run
comparison of a library change.  A reference is a fixed task, owned by
the benchmark and independent of the library, timed between questions
and around each set-up probe; a measured time multiplied by
NOMINAL_S[kind] / (reference time) is the time at one fixed machine
speed, so drifts cancel while a change in the library's own cost does
not.  Interpreter-bound and LAPACK-bound code drift differently, so
there are two kinds, and each workload uses the one that matches where
its time goes:

* "python": recursive calls over small Python objects, element-wise
  numpy steps on small arrays, a small eigensolve and JSON rendering of
  floats (enumeration, assembly, Jacobi, reports);
* "lapack": a dense symmetric eigensolve with eigenvectors and a
  matrix product of order 400 (the Galerkin oracle).
"""
from __future__ import annotations

import json
import time

import numpy as np

# Reference times at the speed normalized times are expressed in
# (about the reference times on a 2-core x86-64 container with one BLAS
# thread).  Changing one rescales every time normalized by it.
NOMINAL_S = {"python": 0.008, "lapack": 0.018}

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((48, 48))
_SYM96 = _RNG.standard_normal((96, 96))
_SYM96 = _SYM96 + _SYM96.T
_SYM400 = _RNG.standard_normal((400, 400))
_SYM400 = _SYM400 + _SYM400.T
_FLOATS = _RNG.standard_normal(1500).tolist()


def _points(rem, slots):
    if slots == 0:
        return [()] if rem == 0 else []
    out = []
    a = 0
    while a * a <= rem:
        for tail in _points(rem - a * a, slots - 1):
            out.append((a,) + tail)
        a += 1
    return out


def _python_task():
    _points(900, 3)
    A = _SMALL.copy()
    for p in range(120):
        q = (p * 7 + 1) % 48
        col = A[:, p % 48].copy()
        A[:, p % 48] = 0.8 * col - 0.6 * A[:, q]
        A[:, q] = 0.6 * col + 0.8 * A[:, q]
    np.linalg.eigh(_SYM96)
    json.dumps(_FLOATS)


def _lapack_task():
    _, Q = np.linalg.eigh(_SYM400)
    Q @ Q.T


_TASKS = {"python": _python_task, "lapack": _lapack_task}


def reference_seconds(kind: str) -> float:
    """Time of one run of the reference task of this kind."""
    start = time.perf_counter()
    _TASKS[kind]()
    return time.perf_counter() - start


def scale(kind: str, before: float, after: float) -> float:
    """Factor that puts a time measured between two references at nominal speed."""
    return NOMINAL_S[kind] * 2.0 / (before + after)
