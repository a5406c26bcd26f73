"""Span tracing around the public functions of each `toruspert` layer.

Wrappers are installed only for the traced run.  `install` rebinds a
function under every name that refers to it in any loaded `toruspert`
module (so `perturbation.eigenspace` and `galerkin.symmetric_eigen`
are traced along with `lattice.eigenspace` and
`eigensolve.symmetric_eigen`) and returns the function that puts the
originals back.  The library itself is not edited.

A span records its name, start, end, parent span and question id.
Spans stay in memory; `spans_json` writes them out when the run ends.
Counts of computed work (coefficients, eigensolver work, matrix
bytes) are derived from argument and result shapes at the same
boundaries, never timed inside the library.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from workloads import resolvent_cutoff

# Same size class the library's eigensolver uses to pick Jacobi or LAPACK.
SMALL_EIGEN_MAX = 128

_MARK = "_perfbench_original"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, qid]
        self.counts = defaultdict(float)
        self._stack = []
        self.qid = None

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.qid])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self, scales) -> dict[str, float]:
        """Span duration minus the time its child spans cover, by name.

        Each span is multiplied by its question's machine-speed scale.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, qid) in enumerate(self.spans):
            out[name] += ((end - start) - child[i]) * scales[qid]
        return dict(out)

    def calls(self) -> dict[str, int]:
        out = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return dict(out)

    def spans_json(self) -> str:
        keys = ("name", "start", "end", "parent", "qid")
        return json.dumps([dict(zip(keys, s)) for s in self.spans])


def _resolvent_box(lambda0, n, cutoff, m):
    """Box points outside the eigenspace that a resolvent sum visits."""
    if cutoff is None:
        cutoff = resolvent_cutoff(lambda0)
    return (2 * cutoff + 1) ** n - m


def _hooks(tp, c):
    """(owner, attribute, span name or namer, counter) for each traced entry point.

    `c` is the tracer's counts; counters see (args, kwargs, result).
    """

    def vectors(args, kwargs, result):
        c["lattice.vectors"] += result.multiplicity

    def secular(args, kwargs, result):
        c["potential.coefficients"] += result.entries.size

    def resolvent(rows):
        def count(args, kwargs, result):
            spec, lambda0, n, arg = args[:4]
            cutoff = args[4] if len(args) > 4 else kwargs.get("cutoff")
            m = rows(arg)
            terms = _resolvent_box(lambda0, n, cutoff, m) * m
            c["perturbation.resolvent_terms"] += terms
            c["potential.coefficients"] += terms
        return count

    def eigen_name(args, kwargs):
        order = len(args[0])
        c["eigensolve.work"] += float(order) ** 3
        return "eigensolve.small" if order <= SMALL_EIGEN_MAX else "eigensolve.large"

    def galerkin(args, kwargs, result):
        N = result.size
        c["galerkin.matrix_bytes"] += 8 * N * N
        c["potential.coefficients"] += N * N

    def validated(args, kwargs, result):
        # Each truncation is diagonalized in full; only the m-fold
        # cluster near lambda0 is kept.
        N = (2 * result.cutoff + 1) ** result.n
        reruns = 0 if result.cutoff_shift is None else 1
        c["galerkin.eigen_kept"] += result.multiplicity * (len(result.rows) + reruns)
        c["galerkin.eigen_computed"] += (
            len(result.rows) * N + reruns * (2 * result.cutoff + 5) ** result.n
        )

    def rendered(args, kwargs, result):
        c["reports.bytes"] += len(result)

    return [
        (tp.lattice, "eigenspace", "lattice.eigenspace", vectors),
        (tp.lattice, "lattice_box", "lattice.lattice_box", None),
        (tp.lattice, "multiplicity", "lattice.multiplicity", None),
        (tp.lattice, "representations", "lattice.representations", None),
        (tp.perturbation, "assemble_first_order", "perturbation.assemble_first_order", secular),
        (tp.perturbation, "first_order_corrections", "perturbation.first_order_corrections", None),
        (tp.perturbation, "second_order_corrections", "perturbation.second_order_corrections",
         resolvent(len)),
        (tp.perturbation, "eigenvector_correction_coefficients",
         "perturbation.eigenvector_correction_coefficients",
         resolvent(lambda report: report.multiplicity)),
        (tp.eigensolve, "symmetric_eigen", eigen_name, None),
        (tp.galerkin, "assemble_galerkin", "galerkin.assemble_galerkin", galerkin),
        (tp.galerkin, "validate_first_order", "galerkin.validate_first_order", validated),
        (tp.galerkin, "eigen_near", "galerkin.eigen_near", None),
        (tp.reports, "json_text", "reports.json_text", rendered),
        (tp.perturbation.SplittingReport, "to_dict", "reports.to_dict", None),
        (tp.galerkin.GalerkinValidation, "to_dict", "reports.to_dict", None),
    ]


def _wrap(tracer, fn, name, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        span = tracer.open(label)
        try:
            result = fn(*args, **kwargs)
        except RuntimeError:
            if label.startswith("eigensolve."):
                tracer.counts["eigensolve.contract_failures"] += 1
            raise
        finally:
            tracer.close(span)
        if counter is not None:
            counter(args, kwargs, result)
        return result

    setattr(wrapper, _MARK, fn)
    return wrapper


def _toruspert_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "toruspert" or k.startswith("toruspert."))]


def install(tracer: Tracer, tp):
    """Wrap every traced entry point; returns a function that undoes it."""
    undo = []
    modules = _toruspert_modules()
    for owner, attr, name, counter in _hooks(tp, tracer.counts):
        original = owner.__dict__[attr]
        wrapper = _wrap(tracer, original, name, counter)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [m for m in modules if m.__dict__.get(attr) is original]
        for target in targets:
            setattr(target, attr, wrapper)
            undo.append((target, attr, original))

    def uninstall():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return uninstall


def installed_wrappers() -> list[str]:
    """Names of benchmark wrappers currently bound in `toruspert`."""
    found = []
    for module in _toruspert_modules():
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__.startswith("toruspert"):
                for meth, fn in vars(value).items():
                    if hasattr(fn, _MARK):
                        found.append(f"{value.__module__}.{value.__name__}.{meth}")
    return sorted(set(found))
