"""Independent answer checks, run after the timed loop.

Nothing here imports `toruspert`.  Each rendered answer is parsed back
from its JSON text and compared with quantities rebuilt from the
definitions: the eigenspace by a box count, the secular matrix entry by
entry and its spectrum by `np.linalg.eigvalsh`, the verdict from the
reported gap tolerance, second order by a separate resolvent sum, and
oracle reports against the split corrections.  A check returns None
when the answer holds and a one-line reason when it does not.
"""
from __future__ import annotations

import json
import math

import numpy as np

from workloads import Question, resolvent_cutoff, sphere_points

# B's off-diagonal is printed exp(-6) (definition exp(-36)); F's entry
# (3, 1) is printed exp(9) (definition exp(-2)).  Exponents, 0-based.
KNOWN_PRINT_DEFECTS = {
    ("B", 0, 1): (-6.0, -36.0),
    ("B", 1, 0): (-6.0, -36.0),
    ("F", 3, 1): (9.0, -2.0),
}


def _close(a, b, tol) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def secular_matrix(K: np.ndarray, alpha, subtract_constant: bool) -> np.ndarray:
    """A[u, v] = exp(-sum_j alpha_j (k_u - k_v)_j^2) with the constant convention."""
    W = np.zeros((len(K), len(K)))
    for j, a in enumerate(alpha):
        d = (K[:, j, None] - K[None, :, j]).astype(float)
        W += a * d * d
    A = np.exp(-W)
    np.fill_diagonal(A, 0.0 if subtract_constant else 1.0)
    return A


def _clusters(values, tol):
    out = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] <= tol:
            out[-1].append(i)
        else:
            out.append([i])
    return out


def _resolvent_sums(K, alpha, lambda0, B, cutoff):
    """Sum over box points p with |p|^2 != lambda0 of c_i(p) c_j(p) / (lambda0 - |p|^2).

    c_i(p) = sum_v B[v, i] exp(-sum_j alpha_j (p - k_v)_j^2).  The box
    is walked one leading coordinate at a time so memory stays at one
    slab.  Returns the coupling matrix and the matching sum of |terms|
    on its diagonal (the scale for comparisons).
    """
    n = K.shape[1]
    side = np.arange(-cutoff, cutoff + 1, dtype=np.int64)
    tail = (np.stack(np.meshgrid(*([side] * (n - 1)), indexing="ij"), axis=-1).reshape(-1, n - 1)
            if n > 1 else np.zeros((1, 0), dtype=np.int64))
    m = B.shape[1]
    coupling = np.zeros((m, m))
    scale = np.zeros(m)
    for a in side:
        P = np.column_stack([np.full(len(tail), a, dtype=np.int64), tail])
        sq = (P * P).sum(axis=1)
        keep = sq != lambda0
        P, denom = P[keep], (lambda0 - sq[keep]).astype(float)
        W = np.zeros((len(P), len(K)))
        for j, al in enumerate(alpha):
            d = (P[:, j, None] - K[None, :, j]).astype(float)
            W += al * d * d
        C = np.exp(-W) @ B
        coupling += C.T @ (C / denom[:, None])
        scale += ((C * C) / np.abs(denom)[:, None]).sum(axis=0)
    return coupling, scale


def check_split(q: Question, text: str, extra: dict | None):
    d = json.loads(text)
    if d.get("kind") != "splitting_report" or d["lambda0"] != q.lambda0 or d["n"] != q.n:
        return "report does not answer the question"
    if d["alpha"] != list(q.alpha) or d["subtract_constant"] != q.subtract_constant:
        return "report echoes other potential parameters"
    K = sphere_points(q.lambda0, q.n)
    m = len(K)
    if d["multiplicity"] != m:
        return f"multiplicity {d['multiplicity']} != box count {m}"
    if d["basis"] != K.tolist():
        return "basis differs from the lex-ordered box enumeration"
    A = secular_matrix(K, q.alpha, q.subtract_constant)
    if not _close(d["matrix"], A, 1e-14 + 1e-12 * np.abs(A)):
        return "secular matrix differs from its definition"
    norm = max(1.0, float(np.abs(A).sum(axis=1).max()))
    w = np.linalg.eigvalsh(A)
    corr = np.asarray(d["corrections"])
    if not _close(corr, w, 1e-10 * norm):
        return f"corrections off eigvalsh by {np.abs(corr - w).max():.3e}"
    Q = np.asarray(d["eigenvectors"]).T
    if np.abs(A @ Q - Q * corr).max() > 1e-9 * norm or np.abs(Q.T @ Q - np.eye(m)).max() > 1e-9:
        return "eigenvectors fail residual or orthogonality"
    tol = d["gap_tolerance"]
    if not math.isclose(tol, 1e-9 * max(1.0, float(np.abs(A).max())), rel_tol=1e-12):
        return "gap tolerance is not the documented default"
    clusters = _clusters(w, tol)
    verdict = ("fully_split" if all(len(c) == 1 for c in clusters)
               else "unsplit" if len(clusters) == 1 else "partially_split")
    if d["verdict"] != verdict or d["clusters"] != clusters:
        return f"verdict {d['verdict']} != re-derived {verdict}"
    if m > 1 and not math.isclose(d["min_gap"], float(np.diff(w).min()), abs_tol=1e-10 * norm):
        return "min_gap disagrees"
    if extra is None:
        return None
    if verdict != "fully_split":
        return "second order ran on a report that is not fully split"
    if extra["cutoff"] != resolvent_cutoff(q.lambda0):
        return "second order used another cutoff than the default"
    coupling, scale = _resolvent_sums(K, q.alpha, q.lambda0, Q, extra["cutoff"])
    second = np.asarray(extra["second_order"])
    if not _close(second, np.diag(coupling), 1e-10 * np.maximum(scale, 1e-300) + 1e-300):
        return f"second order off the resolvent sum by {np.abs(second - np.diag(coupling)).max():.3e}"
    beta = np.asarray(extra["beta"])
    gaps = corr[:, None] - corr[None, :]
    np.fill_diagonal(gaps, 1.0)
    expected = coupling.T / gaps
    np.fill_diagonal(expected, 0.0)
    bound = 1e-10 * np.sqrt(np.outer(scale, scale)) / np.abs(gaps) + 1e-300
    if not _close(beta, expected, bound):
        return "eigenvector mixing off the resolvent sum"
    return None


def check_oracle(q: Question, text: str, extra: dict | None):
    d = json.loads(text)
    if d.get("kind") != "oracle_report" or d["lambda0"] != q.lambda0 or d["n"] != q.n:
        return "report does not answer the question"
    if d["cutoff"] != q.cutoff or [r["epsilon"] for r in d["rows"]] != list(q.epsilons):
        return "report echoes another cutoff or coupling list"
    if d["passed"] is not True:
        return "oracle did not pass"
    if d["cutoff_converged"] is not True or not d["cutoff_shift"] < 1e-12:
        return "cutoff check missing or not converged"
    K = sphere_points(q.lambda0, q.n)
    if d["multiplicity"] != len(K):
        return f"multiplicity {d['multiplicity']} != box count {len(K)}"
    A = secular_matrix(K, q.alpha, q.subtract_constant)
    norm = max(1.0, float(np.abs(A).sum(axis=1).max()))
    first = np.asarray(d["first_order"])
    if not _close(first, np.linalg.eigvalsh(A), 1e-10 * norm):
        return "first_order does not match the split corrections"
    for row in d["rows"]:
        mu = np.asarray(row["eigenvalues"])
        dev = (mu - q.lambda0) / row["epsilon"]
        if not math.isclose(float(np.abs(dev - first).max()), row["max_error"],
                            rel_tol=1e-9, abs_tol=1e-12):
            return f"max_error at eps={row['epsilon']} is not max|d - first_order|"
    if not all(t["ok"] for t in d["trend"]):
        return "an O(eps) trend check failed"
    return None


CHECKS = {"split": check_split, "oracle": check_oracle}


def check_answer(record: dict):
    """Verify one answer record; returns None or a failure reason."""
    if record.get("error"):
        return f"raised {record['error']}"
    q = Question.from_dict(record["question"])
    try:
        return CHECKS[q.kind](q, record["text"], record.get("extra"))
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed answer: {exc!r}"


def check_fixture_diffs(found) -> str | None:
    """`fixtures.diff` must flag exactly the known defects in B and F."""
    got = {(c, r, k): (p, d) for c, r, k, p, d in found}
    if set(got) != set(KNOWN_PRINT_DEFECTS):
        return f"fixture diffs flag {sorted(got)}, expected {sorted(KNOWN_PRINT_DEFECTS)}"
    for key, (p_exp, d_exp) in KNOWN_PRINT_DEFECTS.items():
        p, d = got[key]
        if not (math.isclose(p, math.exp(p_exp), rel_tol=1e-12)
                and math.isclose(d, math.exp(d_exp), rel_tol=1e-12)):
            return f"fixture diff at {key} has printed {p!r}, definitional {d!r}"
    return None
