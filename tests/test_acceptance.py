"""Acceptance gate: nine checks, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see every verdict line;
without -s the lines appear only for failures.  Each check also
enforces its wall-clock budget.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import numpy as np

from toruspert import (
    PotentialSpec,
    assemble_first_order,
    eigenspace,
    evaluate_batch,
    first_order_corrections,
    fourier_coefficient,
    multiplicity,
    second_order_corrections,
    symmetric_eigen,
    validate_first_order,
)
from toruspert.fixtures import diff, get_case
from toruspert.lattice import EigenspaceBasis

from _env import subprocess_env
from _oracles import box_multiplicities, fit_through_origin, quadrature_coefficient

KNOWN_MULTIPLICITIES = [
    (325, 2, 24),
    (13, 2, 8),
    (125, 2, 16),
    (5, 3, 24),
    (9, 3, 30),
    (100, 3, 30),
    (1000, 3, 144),
    (6, 4, 96),
    (200, 4, 744),
    (2000, 4, 3744),
]


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_multiplicity_regression():
    t0 = time.monotonic()
    bad = [
        (lam, n, expected, multiplicity(lam, n))
        for lam, n, expected in KNOWN_MULTIPLICITIES
        if multiplicity(lam, n) != expected
    ]
    oracle_bad = 0
    for n in (1, 2, 3, 4):
        counts = box_multiplicities(200, n)
        oracle_bad += sum(
            1 for lam in range(201) if multiplicity(lam, n) != int(counts[lam])
        )
    elapsed = time.monotonic() - t0
    ok = not bad and oracle_bad == 0 and elapsed < 30.0
    _verdict(
        1, ok,
        f"10/10 known multiplicities exact, brute-force cross-check n<=4 "
        f"lambda<=200 clean ({oracle_bad} mismatches), {elapsed:.2f}s < 30s"
        + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_2_circle_split_cli():
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "toruspert.cli", "split",
         "--n", "1", "--lambda", "1", "--alpha", "1", "--format", "json"],
        capture_output=True, text=True, env=subprocess_env(),
    )
    elapsed = time.monotonic() - t0
    payload = json.loads(proc.stdout) if proc.returncode == 0 else {}
    corr = payload.get("corrections", [])
    gap = payload.get("min_gap", math.nan)
    ok = (
        proc.returncode == 0
        and len(corr) == 2
        and abs(corr[0] + 0.0183156) <= 1e-6
        and abs(corr[1] - 0.0183156) <= 1e-6
        and abs(gap - 2.0 * math.exp(-4)) <= 1e-10
        and payload.get("verdict") == "fully_split"
        and elapsed < 1.0
    )
    _verdict(
        2, ok,
        f"CLI split: corrections {corr}, gap {gap!r} vs 2e^-4, "
        f"exit {proc.returncode}, {elapsed:.2f}s < 1s",
    )


def test_criterion_3_four_fold_torus_eigenvalues():
    t0 = time.monotonic()
    spec = PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=False)
    rep = first_order_corrections(spec, 1, 2)
    expected = np.array([0.909346, 0.981684, 0.999665, 1.1093])
    dev = float(np.abs(rep.corrections - expected).max())
    elapsed = time.monotonic() - t0
    ok = dev <= 1e-4 and elapsed < 1.0
    _verdict(3, ok, f"4 eigenvalues within {dev:.2e} <= 1e-4, {elapsed:.2f}s < 1s")


def test_criterion_4_eight_fold_torus_eigenvalues():
    t0 = time.monotonic()
    spec = PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=False)
    rep = first_order_corrections(spec, 5, 2, gap_tolerance=1e-9)
    expected = np.array(get_case("D").printed_eigenvalues)
    dev = float(np.abs(rep.corrections - expected).max())
    elapsed = time.monotonic() - t0
    ok = dev <= 1e-4 and rep.verdict == "fully_split" and elapsed < 1.0
    _verdict(
        4, ok,
        f"8 eigenvalues within {dev:.2e} <= 1e-4, verdict {rep.verdict}, "
        f"{elapsed:.2f}s < 1s",
    )


def test_criterion_5_formal_weight_cases():
    t0 = time.monotonic()
    f_case = get_case("F")
    wf, _ = symmetric_eigen(f_case.fixture)
    f_dev = float(np.abs(wf - np.asarray(f_case.printed_eigenvalues)).max())

    g_spec = PotentialSpec(n=4, alpha=(1.0, 2.0, 0.0, 0.0), subtract_constant=False)
    g_rep = first_order_corrections(g_spec, 1, 4)
    g_printed = np.asarray(get_case("G").printed_eigenvalues)
    g_dev = float(np.abs(g_rep.corrections[3:] - g_printed[3:]).max())
    g_zero = float(np.abs(g_rep.corrections[:3]).max())

    f_flags = [(d.row, d.col) for d in diff(f_case)]
    elapsed = time.monotonic() - t0
    ok = (
        f_dev <= 1e-3
        and g_dev <= 1e-3
        and g_rep.verdict == "partially_split"
        and g_rep.clusters[0] == (0, 1, 2)
        and g_zero <= 1e-12
        and f_flags == [(3, 1)]
        and elapsed < 2.0
    )
    _verdict(
        5, ok,
        f"F within {f_dev:.2e}, G nonzero within {g_dev:.2e}, G verdict "
        f"{g_rep.verdict} with zero-cluster {g_rep.clusters[0]} (max "
        f"{g_zero:.1e}), F defect flagged at {f_flags}, {elapsed:.2f}s < 2s",
    )


def test_criterion_6_verbatim_fixture_and_diff():
    t0 = time.monotonic()
    case = get_case("B")
    w, _ = symmetric_eigen(case.fixture)
    dev = float(np.abs(w - np.array([-0.00247875, 0.00247875])).max())
    found = diff(case)
    flagged = {(d.row, d.col) for d in found}
    values_ok = all(
        d.printed == math.exp(-6) and d.definitional == math.exp(-36) for d in found
    )
    elapsed = time.monotonic() - t0
    ok = (
        dev <= 1e-8
        and flagged == {(0, 1), (1, 0)}
        and values_ok
        and elapsed < 1.0
    )
    _verdict(
        6, ok,
        f"fixture eigenvalues within {dev:.2e} <= 1e-8, diff flags "
        f"{sorted(flagged)} printed e^-6 vs definitional e^-36, "
        f"{elapsed:.2f}s < 1s",
    )


def test_criterion_7_oracle_convergence():
    t0 = time.monotonic()
    circle = PotentialSpec(n=1, alpha=(1.0,))
    val1 = validate_first_order(circle, 1, 1, [1e-2, 1e-3, 1e-4], cutoff=10)
    ratios = [t.ratio for t in val1.trend]
    trend_ok = val1.passed and all(
        r is not None and 0.02 <= r <= 0.5 for r in ratios
    )

    torus = PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=True)
    val2 = validate_first_order(torus, 5, 2, [1e-2, 1e-3], cutoff=8)
    err = next(r.max_error for r in val2.rows if r.epsilon == 1e-3)
    elapsed = time.monotonic() - t0
    ok = trend_ok and val2.passed and err <= 5e-3 and elapsed < 30.0
    _verdict(
        7, ok,
        f"circle decade ratios {['%.4f' % r for r in ratios]} in [0.02, 0.5], "
        f"torus branch error {err:.2e} <= 5e-3 at eps=1e-3, {elapsed:.2f}s < 30s",
    )


def test_criterion_8_invariant_suites():
    t0 = time.monotonic()
    problems = []

    # secular matrices are exactly symmetric
    cases = [
        (PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=False), 5, 2),
        (PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=True), 1, 2),
        (PotentialSpec(n=1, alpha=(1.0,)), 1, 1),
    ]
    for spec, lam, n in cases:
        entries = assemble_first_order(spec, eigenspace(lam, n)).entries
        if not np.array_equal(entries, entries.T):
            problems.append(f"symmetry({lam},{n})")

    # eigensolver residual / orthogonality / off-diagonal annihilation
    rng = np.random.default_rng(7)
    mats = [get_case(name).fixture for name in ("C", "D", "F", "G")]
    B = rng.standard_normal((40, 40))
    mats.append((B + B.T) / 2.0)
    for idx, A in enumerate(mats):
        w, Q = symmetric_eigen(A)
        scale = max(1.0, float(np.abs(A).max()))
        if float(np.abs(A @ Q - Q * w).max()) > 1e-10 * scale:
            problems.append(f"residual#{idx}")
        if float(np.abs(Q.T @ Q - np.eye(len(w))).max()) > 1e-10:
            problems.append(f"orthogonality#{idx}")
        D = Q.T @ A @ Q
        if float(np.abs(D - np.diag(np.diag(D))).max()) > 1e-10 * scale:
            problems.append(f"annihilation#{idx}")

    # quadrature recovery of coefficients, n <= 2, |t_j| <= 3
    grid = np.arange(64) * (2.0 * math.pi / 64)
    for spec in (
        PotentialSpec(n=1, alpha=(1.0,), subtract_constant=True),
        PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=False),
    ):
        if spec.n == 1:
            pts, shape = grid[:, None], (64,)
        else:
            ax = np.meshgrid(grid, grid, indexing="ij")
            pts, shape = np.column_stack([a.ravel() for a in ax]), (64, 64)
        sampled = evaluate_batch(spec, pts).reshape(shape)
        worst = 0.0
        for t in np.ndindex(*(7,) * spec.n):
            tt = tuple(int(c) - 3 for c in t)
            approx = quadrature_coefficient(sampled, grid, tt)
            worst = max(worst, abs(approx - fourier_coefficient(spec, tt)))
        if worst > 1e-10:
            problems.append(f"quadrature(n={spec.n}):{worst:.1e}")

    # diagonal convention shifts corrections but not gaps or verdict
    rep0 = first_order_corrections(
        PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=True), 1, 2
    )
    rep1 = first_order_corrections(
        PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=False), 1, 2
    )
    if abs(rep0.min_gap - rep1.min_gap) > 1e-12 or rep0.verdict != rep1.verdict:
        problems.append("diag-convention")

    # basis permutation leaves sorted corrections invariant
    basis = eigenspace(5, 2)
    ref = first_order_corrections(
        PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=False), 5, 2
    ).corrections
    perm = [3, 0, 7, 1, 6, 2, 5, 4]
    shuffled = EigenspaceBasis(
        lambda0=5, n=2, frequencies=tuple(basis.frequencies[i] for i in perm)
    )
    w_perm, _ = symmetric_eigen(
        assemble_first_order(
            PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=False), shuffled
        ).entries
    )
    if float(np.abs(w_perm - ref).max()) > 1e-12:
        problems.append("basis-permutation")

    # negation permutation commutes with assembly, exactly
    entries = assemble_first_order(
        PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=False), basis
    ).entries
    freqs = list(basis.frequencies)
    neg = [freqs.index(tuple(-c for c in k)) for k in freqs]
    if not np.array_equal(entries[np.ix_(neg, neg)], entries):
        problems.append("negation")

    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 60.0
    _verdict(
        8, ok,
        f"symmetry, solver contract, annihilation, quadrature, convention, "
        f"permutation, negation all clean, {elapsed:.2f}s < 60s"
        + (f"; failing: {problems}" if problems else ""),
    )


def test_criterion_9_second_order_cross_validation():
    t0 = time.monotonic()
    circle = PotentialSpec(n=1, alpha=(1.0,))
    rep = first_order_corrections(circle, 1, 1)
    so = second_order_corrections(circle, 1, 1, rep.eigenvectors, cutoff=10)

    eps_list = [1e-2, 3e-3, 1e-3]
    val = validate_first_order(circle, 1, 1, eps_list, cutoff=10)
    rel_errs = []
    for i in range(rep.multiplicity):
        xs = [eps * eps for eps in eps_list]
        ys = [
            row.epsilon * (row.d[i] - float(rep.corrections[i]))
            for row in val.rows
        ]
        slope = fit_through_origin(xs, ys)
        rel_errs.append(abs(slope - float(so.values[i])) / abs(float(so.values[i])))
    worst = max(rel_errs)
    elapsed = time.monotonic() - t0
    ok = worst <= 0.05 and elapsed < 10.0
    _verdict(
        9, ok,
        f"resolvent second order {np.round(so.values, 6).tolist()} vs quadratic "
        f"fit within {worst:.2%} <= 5%, {elapsed:.2f}s < 10s",
    )
