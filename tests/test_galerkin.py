"""Truncated-operator cross-checks of the perturbative predictions."""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from toruspert import (
    CouplingTooLargeError,
    PotentialSpec,
    ResourceLimitError,
    assemble_galerkin,
    eigen_near,
    first_order_corrections,
    fourier_coefficient,
    validate_first_order,
)
from toruspert import galerkin

CIRCLE = PotentialSpec(n=1, alpha=(1.0,))


def test_operator_structure():
    op = assemble_galerkin(CIRCLE, 1, 0.25, 2)
    assert op.basis == ((-2,), (-1,), (0,), (1,), (2,))
    assert op.size == 5
    H = op.matrix
    assert np.array_equal(H, H.T)
    assert np.array_equal(np.diag(H), [4.0, 1.0, 0.0, 1.0, 4.0])
    for i, mi in enumerate(op.basis):
        for j, mj in enumerate(op.basis):
            if i == j:
                continue
            t = tuple(a - b for a, b in zip(mi, mj))
            assert H[i, j] == 0.25 * fourier_coefficient(CIRCLE, t)


def test_operator_keeps_constant_on_diagonal():
    spec = PotentialSpec(n=1, alpha=(1.0,), subtract_constant=False)
    op = assemble_galerkin(spec, 1, 0.5, 1)
    assert np.allclose(np.diag(op.matrix), [1.5, 0.5, 1.5], atol=1e-15, rtol=0)


def test_eigen_near_unperturbed():
    op = assemble_galerkin(CIRCLE, 1, 0.0, 2)
    assert eigen_near(op, 1, 2).tolist() == [1.0, 1.0]
    assert eigen_near(op, 1, 3).tolist() == [0.0, 1.0, 1.0]
    # distance ties (0 and 4 from lambda0=2) resolve toward the smaller
    assert eigen_near(op, 2, 3).tolist() == [0.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        eigen_near(op, 1, 0)
    with pytest.raises(ValueError):
        eigen_near(op, 1, 6)


def test_circle_validation_passes():
    val = validate_first_order(CIRCLE, 1, 1, [1e-2, 1e-3], cutoff=8)
    assert val.multiplicity == 2
    assert val.passed
    assert val.cutoff_shift == 0.0
    assert val.cutoff_converged is True
    assert val.formal_warning is None
    # deviation from first order is dominated by the eps^2 term
    assert val.rows[0].max_error == pytest.approx(2.25e-3, rel=0.05)
    assert val.rows[1].max_error == pytest.approx(2.25e-4, rel=0.05)
    t = val.trend[0]
    assert (t.band_low, t.band_high) == (pytest.approx(0.02), pytest.approx(0.5))
    assert t.ratio == pytest.approx(0.1, rel=0.01)
    assert t.ok


@pytest.mark.parametrize(
    "alpha,subtract_constant,eps,cutoff",
    [
        (1.3846692728648238, True, [1e-3, 1e-4], 90),
        (1.9000027731007898, False, [1e-2, 1e-3], 150),
    ],
)
def test_cutoff_check_passes_on_converged_large_boxes(
    alpha, subtract_constant, eps, cutoff
):
    # Orders 181-305 go through LAPACK, whose raw eigenvalue error grows
    # with the cutoff^2 diagonal; the refined cluster must still agree
    # between cutoff and cutoff + 2 under the unchanged 1e-12 test.
    spec = PotentialSpec(n=1, alpha=(alpha,), subtract_constant=subtract_constant)
    val = validate_first_order(spec, 4, 1, eps, cutoff=cutoff)
    assert val.cutoff_shift < 1e-12
    assert val.cutoff_converged is True
    assert val.passed


def test_circle_cluster_tracks_predictions():
    rep = first_order_corrections(CIRCLE, 1, 1)
    val = validate_first_order(CIRCLE, 1, 1, [1e-3], cutoff=8)
    d = np.asarray(val.rows[0].d)
    assert np.abs(d - rep.corrections).max() <= 5e-4
    assert list(val.first_order) == list(rep.corrections)


def test_torus_validation_passes():
    spec = PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=True)
    val = validate_first_order(spec, 5, 2, [1e-2, 1e-3], cutoff=8)
    assert val.multiplicity == 8
    assert val.passed
    assert val.rows[0].max_error <= 5e-3
    assert val.rows[1].max_error <= 5e-4
    assert val.trend[0].ok
    assert val.cutoff_shift is not None and val.cutoff_shift < 1e-12


def test_zero_coupling_row_is_trivial():
    val = validate_first_order(CIRCLE, 1, 1, [1e-3, 0.0], cutoff=8)
    row = val.rows[1]
    assert row.epsilon == 0.0
    assert row.d is None
    assert row.max_error == 0.0
    assert row.eigenvalues == (1.0, 1.0)
    assert val.trend[0].ratio is None and val.trend[0].ok
    assert val.passed


def test_formal_spec_skips_cutoff_check():
    spec = PotentialSpec(n=2, alpha=(1.0, 0.0), subtract_constant=False)
    val = validate_first_order(spec, 1, 2, [1e-3], cutoff=4)
    assert val.formal_warning is not None
    assert val.cutoff_shift is None
    assert val.cutoff_converged is None
    assert val.passed


def test_strong_coupling_detected():
    spec = PotentialSpec(n=2, alpha=(0.1, 0.1), subtract_constant=True)
    with pytest.raises(CouplingTooLargeError, match="not isolated"):
        validate_first_order(spec, 5, 2, [0.6], cutoff=5)


def test_cutoff_must_cover_eigenspace():
    spec = PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=True)
    with pytest.raises(ValueError, match="does not contain"):
        validate_first_order(spec, 9, 2, [1e-3], cutoff=2)


def test_epsilon_list_validation():
    for bad in ([], [1e-3, 1e-2], [1.0], [-1e-3], [1e-2, 1e-2]):
        with pytest.raises(ValueError):
            validate_first_order(CIRCLE, 1, 1, bad, cutoff=8)


def test_operator_validation():
    with pytest.raises(ValueError):
        assemble_galerkin(CIRCLE, 2, 1e-3, 4)
    with pytest.raises(ValueError):
        assemble_galerkin(CIRCLE, 1, 1.0, 4)
    with pytest.raises(ValueError):
        assemble_galerkin(CIRCLE, 1, -0.1, 4)
    with pytest.raises(ValueError):
        assemble_galerkin(CIRCLE, 1, 1e-3, 0)
    spec2 = PotentialSpec(n=2, alpha=(1.0, 1.0))
    with pytest.raises(ResourceLimitError):
        assemble_galerkin(spec2, 2, 1e-3, 75)


def test_report_serialization():
    val = validate_first_order(CIRCLE, 1, 1, [1e-2, 1e-3], cutoff=8)
    d = val.to_dict()
    assert d["schema"] == 1
    assert d["kind"] == "oracle_report"
    assert d["lambda0"] == 1 and d["n"] == 1
    assert d["passed"] is True
    assert len(d["rows"]) == 2
    assert len(d["trend"]) == 1
    assert d["trend"][0]["band"] == [pytest.approx(0.02), pytest.approx(0.5)]
    fan = val.fan_rows()
    assert len(fan) == 4
    assert fan[0] == (1e-2, 0, val.rows[0].eigenvalues[0])
    assert fan[3] == (1e-3, 1, val.rows[1].eigenvalues[1])


def _galerkin_matrix_longhand(spec, epsilon, basis):
    """Reference operator: exponents summed entry by entry, then np.exp."""
    size = len(basis)
    W = np.empty((size, size))
    for i, p in enumerate(basis):
        for k, q in enumerate(basis):
            s = 0.0
            for a, pj, qj in zip(spec.alpha, p, q):
                s += a * ((pj - qj) * (pj - qj))
            W[i, k] = s
    H = np.exp(-W)
    if spec.subtract_constant:
        np.fill_diagonal(H, 0.0)
    H *= epsilon
    H[np.diag_indices(size)] += [float(sum(c * c for c in p)) for p in basis]
    return H


@pytest.mark.parametrize(
    "alpha,cutoff",
    [((1.3846692728648238,), 7), ((1.2427167955487168, 0.8119018848840768), 3),
     ((0.97, 1.41, 1.83), 2), ((0.0, 1.3, 0.9), 2)],
)
def test_operator_is_bit_identical_to_longhand_exponents(alpha, cutoff):
    n = len(alpha)
    for subtract_constant in (True, False):
        spec = PotentialSpec(n=n, alpha=alpha, subtract_constant=subtract_constant)
        op = assemble_galerkin(spec, n, 3e-3, cutoff)
        expected = _galerkin_matrix_longhand(spec, 3e-3, op.basis)
        assert op.matrix.dtype == expected.dtype
        assert op.matrix.tobytes() == expected.tobytes()


def test_first_refused_truncation_size():
    # MAX_BASIS_SIZE = 8192: on T^1 the cutoff-4096 box (8193 modes) is
    # the first one refused, and the oracle refuses a cutoff whose
    # cutoff + 2 rerun would exceed it before computing anything.
    assert galerkin.MAX_BASIS_SIZE == 8192
    t0 = time.monotonic()
    with pytest.raises(ResourceLimitError, match="8193 modes") as info:
        assemble_galerkin(CIRCLE, 1, 1e-3, 4096)
    assert "limit 8192" in str(info.value)
    with pytest.raises(ResourceLimitError, match="8193 modes"):
        validate_first_order(CIRCLE, 1, 1, [1e-3], 4094)
    assert time.monotonic() - t0 < 1.0
    # the largest benchmark box (T^3 cutoff 3, rerun at 5) stays admitted
    assert galerkin._check_truncation(3, 5) == 1331
    assert galerkin._check_truncation(1, 4095) == 8191


def _cluster_near_longhand(op, lambda0, m):
    """Reference cluster search on one coupling's operator, built per call."""
    P = galerkin.box_points(op.n, op.cutoff)
    sq = (P * P).sum(axis=1)
    assert int((sq == lambda0).sum()) == m
    levels = np.unique(sq)
    pos = int(np.searchsorted(levels, lambda0))
    gaps = []
    if pos > 0:
        gaps.append(float(lambda0 - levels[pos - 1]))
    if pos + 1 < len(levels):
        gaps.append(float(levels[pos + 1] - lambda0))
    half_gap = min(gaps) / 2.0

    w, Q = galerkin.symmetric_eigen(op.matrix)
    order = np.lexsort((w, np.abs(w - float(lambda0))))
    near = np.sort(order[:m])
    Qc = Q[:, near]
    G = Qc.T @ (op.matrix @ Qc)
    inside, _ = galerkin.symmetric_eigen((G + G.T) / 2.0)
    outside = np.delete(w, near)
    if outside.size:
        assert np.abs(outside[:, None] - inside[None, :]).min() >= half_gap
    return inside


def _validation_longhand(spec, lambda0, n, epsilons, cutoff, check_cutoff):
    """Reference rows and cutoff shift: one `assemble_galerkin` per coupling."""
    predicted = first_order_corrections(spec, lambda0, n).corrections
    m = len(predicted)
    rows = []
    for eps in epsilons:
        op = assemble_galerkin(spec, n, eps, cutoff)
        cluster = _cluster_near_longhand(op, lambda0, m)
        if eps == 0.0:
            rows.append((eps, cluster, None, 0.0))
            continue
        d = (cluster - float(lambda0)) / eps
        rows.append((eps, cluster, d, float(np.abs(d - predicted).max())))
    shift = None
    if check_cutoff and not spec.is_formal:
        op2 = assemble_galerkin(spec, n, max(epsilons), cutoff + 2)
        cluster2 = _cluster_near_longhand(op2, lambda0, m)
        shift = float(np.abs(rows[0][1] - cluster2).max())
    return rows, shift


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize(
    "n,alpha,lambda0,eps,cutoff,check_cutoff",
    [
        (1, (1.3846692728648238,), 1, [1e-2, 1e-3, 1e-4], 8, True),
        (1, (1.0,), 4, [1e-3, 0.0], 8, True),
        (2, (1.0, 1.3), 5, [1e-2, 1e-3], 8, True),
        (2, (1.0, 0.0), 1, [1e-3, 1e-4], 7, True),
        (3, (0.97, 1.41, 1.83), 2, [1e-2, 1e-3], 1, True),
        (3, (0.97, 1.41, 1.83), 3, [1e-2, 1e-3, 1e-4], 3, False),
    ],
)
def test_shared_box_matches_per_coupling_path(n, alpha, lambda0, eps, cutoff, check_cutoff):
    for subtract_constant in (True, False):
        spec = PotentialSpec(n=n, alpha=alpha, subtract_constant=subtract_constant)
        val = validate_first_order(spec, lambda0, n, eps, cutoff, check_cutoff=check_cutoff)
        rows, shift = _validation_longhand(spec, lambda0, n, eps, cutoff, check_cutoff)
        assert len(val.rows) == len(rows)
        for row, (e, cluster, d, err) in zip(val.rows, rows):
            assert row.epsilon == e
            assert _bits(row.eigenvalues) == _bits(cluster)
            assert (row.d is None) == (d is None)
            if d is not None:
                assert _bits(row.d) == _bits(d)
            assert _bits(row.max_error) == _bits(err)
        assert (val.cutoff_shift is None) == (shift is None)
        if shift is not None:
            assert _bits(val.cutoff_shift) == _bits(shift)


def test_coefficient_kernel_runs_once_per_box(monkeypatch):
    calls = []
    kernel = galerkin.coefficient_exponents

    def counted(*args):
        calls.append(len(args[1]))
        return kernel(*args)

    monkeypatch.setattr(galerkin, "coefficient_exponents", counted)
    spec = PotentialSpec(n=2, alpha=(1.0, 1.3))
    validate_first_order(spec, 5, 2, [1e-2, 1e-3, 1e-4], cutoff=8)
    assert calls == [17 * 17, 21 * 21]
    calls.clear()
    validate_first_order(spec, 5, 2, [1e-2, 1e-3, 1e-4], cutoff=8, check_cutoff=False)
    assert calls == [17 * 17]
