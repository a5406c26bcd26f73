"""Contract tests for the symmetric eigensolver (Jacobi + LAPACK paths)."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruspert import EigensolverError, symmetric_eigen
from toruspert.eigensolve import JACOBI_MAX_DIM, _jacobi


def _random_symmetric(m, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((m, m))
    return (B + B.T) / 2.0


def test_one_by_one():
    w, Q = symmetric_eigen([[5.0]])
    assert w.tolist() == [5.0]
    assert Q.tolist() == [[1.0]]


def test_two_by_two_coupling():
    e = math.exp(-36)
    w, Q = symmetric_eigen([[0.0, e], [e, 0.0]])
    # Jacobi annihilates the single off-diagonal entry in one exact rotation,
    # so the tiny splitting survives in full relative accuracy.
    assert w[0] == -e
    assert w[1] == e
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(Q, [[r, r], [-r, r]], atol=1e-15, rtol=0)


def test_diagonal_stays_put_and_ties_keep_input_order():
    w, Q = symmetric_eigen(np.diag([3.0, 1.0, 1.0, 2.0]))
    assert w.tolist() == [1.0, 1.0, 2.0, 3.0]
    expected = np.zeros((4, 4))
    expected[1, 0] = expected[2, 1] = expected[3, 2] = expected[0, 3] = 1.0
    assert np.array_equal(Q, expected)


def test_tridiagonal_analytic_spectrum():
    m = 10
    A = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    w, Q = symmetric_eigen(A)
    exact = [2.0 - 2.0 * math.cos(j * math.pi / (m + 1)) for j in range(1, m + 1)]
    assert np.allclose(w, exact, atol=1e-13, rtol=0)
    assert float(np.abs(A @ Q - Q * w).max()) <= 1e-13


@pytest.mark.parametrize("m,seed", [(5, 0), (20, 1), (64, 2)])
def test_jacobi_path_matches_lapack_eigenvalues(m, seed):
    assert m <= JACOBI_MAX_DIM
    A = _random_symmetric(m, seed)
    w, Q = symmetric_eigen(A)
    ref = np.linalg.eigvalsh(A)
    assert np.allclose(w, ref, atol=1e-11 * max(1.0, np.abs(A).max()), rtol=0)
    assert float(np.abs(Q.T @ Q - np.eye(m)).max()) <= 1e-10


def test_lapack_path_engages_above_threshold():
    m = JACOBI_MAX_DIM + 22
    A = _random_symmetric(m, 3)
    w, Q = symmetric_eigen(A)
    assert np.all(np.diff(w) >= 0)
    assert float(np.abs(A @ Q - Q * w).max()) <= 1e-10 * max(1.0, np.abs(A).max())
    # repeated calls are bit-identical
    w2, Q2 = symmetric_eigen(A)
    assert np.array_equal(w, w2)
    assert np.array_equal(Q, Q2)


def test_sign_convention_largest_component_positive():
    Qr, _ = np.linalg.qr(_random_symmetric(12, 4))
    w_in = np.linspace(1.0, 12.0, 12)
    A = (Qr * w_in) @ Qr.T
    w, Q = symmetric_eigen(A)
    for i in range(12):
        lead = int(np.argmax(np.abs(Q[:, i])))
        assert Q[lead, i] > 0.0


def test_both_paths_agree_on_separated_spectrum():
    rng = np.random.default_rng(5)
    Qr, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    w_in = np.arange(1.0, 31.0)
    A = (Qr * w_in) @ Qr.T
    A = (A + A.T) / 2.0
    wj, _ = _jacobi(A)
    wl = np.linalg.eigvalsh(A)
    assert np.allclose(np.sort(wj), wl, atol=1e-11, rtol=0)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_contract_on_random_input(m, seed):
    A = _random_symmetric(m, seed)
    w, Q = symmetric_eigen(A)
    assert w.shape == (m,) and Q.shape == (m, m)
    assert np.all(np.diff(w) >= 0)
    scale = max(1.0, float(np.abs(A).max()))
    assert float(np.abs(A @ Q - Q * w).max()) <= 1e-10 * scale
    assert float(np.abs(Q.T @ Q - np.eye(m)).max()) <= 1e-10


def test_input_validation():
    with pytest.raises(ValueError):
        symmetric_eigen(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        symmetric_eigen(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        symmetric_eigen([[0.0, 1.0], [1.0, float("nan")]])
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigen([[0.0, 1.0], [0.0, 0.0]])
    # a relatively tiny asymmetry is repaired, not rejected
    A = np.array([[1.0, 1.0], [1.0 + 1e-14, 1.0]])
    w, _ = symmetric_eigen(A)
    assert w == pytest.approx([0.0, 2.0], abs=1e-13)


def _eigh_failing_on(monkeypatch, triangles):
    """Make np.linalg.eigh raise LinAlgError for the given UPLO values."""
    real_eigh = np.linalg.eigh
    calls = []

    def eigh(a, UPLO="L"):
        calls.append(UPLO)
        if UPLO in triangles:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(a, UPLO=UPLO)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return calls


def test_lapack_retries_upper_triangle(monkeypatch):
    m = JACOBI_MAX_DIM + 12
    A = _random_symmetric(m, 6)
    calls = _eigh_failing_on(monkeypatch, {"L"})
    w, Q = symmetric_eigen(A)
    assert calls == ["L", "U"]
    assert np.allclose(w, np.linalg.eigvalsh(A), atol=1e-11, rtol=0)
    assert float(np.abs(A @ Q - Q * w).max()) <= 1e-10 * max(1.0, np.abs(A).max())
    assert float(np.abs(Q.T @ Q - np.eye(m)).max()) <= 1e-10


def test_lapack_failing_on_both_triangles_raises(monkeypatch):
    A = _random_symmetric(JACOBI_MAX_DIM + 1, 7)
    calls = _eigh_failing_on(monkeypatch, {"L", "U"})
    with pytest.raises(EigensolverError, match="did not converge") as info:
        symmetric_eigen(A)
    assert calls == ["L", "U"]
    assert isinstance(info.value, RuntimeError)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_missed_contract_raises_eigensolver_error(monkeypatch):
    A = _random_symmetric(JACOBI_MAX_DIM + 1, 8)
    m = A.shape[0]
    monkeypatch.setattr(
        np.linalg, "eigh", lambda a, UPLO="L": (np.zeros(m), np.eye(m))
    )
    with pytest.raises(EigensolverError, match="contract"):
        symmetric_eigen(A)


def test_jacobi_out_of_sweeps_raises(monkeypatch):
    A = _random_symmetric(6, 9)
    symmetric_eigen(A)  # converges within the default sweep limit
    monkeypatch.setattr("toruspert.eigensolve._MAX_SWEEPS", 1)
    with pytest.raises(EigensolverError, match="after 1 sweeps"):
        symmetric_eigen(A)
