"""Secular matrix, splitting verdicts, and resolvent corrections."""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from toruspert import perturbation
from toruspert import (
    DegenerateBranchError,
    EigenspaceBasis,
    PotentialSpec,
    ResourceLimitError,
    assemble_first_order,
    default_gap_tolerance,
    default_resolvent_cutoff,
    eigenspace,
    eigenvector_correction_coefficients,
    first_order_corrections,
    fourier_coefficient,
    second_order_corrections,
    symmetric_eigen,
)

from _oracles import brute_branch_coupling, brute_second_order

CIRCLE = PotentialSpec(n=1, alpha=(1.0,))
TORUS2 = PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=True)

# Frozen once from the production code after cross-checking against the
# longhand oracles below; guards against silent regressions.
CIRCLE_SECOND = (-0.045123432864222414, 0.22548659933874227)
GROUND_SECOND = -0.27083830117161817


def test_circle_secular_matrix_exact():
    mat = assemble_first_order(CIRCLE, eigenspace(1, 1))
    e4 = math.exp(-4)
    assert mat.entries.tolist() == [[0.0, e4], [e4, 0.0]]
    assert mat.lambda0 == 1
    assert mat.subtract_constant is True


def test_circle_first_order_split():
    rep = first_order_corrections(CIRCLE, 1, 1)
    e4 = math.exp(-4)
    # one exact Jacobi rotation: corrections are +-exp(-4) to the bit
    assert rep.corrections.tolist() == [-e4, e4]
    assert rep.min_gap == 2.0 * e4
    assert rep.verdict == "fully_split"
    assert rep.clusters == ((0,), (1,))
    assert rep.multiplicity == 2
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(rep.eigenvectors, [[r, r], [-r, r]], atol=1e-15, rtol=0)


def test_report_dict_shape():
    d = first_order_corrections(CIRCLE, 1, 1).to_dict()
    assert d["schema"] == 1
    assert d["kind"] == "splitting_report"
    assert d["lambda0"] == 1 and d["n"] == 1
    assert d["basis"] == [[-1], [1]]
    assert d["verdict"] == "fully_split"
    assert d["multiplicity"] == 2
    assert len(d["corrections"]) == 2
    assert len(d["matrix"]) == 2 and len(d["matrix"][0]) == 2


def test_nondegenerate_eigenvalue_report():
    rep = first_order_corrections(CIRCLE, 0, 1)
    assert rep.multiplicity == 1
    assert rep.min_gap == math.inf
    assert rep.verdict == "fully_split"
    assert rep.corrections.tolist() == [0.0]
    assert rep.to_dict()["min_gap"] is None


def test_unsplit_verdict_for_fast_decay():
    # exp(-40) couplings sit far below the default tolerance
    rep = first_order_corrections(PotentialSpec(n=1, alpha=(10.0,)), 1, 1)
    assert rep.verdict == "unsplit"
    assert rep.clusters == ((0, 1),)


def test_partially_split_verdict():
    spec = PotentialSpec(n=4, alpha=(1.0, 2.0, 0.0, 0.0), subtract_constant=False)
    rep = first_order_corrections(spec, 1, 4)
    assert rep.verdict == "partially_split"
    assert rep.clusters == ((0, 1, 2), (3,), (4,), (5,), (6,), (7,))
    assert max(abs(float(rep.corrections[i])) for i in (0, 1, 2)) <= 1e-12


def test_torus_fully_split_min_gap():
    spec = PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=False)
    rep = first_order_corrections(spec, 5, 2)
    assert rep.verdict == "fully_split"
    assert rep.multiplicity == 8
    assert rep.min_gap == pytest.approx(0.00027474575667474355, rel=1e-12)


def test_diagonal_convention_shifts_corrections_only():
    """Keeping the constant term shifts every correction by exactly 1."""
    keep = PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=False)
    rep0 = first_order_corrections(TORUS2, 1, 2)
    rep1 = first_order_corrections(keep, 1, 2)
    assert np.allclose(rep1.corrections - rep0.corrections, 1.0, atol=1e-12, rtol=0)
    assert rep0.verdict == rep1.verdict == "fully_split"
    assert np.allclose(np.abs(rep0.eigenvectors), np.abs(rep1.eigenvectors), atol=1e-9)


def test_secular_matrix_negation_symmetry():
    """Mapping every frequency to its negative permutes the basis but
    leaves the secular matrix entries invariant (even coefficients)."""
    basis = eigenspace(5, 2)
    entries = assemble_first_order(TORUS2, basis).entries
    freqs = list(basis.frequencies)
    perm = [freqs.index(tuple(-c for c in k)) for k in freqs]
    assert sorted(perm) == list(range(len(freqs)))
    permuted = entries[np.ix_(perm, perm)]
    assert np.array_equal(permuted, entries)


def test_basis_permutation_leaves_corrections_invariant():
    basis = eigenspace(1, 2)
    rep = first_order_corrections(TORUS2, 1, 2)
    order = [2, 0, 3, 1]
    shuffled = EigenspaceBasis(
        lambda0=1, n=2, frequencies=tuple(basis.frequencies[i] for i in order)
    )
    w, _ = symmetric_eigen(assemble_first_order(TORUS2, shuffled).entries)
    assert np.allclose(w, rep.corrections, atol=1e-14, rtol=0)


def test_default_resolvent_cutoff_values():
    assert default_resolvent_cutoff(1) == 8
    assert default_resolvent_cutoff(5) == 8
    assert default_resolvent_cutoff(9) == 9
    assert default_resolvent_cutoff(64) == 24


def test_default_gap_tolerance_scaling():
    assert default_gap_tolerance(np.array([[0.5]])) == 1e-9
    assert default_gap_tolerance(np.array([[4.0]])) == 4e-9


def test_circle_second_order_frozen_and_brute():
    rep = first_order_corrections(CIRCLE, 1, 1)
    so = second_order_corrections(CIRCLE, 1, 1, rep.eigenvectors)
    assert so.cutoff == 8
    assert np.allclose(so.values, CIRCLE_SECOND, atol=1e-15, rtol=0)
    assert np.allclose(so.first_order, rep.corrections, atol=1e-15, rtol=0)
    brute = brute_second_order(
        (1.0,), True, 1, eigenspace(1, 1).frequencies, rep.eigenvectors, 8
    )
    assert np.allclose(so.values, brute, atol=1e-15, rtol=0)
    assert 0.0 < so.tail_estimate < 1e-12


def test_ground_state_second_order():
    rep = first_order_corrections(CIRCLE, 0, 1)
    so = second_order_corrections(CIRCLE, 0, 1, rep.eigenvectors, cutoff=8)
    assert float(so.values[0]) == GROUND_SECOND
    brute = brute_second_order((1.0,), True, 0, ((0,),), np.array([[1.0]]), 8)
    assert float(so.values[0]) == pytest.approx(brute[0], abs=1e-16)
    # the ground state is pushed down
    assert float(so.values[0]) < 0.0


def test_torus_second_order_matches_brute():
    rep = first_order_corrections(TORUS2, 1, 2)
    so = second_order_corrections(TORUS2, 1, 2, rep.eigenvectors, cutoff=4)
    brute = brute_second_order(
        (1.0, 2.0), True, 1, eigenspace(1, 2).frequencies, rep.eigenvectors, 4
    )
    assert np.allclose(so.values, brute, atol=1e-14, rtol=0)


def test_second_order_cutoff_insensitive():
    rep = first_order_corrections(CIRCLE, 1, 1)
    lo = second_order_corrections(CIRCLE, 1, 1, rep.eigenvectors, cutoff=8)
    hi = second_order_corrections(CIRCLE, 1, 1, rep.eigenvectors, cutoff=12)
    assert np.abs(lo.values - hi.values).max() <= 1e-13


def test_branch_mixing_matches_brute():
    rep = first_order_corrections(TORUS2, 1, 2)
    beta = eigenvector_correction_coefficients(TORUS2, 1, 2, rep, cutoff=4)
    N = brute_branch_coupling(
        (1.0, 2.0), True, 1, eigenspace(1, 2).frequencies, rep.eigenvectors, 4
    )
    mu = rep.corrections
    expected = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            if i != j:
                expected[i, j] = N[j, i] / (mu[i] - mu[j])
    assert np.abs(beta - expected).max() <= 1e-14
    assert np.all(np.diag(beta) == 0.0)
    assert beta[0, 3] == pytest.approx(1.0672177941223735, rel=1e-12)


def test_branch_mixing_ignores_constant_term():
    """The constant coefficient shifts all first-order values together,
    so the mixing coefficients cannot depend on the diagonal convention."""
    keep = PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=False)
    rep0 = first_order_corrections(TORUS2, 1, 2)
    rep1 = first_order_corrections(keep, 1, 2)
    b0 = eigenvector_correction_coefficients(TORUS2, 1, 2, rep0, cutoff=6)
    b1 = eigenvector_correction_coefficients(keep, 1, 2, rep1, cutoff=6)
    assert np.abs(b0 - b1).max() <= 1e-12


def test_branch_mixing_predicts_truncated_eigenvectors():
    """The mixing coefficients must reproduce the truncated operator's
    eigenvectors inside the eigenspace to O(eps^2): with the correct
    beta the overlap deficit drops like eps^4, with beta zeroed it
    stalls at eps^2, and with the sign flipped it gets 4x worse.  This
    pins both the magnitude and the orientation of the coupling."""
    from toruspert import assemble_galerkin

    rep = first_order_corrections(TORUS2, 1, 2)
    beta = eigenvector_correction_coefficients(TORUS2, 1, 2, rep)
    basis = eigenspace(1, 2)
    eps = 1e-2

    op = assemble_galerkin(TORUS2, 2, eps, 8)
    w, Q = symmetric_eigen(op.matrix)
    idx = {m: i for i, m in enumerate(op.basis)}
    rows = [idx[k] for k in basis.frequencies]
    order = np.lexsort((w, np.abs(w - 1.0)))[:4]
    order = order[np.argsort(w[order], kind="stable")]

    def worst_deficit(B):
        worst = 0.0
        for i in range(4):
            g = Q[rows, order[i]]
            g = g / np.linalg.norm(g)
            pred = rep.eigenvectors[:, i] + eps * (rep.eigenvectors @ B[i])
            pred = pred / np.linalg.norm(pred)
            worst = max(worst, 1.0 - abs(float(g @ pred)))
        return worst

    correct = worst_deficit(beta)
    zeroed = worst_deficit(np.zeros_like(beta))
    flipped = worst_deficit(-beta)
    assert correct <= 1e-8
    assert zeroed > 1e-5
    assert flipped > 3.0 * zeroed


def test_second_order_rejects_colliding_branches():
    spec = PotentialSpec(n=1, alpha=(10.0,))
    rep = first_order_corrections(spec, 1, 1)
    with pytest.raises(DegenerateBranchError):
        second_order_corrections(spec, 1, 1, rep.eigenvectors)


def test_mixing_requires_fully_split():
    spec = PotentialSpec(n=4, alpha=(1.0, 2.0, 0.0, 0.0), subtract_constant=False)
    rep = first_order_corrections(spec, 1, 4)
    with pytest.raises(DegenerateBranchError, match="partially_split"):
        eigenvector_correction_coefficients(spec, 1, 4, rep)


def test_branch_validation():
    rep = first_order_corrections(CIRCLE, 1, 1)
    with pytest.raises(ValueError, match="orthonormal"):
        second_order_corrections(CIRCLE, 1, 1, np.array([[1.0, 1.0], [1.0, -1.0]]))
    with pytest.raises(ValueError, match="eigenvector"):
        second_order_corrections(CIRCLE, 1, 1, np.eye(2))
    with pytest.raises(ValueError, match="rows"):
        second_order_corrections(CIRCLE, 1, 1, np.eye(3))
    with pytest.raises(ValueError, match="cutoff"):
        second_order_corrections(CIRCLE, 9, 1, np.eye(2), cutoff=2)
    with pytest.raises(ValueError):
        second_order_corrections(CIRCLE, 1, 1, rep.eigenvectors, cutoff=3.5)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        first_order_corrections(CIRCLE, 1, 2)
    with pytest.raises(ValueError):
        assemble_first_order(CIRCLE, eigenspace(1, 2))
    with pytest.raises(ValueError, match="positive"):
        first_order_corrections(CIRCLE, 1, 1, gap_tolerance=0.0)


def test_resolvent_sums_reject_mismatched_potential():
    rep = first_order_corrections(TORUS2, 1, 2)
    with pytest.raises(ValueError, match="dimension 1"):
        eigenvector_correction_coefficients(CIRCLE, 1, 2, rep, cutoff=4)
    with pytest.raises(ValueError, match="dimension 1"):
        second_order_corrections(CIRCLE, 1, 2, rep.eigenvectors, cutoff=4)


def test_resolvent_box_capped():
    spec = PotentialSpec(n=4, alpha=(1.0, 1.0, 1.0, 1.0))
    rep = first_order_corrections(spec, 1, 4)
    with pytest.raises(ResourceLimitError):
        second_order_corrections(spec, 1, 4, rep.eigenvectors, cutoff=20)


def _secular_matrix_loop(spec, basis):
    """Reference secular matrix: one `fourier_coefficient` call per entry."""
    freqs = basis.frequencies
    m = len(freqs)
    entries = np.empty((m, m))
    for u in range(m):
        for v in range(m):
            entries[u, v] = fourier_coefficient(
                spec, tuple(a - b for a, b in zip(freqs[u], freqs[v]))
            )
    return entries


_ASSEMBLY_ALPHAS = {
    1: [(1.0,), (1.3846692728648238,), (0.0,)],
    2: [(1.0, 2.0), (1.2427167955487168, 0.8119018848840768), (0.0, 1.7)],
    3: [(0.97, 1.41, 1.83), (1.9, 0.8, 1.15), (0.0, 1.3, 0.9)],
    4: [(1.0, 1.3, 0.9, 1.1), (0.85, 1.9, 1.25, 1.6), (1.2, 0.0, 0.0, 1.4)],
}


@pytest.mark.parametrize(
    "lam,n",
    [(1, 1), (4, 1), (0, 2), (5, 2), (325, 2), (300005, 2), (9, 3), (4012, 3),
     (6, 4), (10, 4), (21, 4)],
)
def test_assembly_is_bit_identical_to_coefficient_loop(lam, n):
    basis = eigenspace(lam, n)
    for alpha in _ASSEMBLY_ALPHAS[n]:
        for subtract_constant in (True, False):
            spec = PotentialSpec(n=n, alpha=alpha, subtract_constant=subtract_constant)
            entries = assemble_first_order(spec, basis).entries
            expected = _secular_matrix_loop(spec, basis)
            assert entries.shape == expected.shape
            assert entries.dtype == expected.dtype
            assert entries.tobytes() == expected.tobytes()


def test_formal_assembly_keeps_unit_coefficients_off_the_diagonal():
    # With alpha_0 = 0, k_u - k_v = (t, 0, 0) has exponent 0 for t != 0: the
    # coefficient there is 1.0 while the diagonal follows the convention.
    spec = PotentialSpec(n=3, alpha=(0.0, 1.3, 0.9), subtract_constant=True)
    basis = eigenspace(9, 3)
    entries = assemble_first_order(spec, basis).entries
    off = ~np.eye(basis.multiplicity, dtype=bool)
    assert (entries[off] == 1.0).sum() > 0
    assert np.all(np.diag(entries) == 0.0)


def _branch_mixing_loop(coupling, mu):
    """Reference branch mixing: one division per off-diagonal pair."""
    m = len(mu)
    beta = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                beta[i, j] = coupling[j, i] / (mu[i] - mu[j])
    return beta


@pytest.mark.parametrize(
    "lam,alpha",
    [(1, (1.0, 2.0)), (5, (0.97, 1.41, 1.83)), (2, (1.0, 1.3, 0.9, 1.1)),
     (9, (1.9, 0.8, 1.15))],
)
def test_branch_mixing_is_bit_identical_to_pair_loop(lam, alpha):
    n = len(alpha)
    for subtract_constant in (True, False):
        spec = PotentialSpec(n=n, alpha=alpha, subtract_constant=subtract_constant)
        rep = first_order_corrections(spec, lam, n)
        beta = eigenvector_correction_coefficients(spec, lam, n, rep)
        C, denom = perturbation._resolvent_pass(
            spec, rep.matrix.basis, rep.eigenvectors, default_resolvent_cutoff(lam)
        )
        expected = _branch_mixing_loop(C.T @ (C / denom[:, None]), rep.corrections)
        assert beta.tobytes() == expected.tobytes()


def test_oversized_eigenspace_refused_before_assembly():
    # m = 14144 > MAX_MULTIPLICITY: the 14144 x 14144 secular matrix would
    # need tens of GB, so assembly refuses before allocating it.
    spec = PotentialSpec(n=6, alpha=(1.1, 0.9, 1.3, 0.95, 1.2, 0.8))
    basis = eigenspace(30, 6)
    assert basis.multiplicity == 14144 > perturbation.MAX_MULTIPLICITY
    t0 = time.monotonic()
    with pytest.raises(ResourceLimitError, match="14144 modes"):
        assemble_first_order(spec, basis)
    with pytest.raises(ResourceLimitError, match="limit 4096"):
        first_order_corrections(spec, 30, 6)
    assert time.monotonic() - t0 < 1.0


def test_branch_mixing_rejects_a_report_for_other_arguments():
    rep = first_order_corrections(TORUS2, 1, 2)
    # lambda0 = 2 on T^2 also has 4 modes, so the shapes alone agree
    with pytest.raises(ValueError, match="report is for lambda0=1"):
        eigenvector_correction_coefficients(TORUS2, 2, 2, rep, cutoff=4)
    other = PotentialSpec(n=2, alpha=(1.5, 2.0))
    with pytest.raises(ValueError, match="report is for"):
        eigenvector_correction_coefficients(other, 1, 2, rep, cutoff=4)
    keep = PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=False)
    with pytest.raises(ValueError, match="report is for"):
        eigenvector_correction_coefficients(keep, 1, 2, rep, cutoff=4)
    torus3 = PotentialSpec(n=3, alpha=(1.0, 2.0, 1.5))
    with pytest.raises(ValueError, match="n=2"):
        eigenvector_correction_coefficients(torus3, 1, 3, rep, cutoff=4)


def test_resolvent_entries_capped_before_allocation():
    # T^4 lambda0 = 21: m = 256 on the default 29^4 = 707281-point box is
    # 181M entries, about 5.8 GB at the pass's 32 bytes per entry.
    spec = PotentialSpec(n=4, alpha=(1.1, 0.9, 1.3, 0.95))
    rep = first_order_corrections(spec, 21, 4)
    assert rep.verdict == "fully_split" and rep.multiplicity == 256
    t0 = time.monotonic()
    with pytest.raises(ResourceLimitError, match="181063936 entries"):
        second_order_corrections(spec, 21, 4, rep.eigenvectors)
    with pytest.raises(ResourceLimitError, match="181063936 entries"):
        eigenvector_correction_coefficients(spec, 21, 4, rep)
    assert time.monotonic() - t0 < 1.0


def test_resolvent_limit_admits_the_benchmark_sizes():
    # box x m up to 16M entries is what the second-order benchmark items use
    assert perturbation.MAX_RESOLVENT_ENTRIES >= 16_000_000
    assert perturbation.MAX_MULTIPLICITY == 4096


def test_secular_checks_run_before_the_box(monkeypatch):
    def no_box(*args):
        raise AssertionError("resolvent box built before the secular checks")

    monkeypatch.setattr(perturbation, "_resolvent_pass", no_box)
    spec = PotentialSpec(n=4, alpha=(1.0, 1.0, 1.0, 1.0))
    rep = first_order_corrections(spec, 3, 4)
    assert rep.verdict == perturbation.PARTIALLY_SPLIT
    t0 = time.monotonic()
    with pytest.raises(DegenerateBranchError):
        second_order_corrections(spec, 3, 4, rep.eigenvectors)
    with pytest.raises(ValueError, match="not secular-matrix eigenvectors"):
        second_order_corrections(TORUS2, 5, 2, np.eye(8)[:, :2])
    assert time.monotonic() - t0 < 1.0
