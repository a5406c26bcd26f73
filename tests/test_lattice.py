"""Spectrum enumeration against exhaustive counting and known values."""
from __future__ import annotations

import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruspert import (
    EmptyEigenspaceError,
    ResourceLimitError,
    eigenspace,
    lattice_box,
    multiplicity,
    representations,
    spectrum_up_to,
    squared_norm,
)

from toruspert.lattice import MAX_EIGENSPACE_MODES, box_points

from _oracles import box_multiplicities, sphere_points

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


@pytest.mark.parametrize("lambda0,n,expected", KNOWN_MULTIPLICITIES)
def test_known_multiplicities(lambda0, n, expected):
    assert multiplicity(lambda0, n) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multiplicity_matches_box_count(n):
    counts = box_multiplicities(200, n)
    for lam in range(201):
        assert multiplicity(lam, n) == int(counts[lam])


def test_multiplicity_of_zero_is_one():
    for n in range(1, 9):
        assert multiplicity(0, n) == 1


def test_representations_known_values():
    assert representations(325, 2) == [(1, 18), (6, 17), (10, 15)]
    assert representations(13, 2) == [(2, 3)]
    assert representations(25, 2) == [(0, 5), (3, 4)]
    assert representations(0, 3) == [(0, 0, 0)]
    assert representations(3, 2) == []


def test_representations_are_canonical_and_sorted():
    for lam in range(0, 80):
        reps = representations(lam, 3)
        assert reps == sorted(reps)
        for r in reps:
            assert list(r) == sorted(r)
            assert all(c >= 0 for c in r)
            assert squared_norm(r) == lam


@settings(max_examples=60, deadline=None)
@given(lam=st.integers(min_value=0, max_value=120), n=st.integers(min_value=1, max_value=3))
def test_representations_expand_to_eigenspace(lam, n):
    expanded = set()
    for rep in representations(lam, n):
        for perm in itertools.permutations(rep):
            for signs in itertools.product((-1, 1), repeat=n):
                expanded.add(tuple(s * c for s, c in zip(signs, perm)))
    if not expanded:
        assert multiplicity(lam, n) == 0
        with pytest.raises(EmptyEigenspaceError):
            eigenspace(lam, n)
        return
    basis = eigenspace(lam, n)
    assert set(basis.frequencies) == expanded
    assert len(basis.frequencies) == multiplicity(lam, n)


def test_eigenspace_order_is_ascending_lex():
    basis = eigenspace(5, 2)
    assert basis.frequencies == (
        (-2, -1), (-2, 1), (-1, -2), (-1, 2), (1, -2), (1, 2), (2, -1), (2, 1),
    )
    assert eigenspace(1, 3).frequencies == (
        (-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0),
    )
    for lam, n in [(325, 2), (9, 3), (6, 4)]:
        freqs = eigenspace(lam, n).frequencies
        assert list(freqs) == sorted(freqs)


def test_eigenspace_closed_under_negation():
    for lam, n in [(1, 2), (5, 2), (100, 3), (6, 4)]:
        freqs = set(eigenspace(lam, n).frequencies)
        assert freqs == {tuple(-c for c in k) for k in freqs}


def test_eigenspace_of_zero():
    basis = eigenspace(0, 4)
    assert basis.frequencies == ((0, 0, 0, 0),)
    assert basis.multiplicity == 1


def test_empty_eigenspace_raises():
    with pytest.raises(EmptyEigenspaceError):
        eigenspace(3, 2)
    with pytest.raises(EmptyEigenspaceError):
        eigenspace(7, 3)


def test_argument_validation():
    for bad_n in (0, 9, -1, 2.0, True):
        with pytest.raises(ValueError):
            multiplicity(4, bad_n)
    for bad_lam in (-1, 2.5, True):
        with pytest.raises(ValueError):
            multiplicity(bad_lam, 2)
    with pytest.raises(ValueError):
        spectrum_up_to(-3, 2)


def test_spectrum_up_to_small_table():
    assert spectrum_up_to(9, 2) == [
        (0, 1), (1, 4), (2, 4), (4, 4), (5, 8), (8, 4), (9, 4),
    ]


def test_spectrum_skips_gaps():
    levels = [lam for lam, _ in spectrum_up_to(50, 2)]
    assert 3 not in levels
    assert 21 not in levels
    assert levels == sorted(levels)


def test_spectrum_multiplicity_growth_report_n2(capsys):
    """Empirical bound check: in 2-d, the j-th multiplicity stays below 2j+4.

    Observational only: counterexamples are printed for inspection
    instead of asserted away.
    """
    rows = spectrum_up_to(1000, 2)
    assert rows, "spectrum should not be empty"
    violations = [
        (j, lam, m)
        for j, (lam, m) in enumerate(rows, start=1)
        if not m < 2 * j + 4
    ]
    for j, lam, m in violations:
        print(f"growth bound exceeded: j={j} lambda={lam} multiplicity={m} >= {2*j+4}")
    # every multiplicity is a positive multiple of 4 except the j=1 constant mode
    assert rows[0] == (0, 1)
    assert all(m > 0 and m % 4 == 0 for _, m in rows[1:])


def test_lattice_box_order_and_count():
    box = lattice_box(2, 1)
    assert box == [
        (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1),
    ]
    assert len(lattice_box(3, 2)) == 125
    assert lattice_box(1, 0) == [(0,)]


# Largest eigenvalue drawn per dimension: keeps the box oracle's cube
# (2 isqrt(lambda) + 1)^n below about 10^5 points.
_DIFF_MAX_LAMBDA = {1: 10**6, 2: 2500, 3: 400, 4: 60}


def _assert_matches_sphere(lam, n):
    expected = sphere_points(lam, n)
    if not expected:
        assert multiplicity(lam, n) == 0
        with pytest.raises(EmptyEigenspaceError):
            eigenspace(lam, n)
        return
    freqs = eigenspace(lam, n).frequencies
    assert list(freqs) == expected
    assert list(freqs) == sorted(freqs)
    assert all(type(c) is int for k in freqs for c in k)
    assert multiplicity(lam, n) == len(expected)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=4))
def test_eigenspace_matches_sorted_box_enumeration(data, n):
    lam = data.draw(st.integers(min_value=0, max_value=_DIFF_MAX_LAMBDA[n]))
    _assert_matches_sphere(lam, n)


@pytest.mark.parametrize("lam,n", [(300005, 2), (4012, 3), (299997, 2), (2002, 3)])
def test_eigenspace_matches_box_at_benchmark_sizes(lam, n):
    _assert_matches_sphere(lam, n)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=4))
def test_representations_match_sorted_box_enumeration(data, n):
    lam = data.draw(st.integers(min_value=0, max_value=_DIFF_MAX_LAMBDA[n]))
    canonical = sorted({tuple(sorted(abs(c) for c in k)) for k in sphere_points(lam, n)})
    reps = representations(lam, n)
    assert reps == canonical
    assert all(type(c) is int for r in reps for c in r)


# Small eigenvalues in high dimensions: most canonical tuples repeat an
# entry (zeros above all), so these cases exercise the distinct-ordering
# expansion.  Each bound keeps the oracle's cube below about 4 * 10^5 points.
_HIGH_DIM_MAX_LAMBDA = {5: 24, 6: 15, 7: 8, 8: 8}


@pytest.mark.parametrize("n", sorted(_HIGH_DIM_MAX_LAMBDA))
def test_eigenspace_matches_sorted_box_enumeration_high_dimensions(n):
    for lam in range(_HIGH_DIM_MAX_LAMBDA[n] + 1):
        _assert_matches_sphere(lam, n)


@pytest.mark.parametrize("lam,n,expected", [(200000, 3, 744), (10000, 4, 18744)])
def test_counter_memo_is_released_after_each_call(lam, n, expected):
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert multiplicity(lam, n) == expected
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 256 * 1024


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_box_points_match_product_order(n, radius):
    expected = list(itertools.product(range(-radius, radius + 1), repeat=n))
    P = box_points(n, radius)
    assert P.dtype == np.int64
    assert P.shape == (len(expected), n)
    assert [tuple(row) for row in P.tolist()] == expected
    box = lattice_box(n, radius)
    assert box == expected
    assert all(type(c) is int for k in box for c in k)


def test_box_points_argument_validation():
    with pytest.raises(ValueError):
        box_points(2, -1)
    with pytest.raises(ValueError):
        box_points(2, 1.5)
    with pytest.raises(ValueError):
        box_points(9, 1)


def test_oversized_eigenspace_refused_before_listing():
    # r_8(100) = 17893136 vectors, about 3.6 GB of tuples and a minute of
    # listing; the count comes from the canonical representations alone.
    assert multiplicity(100, 8) == 17893136 > MAX_EIGENSPACE_MODES
    t0 = time.monotonic()
    with pytest.raises(ResourceLimitError, match="17893136 modes") as info:
        eigenspace(100, 8)
    assert time.monotonic() - t0 < 1.0
    assert f"limit {MAX_EIGENSPACE_MODES}" in str(info.value)
    assert " GB" in str(info.value)
    # the largest eigenspace the tests list stays admitted
    assert eigenspace(30, 6).multiplicity == 14144 <= MAX_EIGENSPACE_MODES
