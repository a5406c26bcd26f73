"""Coefficients and real-space evaluation of the Gaussian potential."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruspert import (
    FormalPotentialError,
    PotentialSpec,
    evaluate,
    evaluate_batch,
    fourier_coefficient,
)
from toruspert.potential import coefficient_exponents

from _oracles import naive_potential_value, quadrature_coefficient

# Frozen from the naive series: 2 * sum_{t>=1} e^{-t^2} (cos 0 / cos pi t).
VALUE_AT_ZERO = 0.7726372048266521
VALUE_AT_PI = -0.6993741991310157


def test_coefficient_at_origin_follows_convention():
    spec0 = PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=True)
    spec1 = PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=False)
    assert fourier_coefficient(spec0, (0, 0)) == 0.0
    assert fourier_coefficient(spec1, (0, 0)) == 1.0


def test_coefficient_weighted_norm():
    spec = PotentialSpec(n=2, alpha=(1.0, 2.0))
    assert fourier_coefficient(spec, (1, 1)) == pytest.approx(math.exp(-3), rel=0, abs=0)
    assert fourier_coefficient(spec, (2, 0)) == math.exp(-4)
    assert fourier_coefficient(spec, (0, 2)) == math.exp(-8)
    spec1 = PotentialSpec(n=1, alpha=(1.0,))
    assert fourier_coefficient(spec1, (2,)) == math.exp(-4)


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.tuples(
        st.floats(min_value=0.25, max_value=4.0),
        st.floats(min_value=0.25, max_value=4.0),
    ),
    t=st.tuples(
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-9, max_value=9),
    ),
)
def test_coefficient_even_positive_decaying(alpha, t):
    spec = PotentialSpec(n=2, alpha=alpha, subtract_constant=False)
    c = fourier_coefficient(spec, t)
    neg = tuple(-x for x in t)
    assert fourier_coefficient(spec, neg) == c
    assert 0.0 < c <= 1.0
    # each coordinate contributes its own decay factor (ulp slack: the
    # accumulated exponent and the per-axis one round differently)
    bound = min(math.exp(-a * (x * x)) for a, x in zip(alpha, t))
    assert c <= bound * (1.0 + 1e-12)


def test_evaluate_frozen_series_values():
    spec = PotentialSpec(n=1, alpha=(1.0,))
    assert evaluate(spec, [0.0]) == pytest.approx(VALUE_AT_ZERO, abs=1e-14)
    assert evaluate(spec, [math.pi]) == pytest.approx(VALUE_AT_PI, abs=1e-14)


def test_evaluate_matches_naive_series():
    spec = PotentialSpec(n=2, alpha=(1.0, 0.5), subtract_constant=True, eval_truncation=8)
    for x in ([0.3, -1.2], [2.0, 2.0], [math.pi, 0.0]):
        naive = naive_potential_value(spec.alpha, x, True, 8)
        assert evaluate(spec, x) == pytest.approx(naive, abs=1e-12)
    spec1 = PotentialSpec(n=1, alpha=(2.0,), subtract_constant=False, eval_truncation=6)
    for x in (0.0, 0.7, -2.9):
        naive = naive_potential_value(spec1.alpha, [x], False, 6)
        assert evaluate(spec1, [x]) == pytest.approx(naive, abs=1e-12)


def test_evaluate_periodic():
    spec = PotentialSpec(n=2, alpha=(1.0, 2.0))
    x = np.array([0.37, -1.41])
    for j in range(2):
        shifted = x.copy()
        shifted[j] += 2.0 * math.pi
        assert abs(evaluate(spec, shifted) - evaluate(spec, x)) <= 1e-12


def test_evaluate_batch_matches_pointwise():
    spec = PotentialSpec(n=2, alpha=(1.0, 2.0))
    xs = np.array([[0.0, 0.0], [0.5, 1.5], [-2.2, 3.1], [math.pi, math.pi]])
    batch = evaluate_batch(spec, xs)
    for row, val in zip(xs, batch):
        assert evaluate(spec, row) == pytest.approx(float(val), abs=0.0)


def test_formal_spec_coefficients_fine_evaluation_rejected():
    spec = PotentialSpec(n=3, alpha=(1.0, 2.0, 0.0), subtract_constant=False)
    assert spec.is_formal
    assert spec.flat_directions == (2,)
    assert fourier_coefficient(spec, (0, 0, 5)) == 1.0
    assert fourier_coefficient(spec, (1, 0, 7)) == math.exp(-1)
    with pytest.raises(FormalPotentialError, match="2"):
        evaluate(spec, [0.0, 0.0, 0.0])
    with pytest.raises(FormalPotentialError):
        evaluate_batch(spec, np.zeros((2, 3)))


def test_quadrature_recovers_coefficients():
    """Uniform-grid Fourier inversion of the evaluated potential.

    The 64-point rule is exact for band-limited trigonometric sums, so
    the recovered coefficients must match the closed form to 1e-10.
    """
    grid = np.arange(64) * (2.0 * math.pi / 64)
    for spec in (
        PotentialSpec(n=1, alpha=(1.0,), subtract_constant=True),
        PotentialSpec(n=1, alpha=(0.5,), subtract_constant=False),
        PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=True),
        PotentialSpec(n=2, alpha=(1.0, 2.0), subtract_constant=False),
    ):
        if spec.n == 1:
            pts = grid[:, None]
            shape = (64,)
        else:
            ax = np.meshgrid(grid, grid, indexing="ij")
            pts = np.column_stack([a.ravel() for a in ax])
            shape = (64, 64)
        values = evaluate_batch(spec, pts).reshape(shape)
        for t in np.ndindex(*(7,) * spec.n):
            tt = tuple(int(c) - 3 for c in t)
            approx = quadrature_coefficient(values, grid, tt)
            assert abs(approx.imag) <= 1e-10
            assert abs(approx.real - fourier_coefficient(spec, tt)) <= 1e-10


def test_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec(n=2, alpha=(1.0,))
    with pytest.raises(ValueError):
        PotentialSpec(n=1, alpha=(-0.5,))
    with pytest.raises(ValueError):
        PotentialSpec(n=1, alpha=(float("nan"),))
    with pytest.raises(ValueError):
        PotentialSpec(n=0, alpha=())
    with pytest.raises(ValueError):
        PotentialSpec(n=9, alpha=(1.0,) * 9)
    with pytest.raises(ValueError):
        PotentialSpec(n=1, alpha=(1.0,), eval_truncation=0)
    with pytest.raises(ValueError):
        fourier_coefficient(PotentialSpec(n=2, alpha=(1.0, 1.0)), (1, 2, 3))
    with pytest.raises(ValueError):
        evaluate(PotentialSpec(n=2, alpha=(1.0, 1.0)), [0.1, 0.2, 0.3])


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    alpha=st.lists(
        st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=4
    ),
)
def test_coefficient_exponents_match_scalar_coefficient(data, alpha):
    n = len(alpha)
    spec = PotentialSpec(n=n, alpha=tuple(alpha))
    freq = st.lists(st.integers(-40, 40), min_size=n, max_size=n)
    rows = np.array(data.draw(st.lists(freq, min_size=1, max_size=6)), dtype=np.int64)
    cols = np.array(data.draw(st.lists(freq, min_size=1, max_size=6)), dtype=np.int64)
    W = coefficient_exponents(spec, rows, cols)
    assert W.shape == (len(rows), len(cols))
    for i, p in enumerate(rows.tolist()):
        for k, q in enumerate(cols.tolist()):
            t = tuple(a - b for a, b in zip(p, q))
            if any(t):
                assert math.exp(-W[i, k]) == fourier_coefficient(spec, t)
            else:
                assert W[i, k] == 0.0


def test_coefficient_exponents_reject_wrong_dimension():
    spec = PotentialSpec(n=2, alpha=(1.0, 2.0))
    with pytest.raises(ValueError, match="dimension 2"):
        coefficient_exponents(spec, np.zeros((3, 3), np.int64), np.zeros((2, 2), np.int64))
