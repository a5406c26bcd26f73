"""Deterministic text export helpers."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruspert import PotentialSpec, eigenspace, perturbation
from toruspert.cli import main
from toruspert.reports import corrections_csv, fan_csv, float_cell, json_text, matrix_csv


def reference_json(payload) -> str:
    """The byte reference for `json_text`: the standard library's indenting encoder."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def reference_matrix_csv(matrix) -> str:
    """The per-cell CSV join that `matrix_csv` must reproduce byte for byte."""
    M = np.asarray(matrix, dtype=float)
    return "\n".join(",".join(float_cell(x) for x in row) for row in M) + "\n"


# (n, lambda0, alpha) of the split cases checked against the references;
# the last is formal (a flat direction).
SPLIT_CASES = [
    (2, 300005, "1,1.3"),
    (3, 4012, "1,1.3,0.9"),
    (4, 21, "1.1,0.9,1.3,0.95"),
    (4, 10, "1,1,1,1"),
    (3, 9, "0,1.3,0.9"),
]

_special_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e300, -1e300,
     1.7976931348623157e308, 0.1, 1e16, 123456789.0]
)
_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _special_floats)
_strings = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "\"", "\\", "\n\t\r\x00\x1f\x7f", "é€", "\U0001f600", "\ud800"]),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10 ** 60), max_value=10 ** 60),
    _floats,
    _floats.map(np.float64),
    _strings,
)


@st.composite
def _matrices(draw):
    """Equal-length float rows, sometimes made ragged or mixed with ints."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    M = [[draw(_floats) for _ in range(cols)] for _ in range(rows)]
    if cols and draw(st.booleans()):
        M[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(
            st.one_of(st.integers(-3, 3), st.booleans(), _floats.map(np.float64))
        )
    if draw(st.booleans()):
        M[-1] = M[-1] + [draw(_floats)]
    if draw(st.booleans()):
        M = [tuple(row) for row in M]
    return M


_keys = st.one_of(_strings, st.integers(), _floats, st.booleans(), st.none())
_payloads = st.recursive(
    st.one_of(_scalars, _matrices()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_strings, children, max_size=4),
        st.dictionaries(_keys, children, max_size=3),
    ),
    max_leaves=24,
)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_cell_roundtrips(x):
    assert float(float_cell(x)) == x


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.one_of(_floats, st.sampled_from([np.nan, np.inf, -np.inf])), max_size=12),
    st.integers(1, 4),
    st.booleans(),
)
def test_matrix_csv_matches_per_cell_join(values, cols, transpose):
    M = np.array(values[: len(values) - len(values) % cols]).reshape(-1, cols)
    if transpose:
        M = M.T
    assert matrix_csv(M) == reference_matrix_csv(M)


@pytest.mark.parametrize("subtract_constant", [True, False])
@pytest.mark.parametrize("n, lambda0, alpha", SPLIT_CASES)
def test_matrix_csv_matches_per_cell_join_on_secular_matrices(n, lambda0, alpha, subtract_constant):
    spec = PotentialSpec(
        n=n, alpha=tuple(map(float, alpha.split(","))), subtract_constant=subtract_constant
    )
    entries = perturbation.assemble_first_order(spec, eigenspace(lambda0, n)).entries
    assert matrix_csv(entries) == reference_matrix_csv(entries)


def test_matrix_csv_layout():
    text = matrix_csv(np.array([[1.0, 2.0], [3.0, 4.0]]))
    rows = text.splitlines()
    assert len(rows) == 2
    assert [float(c) for c in rows[1].split(",")] == [3.0, 4.0]
    assert text.endswith("\n")
    with pytest.raises(ValueError):
        matrix_csv(np.zeros(3))


def test_corrections_csv_header():
    text = corrections_csv([0.5, -0.5])
    assert text.splitlines()[0] == "branch_index,correction"
    assert text.splitlines()[1].startswith("0,")


def test_fan_csv_header():
    text = fan_csv([(1e-2, 0, 0.99), (1e-2, 1, 1.01)])
    lines = text.splitlines()
    assert lines[0] == "epsilon,branch_index,eigenvalue"
    assert len(lines) == 3


def test_json_text_rejects_non_finite():
    assert json_text({"a": 1}) == '{\n  "a": 1\n}\n'
    with pytest.raises(ValueError):
        json_text({"a": float("nan")})


@settings(max_examples=400, deadline=None)
@given(_payloads)
def test_json_text_matches_reference_bytes(payload):
    assert json_text(payload) == reference_json(payload)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_json_text_rejects_non_finite_matrix_entries(bad):
    payload = {"matrix": [[1.0, 2.0], [bad, 4.0]]}
    with pytest.raises(ValueError):
        reference_json(payload)
    with pytest.raises(ValueError):
        json_text(payload)


@pytest.mark.parametrize("diag", ["zero", "one"])
@pytest.mark.parametrize("n, lambda0, alpha", SPLIT_CASES)
def test_split_json_matches_reference_bytes(capsys, monkeypatch, n, lambda0, alpha, diag):
    built = []
    compute = perturbation.first_order_corrections

    def spy(*args, **kwargs):
        built.append(compute(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(perturbation, "first_order_corrections", spy)
    code = main([
        "split", "--lambda", str(lambda0), "--n", str(n), "--alpha", alpha,
        "--diag", diag, "--format", "json",
    ])
    out = capsys.readouterr().out
    assert code in (0, 3)
    assert len(built) == 1
    assert out == reference_json(built[0].to_dict())
