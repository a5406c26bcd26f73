"""Plain-text export helpers: CSV for matrices and fan plots, JSON text.

All output is deterministic: fixed key order, no timestamps, and
full-precision scientific notation for CSV floats so values round-trip
exactly.

JSON is rendered without the standard library's indenting encoder,
which is pure Python, yet byte for byte as `json.dumps(payload,
indent=2, allow_nan=False)` renders it: dicts and lists are walked
here, the scalars of each container are formatted by json's C encoder
in one call, and float matrices format each distinct IEEE bit pattern
once.  Whatever else (empty containers, non-`str` keys, unsupported
types) is rendered by `json.dumps` itself.
"""
from __future__ import annotations

import json

import numpy as np

_SCALARS = (str, int, float, type(None))


def float_cell(x: float) -> str:
    return f"{float(x):.17e}"


def _matrix_rows(M: np.ndarray, fmt, sep: str) -> list[str]:
    """Each row of the float matrix M as `sep`-joined `fmt(value)` texts.

    `fmt` runs once per distinct bit pattern (so -0.0 and 0.0 stay
    apart); the secular matrix has few distinct values.
    """
    M = np.ascontiguousarray(M, dtype=np.float64)
    bits, inverse = np.unique(M.view(np.int64), return_inverse=True)
    texts = list(map(fmt, bits.view(np.float64).tolist()))
    cells = list(map(texts.__getitem__, inverse.reshape(-1).tolist()))
    width = M.shape[1]
    return [sep.join(cells[i * width:(i + 1) * width]) for i in range(M.shape[0])]


def matrix_csv(matrix) -> str:
    """Row-major CSV of a 2-D array, one matrix row per line."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {M.shape}")
    return "\n".join(_matrix_rows(M, float_cell, ",")) + "\n"


def corrections_csv(corrections) -> str:
    """CSV of first-order corrections: branch_index,correction."""
    lines = ["branch_index,correction"]
    for i, c in enumerate(corrections):
        lines.append(f"{i},{float_cell(c)}")
    return "\n".join(lines) + "\n"


def fan_csv(rows) -> str:
    """CSV of (epsilon, branch_index, eigenvalue) triples."""
    lines = ["epsilon,branch_index,eigenvalue"]
    for eps, idx, mu in rows:
        lines.append(f"{float_cell(eps)},{int(idx)},{float_cell(mu)}")
    return "\n".join(lines) + "\n"


def _float_matrix(rows) -> np.ndarray | None:
    """`rows` as an array if they are equal-length, non-empty lists of finite plain floats."""
    first = rows[0]
    if not isinstance(first, (list, tuple)) or not first:
        return None
    width = len(first)
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != width:
            return None
        if set(map(type, row)) != {float}:
            return None
    M = np.array(rows, dtype=np.float64)
    return M if np.isfinite(M).all() else None


# json's C encoder with a raw newline between items.  It escapes every
# control character inside strings, so a newline in its output is always
# a separator.
_LEAF_ENCODER = json.JSONEncoder(allow_nan=False, separators=("\n", ": "))


def _items(values, indent: str) -> list[str]:
    """Each of `values` rendered at `indent`: all scalars in one C-encoder call."""
    scalars = [v for v in values if isinstance(v, _SCALARS)]
    leaves = iter(_LEAF_ENCODER.encode(scalars)[1:-1].split("\n"))
    return [next(leaves) if isinstance(v, _SCALARS) else _render(v, indent) for v in values]


def _render(obj, indent: str) -> str:
    """`obj` as json.dumps(indent=2) renders it at nesting prefix `indent`."""
    inner = indent + "  "
    item_start, end = "\n" + inner, "\n" + indent
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        pairs = zip(_items(list(obj), inner), _items(list(obj.values()), inner))
        items = [key + ": " + value for key, value in pairs]
        return "{" + item_start + ("," + item_start).join(items) + end + "}"
    if isinstance(obj, (list, tuple)) and obj:
        M = _float_matrix(obj)
        if M is not None:
            cell_start = item_start + "  "
            rows = _matrix_rows(M, float.__repr__, "," + cell_start)
            items = ["[" + cell_start + row + item_start + "]" for row in rows]
        else:
            items = _items(obj, inner)
        return "[" + item_start + ("," + item_start).join(items) + end + "]"
    return json.dumps(obj, indent=2, allow_nan=False).replace("\n", "\n" + indent)


def json_text(payload: dict) -> str:
    """Deterministic JSON rendering of a report dict.

    Equal to `json.dumps(payload, indent=2, allow_nan=False) + "\\n"`,
    raising ValueError on non-finite floats as that call does.  A
    payload that contains itself is not checked for and ends in
    RecursionError.
    """
    return _render(payload, "") + "\n"
