"""Shared JSON formats.

Matrices and vectors travel as ``{"dim": n, "entries": [[re, im], ...]}``
with row-major entries. Floats are always emitted with 17 significant
digits, enough for a double to round-trip exactly.
"""

from __future__ import annotations

import json
import math
from itertools import repeat

import numpy as np

from .linalg import as_matrix, as_vector


def fmt_float(x: float) -> str:
    """Render a finite float with up to 17 significant digits (JSON has no NaN)."""
    if not math.isfinite(x):
        raise ValueError(f"cannot render non-finite float {x}")
    return format(float(x), ".17g")


def fmt_floats(values) -> list[str]:
    """fmt_float of each value, the finiteness checked once for all."""
    values = list(map(float, values))
    if not all(map(math.isfinite, values)):
        fmt_float(next(x for x in values if not math.isfinite(x)))  # raises
    return list(map(float.__format__, values, repeat(".17g")))


def matrix_to_dict(m) -> dict:
    return _to_dict(as_matrix(m))


def vector_to_dict(v) -> dict:
    return _to_dict(as_vector(v))


def _to_dict(a: np.ndarray) -> dict:
    """The ``{"dim": n, "entries": [[re, im], ...]}`` object of a checked
    matrix (entries row-major) or vector."""
    return {"dim": int(a.shape[0]), "entries": [[z.real, z.imag] for z in a.ravel()]}


def _number(x) -> bool:
    """Whether x is a JSON number (bool is an int in Python, not in JSON)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _entries(obj, kind: str, size) -> tuple[int, np.ndarray]:
    """dim and the size(dim) entries of a ``{"dim": n, "entries": [[re, im],
    ...]}`` object; ValueError naming the kind for any other JSON value."""
    try:
        dim, entries = obj["dim"], obj["entries"]
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise TypeError(f"dim must be an integer, got {dim!r}")
        if dim < 1 or len(entries) != size(dim):
            raise ValueError(f"expected {size(dim)} entries for dim {dim}, got {len(entries)}")
        if not all(isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_number, e))
                   for e in entries):
            raise TypeError("each entry must be a pair [re, im] of numbers")
        flat = [complex(re, im) for re, im in entries]
    except (KeyError, TypeError) as exc:
        msg = f'expected a {kind} object {{"dim": n, "entries": [[re, im], ...]}}'
        raise ValueError(msg) from exc
    return dim, np.array(flat, dtype=np.complex128)


def matrix_from_dict(obj) -> np.ndarray:
    """The matrix of a ``{"dim": n, "entries": [[re, im], ...]}`` object;
    ValueError for any other JSON value."""
    dim, flat = _entries(obj, "matrix", lambda dim: dim * dim)
    return as_matrix(flat.reshape(dim, dim))


def vector_from_dict(obj) -> np.ndarray:
    """The vector of a ``{"dim": n, "entries": [[re, im], ...]}`` object;
    ValueError for any other JSON value."""
    return as_vector(_entries(obj, "vector", lambda dim: dim)[1])


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_dict(json.load(fh))


def save_matrix(m, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(matrix_to_dict(m)))
        fh.write("\n")


def dumps(obj) -> str:
    """Deterministic JSON text with 17-significant-digit floats.

    The stdlib encoder renders floats with repr(); this walks the object tree
    itself so every float goes through fmt_float. Dict insertion order is
    preserved, making the output byte-stable for identical inputs.
    """
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list[str]) -> None:
    if isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(fmt_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _emit(v, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
