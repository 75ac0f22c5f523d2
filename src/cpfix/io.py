"""Canonical JSON formats for channels, matrices, and block algebras.

Wire formats (bit-exact contracts):

* channel:  {"dim": d, "terms": [{"weight": w, "matrix": [[[re, im], ...], ...]}, ...]}
* matrix:   {"matrix": [[[re, im], ...], ...]} (a bare nested list is also accepted)
* algebra:  {"blocks": [d1, ...], "weights": [w1, ...]}

Matrices are row-major; complex entries are two-element [re, im] arrays.
Writing uses sorted keys and Python's shortest round-trip float
formatting, so write(read(x)) is byte-stable and files stay diffable.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .algebra import BlockAlgebra
from .channel import KrausFamily

__all__ = [
    "SchemaError",
    "matrix_to_obj",
    "matrix_from_obj",
    "channel_to_obj",
    "channel_from_obj",
    "algebra_from_obj",
    "canonical_dumps",
    "read_json",
    "read_matrix",
    "read_channel",
    "read_algebra",
    "write_matrix",
    "write_channel",
]


class SchemaError(ValueError):
    """Input JSON violates the wire format; message names the field path."""


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def matrix_to_obj(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _as_float(v, path: str) -> float:
    try:
        return float(v)
    except OverflowError:
        raise SchemaError(f"{path}: number too large for a float") from None


def _as_complex_entry(entry, path: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
    ):
        raise SchemaError(f"{path}: complex entries must be [re, im] number pairs")
    return complex(_as_float(entry[0], path), _as_float(entry[1], path))


def matrix_from_obj(obj, path: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{path}: expected a nonempty list of rows")
    n = len(obj)
    # Fast path for JSON-parsed input: one conversion of the whole nested
    # list; the float64 (re, im) pairs reinterpreted as complex128 keep every
    # bit, signed zeros included.  Anything else takes the per-entry loop,
    # which names the offending field.
    if set(map(type, obj)) == {list} and set(map(type, chain.from_iterable(obj))) == {list}:
        try:
            pairs = np.array(obj, dtype=object)
            if pairs.shape == (n, n, 2) and set(map(type, pairs.flat)) <= {int, float}:
                return pairs.astype(np.float64).view(np.complex128).reshape(n, n)
        except (ValueError, OverflowError):
            pass
    out = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{path}[{i}]: expected a row of length {n} (square matrix)")
        for j, entry in enumerate(row):
            out[i, j] = _as_complex_entry(entry, f"{path}[{i}][{j}]")
    return out


def channel_to_obj(kf: KrausFamily) -> dict:
    return {
        "dim": kf.dim,
        "terms": [
            {"weight": float(w), "matrix": matrix_to_obj(x)} for w, x in kf.terms
        ],
    }


def channel_from_obj(obj) -> KrausFamily:
    if not isinstance(obj, dict):
        raise SchemaError("channel: expected a JSON object")
    if "dim" not in obj or "terms" not in obj:
        raise SchemaError("channel: keys 'dim' and 'terms' are required")
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError("dim: must be a positive integer")
    terms = obj["terms"]
    if not isinstance(terms, list) or not terms:
        raise SchemaError("terms: expected a nonempty list")
    parsed = []
    for k, term in enumerate(terms):
        if not isinstance(term, dict) or "weight" not in term or "matrix" not in term:
            raise SchemaError(f"terms[{k}]: keys 'weight' and 'matrix' are required")
        w = term["weight"]
        if not isinstance(w, (int, float)) or isinstance(w, bool) or not w > 0:
            raise SchemaError(f"terms[{k}].weight: must be a strictly positive number")
        w = _as_float(w, f"terms[{k}].weight")
        m = matrix_from_obj(term["matrix"], f"terms[{k}].matrix")
        if m.shape != (dim, dim):
            raise SchemaError(
                f"terms[{k}].matrix: shape {m.shape} does not match dim {dim}"
            )
        parsed.append((w, m))
    return KrausFamily(dim=dim, terms=tuple(parsed))


def algebra_from_obj(obj) -> BlockAlgebra:
    if not isinstance(obj, dict) or "blocks" not in obj or "weights" not in obj:
        raise SchemaError("algebra: keys 'blocks' and 'weights' are required")
    blocks = obj["blocks"]
    weights = obj["weights"]
    if not isinstance(blocks, list) or not all(
        isinstance(b, int) and b > 0 for b in blocks
    ):
        raise SchemaError("blocks: expected a list of positive integers")
    if not isinstance(weights, list) or not all(
        isinstance(w, (int, float)) and not isinstance(w, bool) and w > 0
        for w in weights
    ):
        raise SchemaError("weights: expected a list of positive numbers")
    weights = [_as_float(w, f"weights[{i}]") for i, w in enumerate(weights)]
    try:
        return BlockAlgebra(block_dims=tuple(blocks), weights=tuple(weights))
    except ValueError as exc:
        raise SchemaError(f"algebra: {exc}") from exc


def read_json(path):
    text = Path(path).read_text()
    return json.loads(text)


def read_matrix(path) -> np.ndarray:
    obj = read_json(path)
    if isinstance(obj, dict):
        if "matrix" not in obj:
            raise SchemaError("matrix file: key 'matrix' is required")
        obj = obj["matrix"]
    return matrix_from_obj(obj)


def read_channel(path) -> KrausFamily:
    return channel_from_obj(read_json(path))


def read_algebra(path) -> BlockAlgebra:
    return algebra_from_obj(read_json(path))


def write_matrix(path, m: np.ndarray):
    Path(path).write_text(canonical_dumps({"matrix": matrix_to_obj(m)}))


def write_channel(path, kf: KrausFamily):
    Path(path).write_text(canonical_dumps(channel_to_obj(kf)))
