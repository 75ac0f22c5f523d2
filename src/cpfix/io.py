"""Canonical JSON formats for channels, matrices, and block algebras.

Wire formats (bit-exact contracts):

* channel:  {"dim": d, "terms": [{"weight": w, "matrix": [[[re, im], ...], ...]}, ...]}
* matrix:   {"matrix": [[[re, im], ...], ...]} (a bare nested list is also accepted)
* algebra:  {"blocks": [d1, ...], "weights": [w1, ...]}

Matrices are row-major; complex entries are two-element [re, im] arrays.
Writing uses sorted keys and Python's shortest round-trip float
formatting, so write(read(x)) is byte-stable and files stay diffable.
``canonical_dumps`` writes 2-D numpy arrays in the matrix wire format
directly, byte for byte as json would write their ``matrix_to_obj`` lists;
orjson spells each matrix's floats, and repr only those it lays out
differently from json.
Reading parses with orjson, which rejects ``NaN``, ``Infinity``, literals
that overflow a float (1e400), lone surrogates and malformed text.  A
rejected document is parsed again with json: json reads the first four, and
a non-finite number then fails with a ``SchemaError`` that names the field;
on malformed text, json's ``JSONDecodeError`` says where.  orjson reads an
integer literal of 2**64 or more as a float.  A text over 64 KiB is read by
json alone, since orjson 3.8 nests on the C stack without a depth limit.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

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


# Stands in for a matrix in the json text until the matrix is spliced in.
_PLACEHOLDER = "\x00cpfix-matrix\x00"
_ENCODED_PLACEHOLDER = json.dumps(_PLACEHOLDER)
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# orjson 3.8 builds nested arrays and objects on the C stack with no depth
# limit (later releases stop at 1024 levels): a valid document some 10**5
# levels deep overflows an 8 MiB main-thread stack.  Measured with orjson
# 3.8.3, an array level takes about 64 bytes of stack and 2 bytes of text, an
# object level about 152 bytes and 5 bytes of text, so a text of up to
# _SHALLOW_BYTES needs at most about 2 MiB; a longer one is read by json.
_SHALLOW_BYTES = 1 << 16


@functools.lru_cache(maxsize=64)
def _matrix_layout(rows: int, cols: int, level: int) -> tuple[str, ...]:
    """The indent=2 json text of a rows x cols [re, im] matrix around its numbers.

    The 2 rows cols + 1 strings before, between and after the numbers, in
    order, for a matrix that opens on a line at indent level ``level``.
    """
    nl = ["\n" + "  " * (level + k) for k in range(4)]
    # between the two parts of an entry, two entries of a row, and two rows
    part = "," + nl[3]
    entry = nl[2] + "]," + nl[2] + "[" + nl[3]
    row = nl[2] + "]" + nl[1] + "]," + nl[1] + "[" + nl[2] + "[" + nl[3]
    between = (([part, entry] * cols)[:-1] + [row]) * rows
    return ("[" + nl[1] + "[" + nl[2] + "[" + nl[3], *between[:-1], nl[2] + "]" + nl[1] + "]" + nl[0] + "]")


def _float_texts(values: np.ndarray) -> list[str]:
    """json's spelling of each float in the flat float64 array ``values``.

    orjson writes the shortest round-trip digits, as repr does, and one call
    spells the whole array.  Its layout differs from json's in three bands,
    whose floats take repr, and json's NaN and Infinity, instead:

    * 1e-9 <= |x| < 1e-4: orjson writes 1.69e-05 as 0.0000169 and 1.32e-07
      as 1.32e-7 (json pads the exponent to two digits);
    * |x| >= 1e16: orjson writes 3.16e+17 as 3.16e17;
    * NaN and +-inf: orjson writes null.
    """
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mags = np.abs(values)
    # NaN fails every comparison, so it falls out of band
    out_of_band = ~((mags < 1e-9) | ((mags >= 1e-4) & (mags < 1e16)))
    for k in np.flatnonzero(out_of_band).tolist():
        text = repr(float(values[k]))
        texts[k] = _NON_FINITE.get(text, text)
    return texts


def _is_matrix(o) -> bool:
    return isinstance(o, np.ndarray) and o.ndim == 2 and o.dtype.kind in "biufc"


def _matrix_list(o):
    """json ``default`` hook: a 2-D array as its ``matrix_to_obj`` lists."""
    if _is_matrix(o):
        return matrix_to_obj(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def canonical_dumps(obj) -> str:
    """Sorted-key, indent-2 json of ``obj`` plus a newline.

    2-D numpy arrays are written as matrices in the wire format, byte for
    byte as their ``matrix_to_obj`` lists would be, but each in one go: a
    placeholder string holds each one's place in the json text and is
    replaced by the matrix: its floats, spelled by ``_float_texts``, joined
    with the separators of ``_matrix_layout`` at that line's indentation.
    """
    matrices = []

    def placeholder(o):
        if _is_matrix(o) and o.size:
            matrices.append(o)
            return _PLACEHOLDER
        return _matrix_list(o)

    text = json.dumps(obj, sort_keys=True, indent=2, default=placeholder)
    pieces = text.split(_ENCODED_PLACEHOLDER)
    if len(pieces) != len(matrices) + 1:
        # a string in obj spells the placeholder: write every matrix as lists
        return json.dumps(obj, sort_keys=True, indent=2, default=_matrix_list) + "\n"
    out = [pieces[0]]
    for m, before, after in zip(matrices, pieces, pieces[1:]):
        # the matrix takes the indent level of the line its placeholder is on
        line = before[before.rfind("\n") + 1 :]
        level = (len(line) - len(line.lstrip(" "))) // 2
        layout = _matrix_layout(*m.shape, level)
        parts = np.ascontiguousarray(m, dtype=np.complex128).view(np.float64).ravel()
        # the separators on the even places, the floats between them
        spelled = [""] * (2 * len(layout) - 1)
        spelled[::2] = layout
        spelled[1::2] = _float_texts(parts)
        out += ["".join(spelled), after]
    out.append("\n")
    return "".join(out)


def matrix_to_obj(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _is_number(v) -> bool:
    """Whether ``v`` is a JSON number: true and false are not numbers here."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_count(v) -> bool:
    """Whether ``v`` is a JSON integer >= 1, the rule of ``dim`` and of every block size."""
    return isinstance(v, int) and not isinstance(v, bool) and v > 0


def _as_float(v, path: str) -> float:
    try:
        f = float(v)
    except OverflowError:
        raise SchemaError(f"{path}: number too large for a float") from None
    if not math.isfinite(f):
        raise SchemaError(f"{path}: expected a finite number, got {f!r}")
    return f


def _as_complex_entry(entry, path: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(map(_is_number, entry))
    ):
        raise SchemaError(f"{path}: complex entries must be [re, im] number pairs")
    return complex(_as_float(entry[0], path), _as_float(entry[1], path))


def matrix_from_obj(obj, path: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{path}: expected a nonempty list of rows")
    n = len(obj)
    # Fast path for JSON-parsed input: the nested lists flattened once and
    # converted in one call; the float64 (re, im) pairs reinterpreted as
    # complex128 keep every bit, signed zeros included.  Anything else takes
    # the per-entry loop, which names the offending field (a non-finite
    # entry among them).
    if set(map(type, obj)) == {list} and set(map(len, obj)) == {n}:
        entries = list(chain.from_iterable(obj))
        if set(map(type, entries)) == {list} and set(map(len, entries)) == {2}:
            parts = list(chain.from_iterable(entries))
            if set(map(type, parts)) <= {int, float}:
                try:
                    pairs = np.array(parts, dtype=np.float64)
                except OverflowError:  # an integer beyond the float range
                    pass
                else:
                    if np.isfinite(pairs).all():
                        return pairs.view(np.complex128).reshape(n, n)
    out = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{path}[{i}]: expected a row of length {n} (square matrix)")
        for j, entry in enumerate(row):
            out[i, j] = _as_complex_entry(entry, f"{path}[{i}][{j}]")
    return out


def channel_to_obj(kf: KrausFamily) -> dict:
    """The channel wire format, each matrix a 2-D array for ``canonical_dumps`` to write."""
    terms = [{"weight": w, "matrix": x} for w, x in zip(kf.weights.tolist(), kf.operators)]
    return {"dim": kf.dim, "terms": terms}


def channel_from_obj(obj) -> KrausFamily:
    if not isinstance(obj, dict):
        raise SchemaError("channel: expected a JSON object")
    if "dim" not in obj or "terms" not in obj:
        raise SchemaError("channel: keys 'dim' and 'terms' are required")
    dim = obj["dim"]
    if not _is_count(dim):
        raise SchemaError("dim: must be a positive integer")
    terms = obj["terms"]
    if not isinstance(terms, list) or not terms:
        raise SchemaError("terms: expected a nonempty list")
    parsed = []
    for k, term in enumerate(terms):
        if not isinstance(term, dict) or "weight" not in term or "matrix" not in term:
            raise SchemaError(f"terms[{k}]: keys 'weight' and 'matrix' are required")
        w = term["weight"]
        if not _is_number(w) or not w > 0:
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
    if not isinstance(blocks, list) or not all(map(_is_count, blocks)):
        raise SchemaError("blocks: expected a list of positive integers")
    if not isinstance(weights, list) or not all(_is_number(w) and w > 0 for w in weights):
        raise SchemaError("weights: expected a list of positive numbers")
    weights = [_as_float(w, f"weights[{i}]") for i, w in enumerate(weights)]
    try:
        return BlockAlgebra(block_dims=tuple(blocks), weights=tuple(weights))
    except ValueError as exc:
        raise SchemaError(f"algebra: {exc}") from exc


def read_json(path):
    data = Path(path).read_bytes()
    if len(data) <= _SHALLOW_BYTES:
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    # json reads NaN, Infinity, 1e400 and lone surrogates, which the schema
    # checks then name, and explains malformed text in its own words; the
    # text is decoded as Path.read_text would, universal newlines included
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except RecursionError:
        raise SchemaError("JSON nested too deeply") from None


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
    Path(path).write_text(canonical_dumps({"matrix": np.asarray(m, dtype=np.complex128)}))


def write_channel(path, kf: KrausFamily):
    Path(path).write_text(canonical_dumps(channel_to_obj(kf)))
