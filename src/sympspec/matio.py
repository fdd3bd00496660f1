"""Matrix file formats: a small JSON schema and bare CSV.

JSON files carry {"dim": <rows>, "entries": [[...], ...]}; CSV files
carry one row per line.  Floats are serialized with Python's shortest
round-trip representation, which preserves every value to 17
significant digits.  All parse and structure failures raise
MatrixFormatError, which the command line maps to its own exit code.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import MatrixFormatError
from .linalg import _real


def _finite_array(rows, source):
    try:
        a = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MatrixFormatError(f"{source}: ragged or non-numeric entries: {exc}") from None
    if a.ndim != 2 or a.size == 0:
        raise MatrixFormatError(f"{source}: expected a nonempty matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise MatrixFormatError(f"{source}: entries must be finite")
    return a


def matrix_from_obj(obj, source="matrix"):
    """Matrix from the parsed JSON object {"dim": rows, "entries": ...}."""
    if not isinstance(obj, dict):
        raise MatrixFormatError(f"{source}: expected an object, got {type(obj).__name__}")
    for key in ("dim", "entries"):
        if key not in obj:
            raise MatrixFormatError(f"{source}: missing key {key!r}")
    a = _finite_array(obj["entries"], source)
    dim = obj["dim"]
    # A JSON boolean is no row count, though Python's bool is an int.
    if isinstance(dim, bool) or not isinstance(dim, int) or dim != a.shape[0]:
        raise MatrixFormatError(f"{source}: dim {dim!r} does not match {a.shape[0]} rows")
    return a


def matrix_to_obj(a):
    a = _real(a, "matrix")
    return {"dim": int(a.shape[0]), "entries": [[float(x) for x in row] for row in a]}


def _parse_csv(text, source):
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError as exc:
            raise MatrixFormatError(f"{source}: bad CSV row {line!r}: {exc}") from None
    if not rows:
        raise MatrixFormatError(f"{source}: no rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise MatrixFormatError(f"{source}: rows have mixed lengths {sorted(widths)}")
    return _finite_array(rows, source)


def load_matrix(path):
    """Matrix from a JSON or CSV file, sniffed by the leading character."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from None
    stripped = text.lstrip()
    if not stripped:
        raise MatrixFormatError(f"{path}: file is empty")
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MatrixFormatError(f"{path}: invalid JSON: {exc}") from None
        return matrix_from_obj(obj, source=str(path))
    return _parse_csv(text, str(path))


def _write_json(obj, path):
    """Stream obj as JSON into path + ".tmp", which then replaces path, so
    an object that cannot be serialised, or a write cut short, leaves the
    file at path as it was; a string formed first would hold it all in memory."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_matrix(a, path):
    _write_json(matrix_to_obj(a), path)


def save_williamson(decomposition, path):
    """Decomposition file with keys d, M, residual_A, residual_J."""
    payload = {
        "d": [float(x) for x in decomposition.d],
        "M": [[float(x) for x in row] for row in decomposition.m],
        "residual_A": float(decomposition.residual_a),
        "residual_J": float(decomposition.residual_j),
    }
    _write_json(payload, path)
