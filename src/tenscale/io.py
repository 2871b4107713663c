"""JSON schemas for tensors, spectra, weight-vector descriptions, and reports.

All indices are 0-based on the wire.  Serialization is deterministic, so
identical inputs give byte-identical documents, in exactly the bytes of
``json.dumps(doc, indent=2) + "\n"`` on the document with every float first
rounded to 12 significant digits:

- each nested item on its own line, indented two spaces per level, items
  separated by ``,`` and keys followed by ``": "``; empty lists and objects
  are ``[]`` and ``{}``; object keys keep their insertion order;
- strings with json's ASCII escapes (``\\uXXXX`` beyond ASCII);
- ``true``, ``false``, ``null``, and ints in full;
- floats as ``repr`` of the rounded value (``0.5``, ``3.0``, ``1e-05``),
  non-finite ones as ``NaN``, ``Infinity`` and ``-Infinity``;
- one trailing newline.

Tuples are written as lists and NumPy integer and floating scalars as their
Python values.  Object keys must be strings; any other value raises
TypeError.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from .hwv import HWVSpec
from .oracle import MembershipVerdict
from .partitions import as_int
from .scaling import ScalingReport, TargetSpectrum
from .tensors import GroupTuple, Tensor


class SchemaError(ValueError):
    """A document violates its schema; the message carries the position."""


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise SchemaError(f"{where}: {message}")


def _number(v: Any, kinds: tuple = (int, float)) -> bool:
    """A JSON number of the given Python types that a float holds finitely;
    JSON true and false, which Python reads as ints, are not numbers."""
    if isinstance(v, bool) or not isinstance(v, kinds):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def number_array(node: Any, where: str) -> np.ndarray:
    """A JSON number, or a nested array of them with equal lengths at each
    level, as a float array; any other entry is a SchemaError at its path."""
    if _number(node):
        return np.array(float(node))
    _require(isinstance(node, list) and node, where,
             "expected a finite number or a nonempty list of them")
    items = [number_array(v, f"{where}[{i}]") for i, v in enumerate(node)]
    _require(len({a.shape for a in items}) == 1, where,
             "expected items of one shape")
    return np.stack(items)


# --------------------------------------------------------------------------
# Tensors
# --------------------------------------------------------------------------


def tensor_to_obj(x: Tensor) -> dict:
    """Canonical sparse form: integer entries sorted by index, zeros omitted."""
    if not x.is_gaussian_integer():
        raise ValueError("only Gaussian-integer tensors are serialized")
    nonzero = x.data != 0
    values = x.data[nonzero]  # C order, as np.argwhere lists the indices
    entries = [{"idx": idx, "re": int(re), "im": int(im)}
               for idx, re, im in zip(np.argwhere(nonzero).tolist(),
                                      values.real.tolist(), values.imag.tolist())]
    return {"dims": list(x.shape), "entries": entries}


def _dense_to_array(node: Any, dims: Sequence[int], where: str) -> np.ndarray:
    if not dims:
        if _number(node, int):
            return np.array(complex(node))
        if isinstance(node, list) and len(node) == 2 \
                and all(_number(v, int) for v in node):
            return np.array(complex(*node))
        raise SchemaError(f"{where}: expected a finite integer or [re, im] pair")
    _require(isinstance(node, list) and len(node) == dims[0], where,
             f"expected a list of length {dims[0]}")
    return np.stack([_dense_to_array(child, dims[1:], f"{where}[{i}]")
                     for i, child in enumerate(node)])


def tensor_from_obj(obj: Any, where: str = "tensor") -> Tensor:
    _require(isinstance(obj, dict), where, "expected an object")
    _require("dims" in obj, where, "missing 'dims'")
    dims = obj["dims"]
    _require(isinstance(dims, list) and len(dims) >= 2
             and all(_number(n, int) and n >= 1 for n in dims),
             f"{where}.dims", "expected a list of >= 2 positive integers")
    _require(not ("dense" in obj and "entries" in obj), where,
             "give 'dense' or 'entries', not both")
    if "dense" in obj:
        data = _dense_to_array(obj["dense"], dims, f"{where}.dense")
        return Tensor(data)
    _require("entries" in obj, where, "missing 'entries' (or 'dense')")
    entries = obj["entries"]
    _require(isinstance(entries, list), f"{where}.entries", "expected a list")
    data = np.zeros(tuple(dims), dtype=complex)
    seen = set()
    for pos, entry in enumerate(entries):
        here = f"{where}.entries[{pos}]"
        _require(isinstance(entry, dict), here, "expected an object")
        idx = entry.get("idx")
        _require(isinstance(idx, list) and len(idx) == len(dims)
                 and all(_number(i, int) for i in idx),
                 f"{here}.idx", f"expected {len(dims)} integers")
        _require(all(0 <= i < n for i, n in zip(idx, dims)), f"{here}.idx",
                 f"index out of range for dims {dims}")
        _require(tuple(idx) not in seen, f"{here}.idx", f"index {idx} listed twice")
        seen.add(tuple(idx))
        re, im = entry.get("re", 0), entry.get("im", 0)
        _require(_number(re, int) and _number(im, int), here,
                 "'re' and 'im' must be integers within the float range")
        data[tuple(idx)] = complex(re, im)
    return Tensor(data)


# --------------------------------------------------------------------------
# Spectra
# --------------------------------------------------------------------------


def spectrum_from_obj(obj: Any, where: str = "spectrum") -> TargetSpectrum:
    _require(isinstance(obj, dict) and "parts" in obj, where,
             "expected an object with 'parts'")
    parts = obj["parts"]
    _require(isinstance(parts, list) and parts, f"{where}.parts",
             "expected a nonempty list")
    rows = []
    for i, vec in enumerate(parts):
        here = f"{where}.parts[{i}]"
        _require(isinstance(vec, list) and vec, here, "expected a nonempty list")
        row = []
        for j, v in enumerate(vec):
            _require(isinstance(v, str) or _number(v), f"{here}[{j}]",
                     "expected a fraction string or finite number")
            try:
                row.append(Fraction(v) if isinstance(v, str) else v)
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"{here}[{j}]: bad fraction {v!r}") from exc
        exact = all(isinstance(v, Fraction) for v in row)
        try:  # each row as factor 1 of its own target, refused where it stands
            if exact:
                rows.append(TargetSpectrum([row]).parts[0])
                continue
            total = sum(map(float, row))  # which from_floats divides the row by
            rows.append(TargetSpectrum.from_floats([row]).parts[0])
        except OverflowError as exc:  # a mixed row's fraction string past the float range
            raise SchemaError(f"{here}: an entry lies past the float range") from exc
        except ValueError as exc:
            raise SchemaError(
                f"{here}: {str(exc).removeprefix('factor 1: ')}") from exc
        _require(abs(total - 1) <= 1e-6, here,
                 f"entries sum to {total!r}, not 1 within 1e-6")
    return TargetSpectrum(tuple(rows))


# --------------------------------------------------------------------------
# Weight-vector descriptions
# --------------------------------------------------------------------------


def _entries(node: Any, where: str) -> tuple[int, ...]:
    """A JSON list read entry by entry with as_int, the integer rule HWVSpec
    applies; a failure is a SchemaError at the list's JSON path."""
    _require(isinstance(node, list), where, "expected a list of integers")
    try:
        return tuple(as_int(v, f"entry {t}") for t, v in enumerate(node))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def hwv_spec_from_obj(obj: Any, where: str = "hwv") -> HWVSpec:
    _require(isinstance(obj, dict), where, "expected an object")
    for key in ("weight", "indexSeq", "perms"):
        _require(key in obj, where, f"missing {key!r}")
    rows = {}
    for key in ("weight", "perms"):
        _require(isinstance(obj[key], list), f"{where}.{key}",
                 "expected a list of integer lists")
        rows[key] = tuple(_entries(row, f"{where}.{key}[{i}]")
                          for i, row in enumerate(obj[key]))
    index_seq = _entries(obj["indexSeq"], f"{where}.indexSeq")
    try:
        return HWVSpec(weight=rows["weight"], index_seq=index_seq,
                       perms=rows["perms"])
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


def group_to_obj(group: GroupTuple) -> list:
    return [[[{"re": float(v.real), "im": float(v.imag)} for v in row]
             for row in np.asarray(mat, dtype=complex)]
            for mat in group]


def report_to_obj(report: ScalingReport) -> dict:
    obj = {
        "verdict": report.verdict,
        "iterations": report.iterations,
        "budgetT": report.budget,
        "epsilon": report.epsilon,
        "trace": [{"i": rec.index - 1,
                   "frobenius": [float(e) for e in rec.frobenius],
                   "capacity": float(rec.capacity)}
                  for rec in report.trace],
        "group": group_to_obj(report.group),
    }
    if report.note:
        obj["note"] = report.note
    return obj


def verdict_to_obj(verdict: MembershipVerdict) -> dict:
    return {
        "answer": verdict.answer,
        "epsilon": verdict.epsilon,
        "witness": None if verdict.witness is None
        else group_to_obj(verdict.witness),
        "evidence": report_to_obj(verdict.evidence),
    }


# --------------------------------------------------------------------------
# Deterministic dumping
# --------------------------------------------------------------------------


_ESCAPE = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(v: float) -> str:
    """json's spelling of v rounded to 12 significant digits.

    "%.12g" with a point and no exponent is already the shortest repr of
    the rounded double: below 1e12 distinct 12-digit decimals lie farther
    apart than a normal double's spacing.  An integral text lacks only the
    ".0"; any text with an exponent (subnormals, and [1e12, 1e16) where repr
    still writes plain digits) is parsed and re-spelled by repr.
    """
    text = "%.12g" % v
    if "e" in text:
        return float.__repr__(float(text))
    if "." in text:
        return text
    return _NONFINITE.get(text) or text + ".0"


def _encode(node: Any, indent: str) -> str:
    """node as JSON text whose nested lines start with ``indent`` plus two
    spaces; ``indent`` begins with the newline."""
    cls = type(node)
    if cls is float:
        return _float_text(node)
    if cls is str:
        return _ESCAPE(node)
    if cls is dict:
        if not node:
            return "{}"
        inner = indent + "  "
        return "{" + inner + ("," + inner).join(
            [_ESCAPE(k) + ": " + _encode(v, inner) for k, v in node.items()]
        ) + indent + "}"
    if cls is list or cls is tuple:
        if not node:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join(
            [_encode(v, inner) for v in node]) + indent + "]"
    if cls is int:
        return int.__repr__(node)
    if node is None:
        return "null"
    if node is True:
        return "true"
    if node is False:
        return "false"
    # subclasses of the JSON types and NumPy scalars
    if isinstance(node, (float, np.floating)):
        return _float_text(float(node))
    if isinstance(node, str):
        return _ESCAPE(node)
    if isinstance(node, (int, np.integer)):
        return int.__repr__(int(node))
    if isinstance(node, dict):
        return _encode(dict(node), indent)
    if isinstance(node, (list, tuple)):
        return _encode(list(node), indent)
    raise TypeError(f"cannot serialize {type(node)!r}")


def dumps_canonical(obj: Any) -> str:
    """obj as canonical JSON text; see the module docstring for the layout."""
    return _encode(obj, "\n") + "\n"
