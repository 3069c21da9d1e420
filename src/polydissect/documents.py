"""JSON face documents and machine-readable reports.

A face document fixes the parameters and lists one signed label pair per
diagonal:

    {"family": "B", "m": 2, "n": 6, "diagonals": [[6, 9], [11, -5]]}

Type-B barred labels are negative integers.  A pair [L, -L] is a diameter;
any other pair names one constituent chord of a mirror pair (either one is
accepted, the canonical one is emitted); `polygons.b_diagonal` tells the two
apart and checks them.  Reports carry a schema tag and the library version so
downstream tooling can detect format changes.  `dump_json` writes documents
and reports with the bytes of `json.dumps(doc, indent=2, sort_keys=True)`,
without the stdlib's pure-Python indenting encoder for the values it writes
itself.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _escape

from . import __version__
from .complexes import Face, face_from_diagonals, is_face
from .errors import FaceDocumentError
from .polygons import (
    FAMILY_A,
    FAMILY_B,
    Diagonal,
    PolygonParams,
    a_diagonal,
    b_diagonal,
)

REPORT_SCHEMA = "polydissect.report/1"


def params_from_document(doc: dict) -> PolygonParams:
    for key in ("family", "m", "n"):
        if key not in doc:
            raise FaceDocumentError(f"missing field {key!r}")
    family, m, n = doc["family"], doc["m"], doc["n"]
    if family not in (FAMILY_A, FAMILY_B):
        raise FaceDocumentError(f"family must be 'A' or 'B', got {family!r}")
    # `type(...) is int` because a JSON boolean passes isinstance(..., int)
    if type(m) is not int or type(n) is not int:
        raise FaceDocumentError(f"m and n must be integers, got m={m!r}, n={n!r}")
    try:
        return PolygonParams(family, m, n)
    except ValueError as exc:
        raise FaceDocumentError(str(exc))


def diagonal_from_labels(params: PolygonParams, pair) -> Diagonal:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or type(pair[0]) is not int  # no JSON booleans
        or type(pair[1]) is not int
    ):
        raise FaceDocumentError(f"diagonal {pair!r} must be a pair of integer labels")
    make = a_diagonal if params.family == FAMILY_A else b_diagonal
    try:
        return make(params, params.position_of_label(pair[0]), params.position_of_label(pair[1]))
    except ValueError as exc:
        raise FaceDocumentError(f"diagonal {list(pair)}: {exc}")


def diagonal_to_labels(params: PolygonParams, d: Diagonal) -> list[int]:
    """Signed label pair of the canonical chord, initial point first: a
    type-B canonical chord (a, b) starts at a, the positive end of a
    diameter or the start of a pair's short constituent."""
    a, b = d.canonical
    return [params.label_of_position(a), params.label_of_position(b)]


def parse_face_document(doc: dict) -> Face:
    params = params_from_document(doc)
    raw = doc.get("diagonals")
    if not isinstance(raw, list):
        raise FaceDocumentError("field 'diagonals' must be a list of label pairs")
    diagonals = [diagonal_from_labels(params, pair) for pair in raw]
    face = face_from_diagonals(params, diagonals)
    if len(face.diagonals) != len(diagonals):
        seen = set()
        for pair, d in zip(raw, diagonals):
            if d in seen:
                raise FaceDocumentError(f"diagonal {list(pair)} appears twice")
            seen.add(d)
    if not is_face(face):
        raise FaceDocumentError("diagonals are not pairwise compatible")
    return face


def face_to_document(face: Face) -> dict:
    params = face.params
    return {
        "family": params.family,
        "m": params.m,
        "n": params.n,
        "diagonals": [diagonal_to_labels(params, d) for d in face.sorted_diagonals()],
    }


def load_face(text: str) -> Face:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past the digit limit
        raise FaceDocumentError(f"not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise FaceDocumentError("face document must be a JSON object")
    if "diagonals" not in doc and isinstance(doc.get("result"), dict):
        doc = doc["result"]  # accept a report wrapping a face document
    return parse_face_document(doc)


def make_report(command: str, params: dict, result, timing: float | None = None) -> dict:
    doc = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "command": command,
        "params": params,
        "result": result,
    }
    if timing is not None:
        doc["timing"] = {"seconds": round(timing, 6)}
    return doc


def dump_json(doc) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)` plus a newline, byte for byte.

    With `indent` set, `json.dumps` runs the stdlib's pure-Python encoder.
    This writer emits strings through the C escaper that encoder uses, and a
    list of only ints or only strings with one join.  Every other value goes
    to `json.dumps` itself: floats, empty containers, dicts with a key that is
    not a string and unknown types, so their text and their errors stay the
    same.  Documents nested too deeply for this writer go to `json.dumps`
    whole.
    """
    out: list[str] = []
    try:
        _write(doc, "\n", out)
    except RecursionError:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    out.append("\n")
    return "".join(out)


_INT, _STR = {int}, {str}


def _write(value, newline: str, out: list[str]) -> None:
    """Append `value` as `dump_json` writes it; `newline` is a line break
    followed by the indent of the line that `value` starts on."""
    kind = type(value)
    if (kind is list or kind is tuple) and value:
        inner = newline + "  "
        kinds = {*map(type, value)}
        if kinds == _INT:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
        elif kinds == _STR:
            out.append("[" + inner + ("," + inner).join(map(_escape, value)) + newline + "]")
        else:
            sep = "[" + inner
            for x in value:
                out.append(sep)
                _write(x, inner, out)
                sep = "," + inner
            out.append(newline + "]")
    elif kind is str:
        out.append(_escape(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None or kind is bool:
        out.append("null" if value is None else "true" if value else "false")
    elif kind is dict and value and {*map(type, value)} == _STR:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + _escape(key) + ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        # json.dumps output has no raw line breaks inside strings, so
        # indenting every line break nests it exactly
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))
