"""JSON face documents and machine-readable reports.

A face document fixes the parameters and lists one signed label pair per
diagonal:

    {"family": "B", "m": 2, "n": 6, "diagonals": [[6, 9], [11, -5]]}

Type-B barred labels are negative integers.  A pair [L, -L] is a diameter;
any other pair names one constituent chord of a mirror pair (either one is
accepted, the canonical one is emitted).  Reports carry a schema tag and the
library version so downstream tooling can detect format changes.
"""

from __future__ import annotations

import json

from . import __version__
from .complexes import Face, face_from_diagonals, is_face
from .errors import FaceDocumentError
from .polygons import (
    FAMILY_A,
    FAMILY_B,
    KIND_DIAMETER,
    Diagonal,
    PolygonParams,
    a_diagonal,
    b_pair,
    diameter,
    initial_position,
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
        or not all(type(x) is int for x in pair)  # no JSON booleans
    ):
        raise FaceDocumentError(f"diagonal {pair!r} must be a pair of integer labels")
    tag = list(pair)
    try:
        x = params.position_of_label(pair[0])
        y = params.position_of_label(pair[1])
    except ValueError as exc:
        raise FaceDocumentError(f"diagonal {tag}: {exc}")
    try:
        if params.family == FAMILY_A:
            return a_diagonal(params, x, y)
        if params.mirror(x) == y:
            return diameter(params, x)
        return b_pair(params, x, y)
    except ValueError as exc:
        raise FaceDocumentError(f"diagonal {tag}: {exc}")


def diagonal_to_labels(params: PolygonParams, d: Diagonal) -> list[int]:
    """Signed label pair of the canonical chord, initial point first."""
    if d.kind == KIND_DIAMETER:
        p = d.canonical.a
        return [params.label_of_position(p), params.label_of_position(params.mirror(p))]
    if params.family == FAMILY_A:
        return [params.label_of_position(d.canonical.a), params.label_of_position(d.canonical.b)]
    start = initial_position(d, params)
    other = d.canonical.b if d.canonical.a == start else d.canonical.a
    return [params.label_of_position(start), params.label_of_position(other)]


def parse_face_document(doc: dict) -> Face:
    params = params_from_document(doc)
    raw = doc.get("diagonals")
    if not isinstance(raw, list):
        raise FaceDocumentError("field 'diagonals' must be a list of label pairs")
    diagonals = [diagonal_from_labels(params, pair) for pair in raw]
    seen = set()
    for pair, d in zip(raw, diagonals):
        if d in seen:
            raise FaceDocumentError(f"diagonal {list(pair)} appears twice")
        seen.add(d)
    face = face_from_diagonals(params, diagonals)
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
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
