"""Face and report document serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import b_pair
from polydissect.bijection import decode
from polydissect.complexes import Face, enumerate_faces, is_face
from polydissect.documents import (
    REPORT_SCHEMA,
    diagonal_from_labels,
    diagonal_to_labels,
    dump_json,
    face_to_document,
    load_face,
    make_report,
    parse_face_document,
)
from polydissect.errors import FaceDocumentError
from polydissect.polygons import (
    FAMILY_A,
    FAMILY_B,
    KIND_PAIR,
    PolygonParams,
    a_diagonal,
    all_diagonals,
    diameter,
    initial_position,
)


def test_diagonal_label_round_trip_family_a():
    params = PolygonParams(FAMILY_A, 2, 3)
    d = a_diagonal(params, 0, 3)
    labels = diagonal_to_labels(params, d)
    assert labels == [1, 4]
    assert diagonal_from_labels(params, labels) == d


def test_diagonal_label_round_trip_family_b():
    params = PolygonParams(FAMILY_B, 2, 6)
    d = b_pair(params, 10, 17)
    labels = diagonal_to_labels(params, d)
    assert labels[0] == 11  # initial point leads
    assert diagonal_from_labels(params, labels) == d
    diam = diameter(params, 10)
    assert diagonal_to_labels(params, diam) == [11, -11]
    assert diagonal_from_labels(params, [11, -11]) == diam
    assert diagonal_from_labels(params, [-11, 11]) == diam


@pytest.mark.parametrize("m", range(1, 5))
def test_canonical_chords_start_at_their_initial_point(m):
    """`diagonal_to_labels` writes the canonical chord (a, b) as it is: a
    pair's canonical chord is its short constituent, whose travel starts at
    its smaller end, and a diameter's runs from its positive end."""
    for n in range(1, 9):
        params = PolygonParams(FAMILY_B, m, n)
        size = params.size
        for d in all_diagonals(params):
            a, b = d.canonical
            if d.kind == KIND_PAIR:
                assert 2 * (b - a) < size and initial_position(size, a, b) == a < params.half
            else:
                assert b == params.mirror(a) and a < params.half
            assert diagonal_to_labels(params, d)[0] == params.label_of_position(a) > 0


def test_face_document_round_trip():
    params = PolygonParams(FAMILY_B, 2, 6)
    face = decode(params, (6, 11, 11, 12), (1, 1, 0, 1, 0, 1))
    doc = face_to_document(face)
    assert doc["family"] == FAMILY_B and doc["m"] == 2 and doc["n"] == 6
    assert parse_face_document(doc) == face
    assert load_face(json.dumps(doc)) == face


def test_face_document_round_trip_for_every_face():
    params = PolygonParams(FAMILY_B, 2, 2)
    table = enumerate_faces(params)
    for i in range(params.rank + 1):
        for face in table.faces(i):
            assert parse_face_document(face_to_document(face)) == face


def test_empty_face_document():
    params = PolygonParams(FAMILY_A, 2, 3)
    doc = face_to_document(Face(params, frozenset()))
    assert doc["diagonals"] == []
    assert parse_face_document(doc) == Face(params, frozenset())


def test_load_face_unwraps_reports():
    params = PolygonParams(FAMILY_B, 1, 2)
    face = decode(params, (1,), (1, 0))
    report = make_report("decode", {"family": "B", "m": 1, "n": 2}, face_to_document(face))
    assert load_face(dump_json(report)) == face


def test_malformed_documents_are_rejected():
    good = {"family": "B", "m": 1, "n": 2, "diagonals": [[1, -1]]}
    for breakage in [
        lambda d: d.pop("family"),
        lambda d: d.pop("m"),
        lambda d: d.__setitem__("m", "two"),
        lambda d: d.__setitem__("family", "C"),
        lambda d: d.__setitem__("diagonals", [[1, -1], [1, -1]]),
        lambda d: d.__setitem__("diagonals", [[1]]),
        lambda d: d.__setitem__("diagonals", [[0, 2]]),
        lambda d: d.__setitem__("diagonals", [[1, 99]]),
        lambda d: d.__setitem__("diagonals", "nope"),
        lambda d: d.__setitem__("diagonals", [[1, 2]]),  # adjacent, invalid
    ]:
        doc = json.loads(json.dumps(good))
        breakage(doc)
        with pytest.raises(FaceDocumentError):
            parse_face_document(doc)
    with pytest.raises(FaceDocumentError):
        load_face("not json at all {")
    with pytest.raises(FaceDocumentError):
        load_face("[1, 2, 3]")


@pytest.mark.parametrize(
    "text",
    [
        '{"family":"B","m":true,"n":2,"diagonals":[[true,-1]]}',
        '{"family":"B","m":2,"n":true,"diagonals":[]}',
        '{"family":"B","m":1,"n":2,"diagonals":[[true,-1]]}',
    ],
)
def test_json_booleans_are_not_integers(text):
    # isinstance(True, int) holds, so without a bool check m=true loads as m=1
    with pytest.raises(FaceDocumentError):
        load_face(text)


def test_crossing_faces_are_rejected():
    doc = {"family": "B", "m": 1, "n": 2, "diagonals": [[1, 3], [2, -2]]}
    with pytest.raises(FaceDocumentError):
        parse_face_document(doc)


def test_reports_are_deterministic_and_schema_tagged():
    report = make_report("count", {"family": "A", "m": 1, "n": 2}, {"x": 1})
    assert report["schema"] == REPORT_SCHEMA
    assert "timing" not in report
    text1 = dump_json(report)
    text2 = dump_json(make_report("count", {"family": "A", "m": 1, "n": 2}, {"x": 1}))
    assert text1 == text2
    assert text1.endswith("\n")
    parsed = json.loads(text1)
    assert parsed["command"] == "count"
    timed = make_report("count", {}, {}, timing=1.25)
    assert timed["timing"] == {"seconds": 1.25}


def test_unparseable_json_is_a_document_error():
    for text in ["1" * 5000, "[" * 100_000, '{"m": 1' + "0" * 5000 + "}"]:
        with pytest.raises(FaceDocumentError, match="^not valid JSON: "):
            load_face(text)


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True) | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
)
LABELS = st.integers(min_value=-9, max_value=9)
ODD_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)


@st.composite
def near_miss_documents(draw):
    """Face documents over small parameters, most with one or two fields
    wrong, missing or mistyped, some wrapped in a report."""
    params = PolygonParams(
        draw(st.sampled_from([FAMILY_A, FAMILY_B])),
        draw(st.integers(min_value=1, max_value=3)),
        draw(st.integers(min_value=1, max_value=4)),
    )
    valid = [diagonal_to_labels(params, d) for d in all_diagonals(params)]
    pairs = st.sampled_from(valid + [p[::-1] for p in valid] or [[1, 1]])
    doc = {
        "family": params.family,
        "m": params.m,
        "n": params.n,
        "diagonals": draw(st.lists(pairs, min_size=1, max_size=4, unique_by=tuple)),
    }
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        key = draw(st.sampled_from(sorted(doc)))
        how = draw(st.sampled_from(["drop", "replace", "odd pair", "label pair", "repeat"]))
        if how == "drop":
            doc.pop(key, None)
        elif how == "replace":
            doc[key] = draw(st.sampled_from(["C", 0, -1, True, 2.0, "2"]) | ODD_VALUES)
        elif isinstance(doc.get("diagonals"), list) and how == "odd pair":
            doc["diagonals"].append(draw(st.lists(LABELS | ODD_VALUES, max_size=3)))
        elif isinstance(doc.get("diagonals"), list) and how == "label pair":
            doc["diagonals"].append(draw(st.lists(LABELS, min_size=2, max_size=2)))
        elif isinstance(doc.get("diagonals"), list) and doc["diagonals"]:
            doc["diagonals"].append(list(doc["diagonals"][0]))
    if draw(st.booleans()):
        doc = {"result": doc, "schema": "polydissect.report/1"}
    return json.dumps(doc)


def _load_or_reject(text):
    """The loaded face, or None when load_face raises FaceDocumentError; any
    other exception fails the test."""
    try:
        face = load_face(text)
    except FaceDocumentError:
        return None
    assert is_face(face)
    assert load_face(dump_json(face_to_document(face))) == face
    return face


@settings(max_examples=300, deadline=None, derandomize=True)
@given(JSON_VALUES.map(json.dumps) | st.text(max_size=40))
def test_load_face_on_arbitrary_json_raises_only_document_errors(text):
    _load_or_reject(text)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(near_miss_documents())
def test_load_face_on_near_miss_documents_raises_only_document_errors(text):
    _load_or_reject(text)



def stdlib_dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def written(dump, doc):
    """The text `dump` writes for `doc`, or the class and message it raises."""
    try:
        return dump(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


ODD_TEXT = st.sampled_from(
    ["", "\x00\x1f\x7f\n\t", "\U0001f600 \U00010348", "\ud800", '"\\/', "é"]
)
WRITER_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e300])
    | st.text(max_size=8)
    | ODD_TEXT
)
WRITER_KEYS = st.text(max_size=6) | ODD_TEXT
WRITER_VALUES = st.recursive(
    WRITER_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.lists(st.integers(), max_size=4)
        | st.lists(WRITER_KEYS, max_size=4)
        | st.dictionaries(WRITER_KEYS, inner, max_size=4)
        | st.dictionaries(st.integers() | st.none() | st.booleans() | st.floats(), inner,
                          max_size=3)
        | st.just([[], {}, [[]], {"": {}}])
    ),
    max_leaves=16,
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(WRITER_VALUES)
def test_dump_json_writes_the_bytes_of_the_stdlib_encoder(doc):
    assert written(dump_json, doc) == written(stdlib_dump, doc)


@pytest.mark.parametrize("doc", [
    {"a": [1, {2, 3}]},
    {"b": {"c": [None, object()]}},
    [1, 2, b"bytes"],
    {"k": 1, 2: "mixed keys do not sort"},
    {"big": [10**5000]},
])
def test_dump_json_raises_the_errors_of_the_stdlib_encoder(doc):
    got = written(dump_json, doc)
    assert not isinstance(got, str)
    assert got == written(stdlib_dump, doc)


def test_dump_json_hands_deep_documents_to_the_stdlib_encoder():
    doc = []
    for _ in range(5000):
        doc = [doc]
    for dump in (dump_json, stdlib_dump):
        with pytest.raises(RecursionError):
            dump(doc)
    loop = {"a": []}
    loop["a"].append(loop)
    assert written(dump_json, loop) == written(stdlib_dump, loop)


def test_dump_json_writes_every_face_document_of_the_codec_workload():
    for params in (PolygonParams(FAMILY_B, 2, 4), PolygonParams(FAMILY_B, 3, 3)):
        table = enumerate_faces(params)
        for i in range(params.rank + 1):
            for face in table.faces(i):
                doc = face_to_document(face)
                assert dump_json(doc) == stdlib_dump(doc)
