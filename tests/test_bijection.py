"""Round-trip, injectivity, and totality of the face encoding."""

import json
import time
from itertools import combinations, combinations_with_replacement

import pytest

from polydissect import counting
from polydissect.bijection import BijectionImage, decode, encode
from polydissect.complexes import Face, diameter_count, enumerate_faces, face_from_diagonals
from polydissect.documents import load_face
from polydissect.errors import InvalidImageError, MalformedFaceError
from polydissect.polygons import FAMILY_A, FAMILY_B, PolygonParams, b_pair, chord, diameter

GRID = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]


def test_frozen_example_decodes_and_re_encodes():
    params = PolygonParams(FAMILY_B, 2, 6)
    a = (6, 11, 11, 12)
    eps = (1, 1, 0, 1, 0, 1)
    face = decode(params, a, eps)
    assert len(face.diagonals) == 4
    got = {(d.kind, (d.canonical.a, d.canonical.b)) for d in face.diagonals}
    assert got == {
        ("pair", (5, 8)),
        ("pair", (11, 14)),
        ("pair", (10, 17)),
        ("diameter", (10, 23)),
    }
    assert encode(face) == BijectionImage(a, eps)


def test_single_diameter_base_cases():
    for m in (1, 2, 3, 4):
        params = PolygonParams(FAMILY_B, m, 1)
        table = enumerate_faces(params)
        assert table.f_vector() == (1, m + 1)
        for face in table.faces(1):
            image = encode(face)
            assert image.eps == (1,)
            d = next(iter(face.diagonals))
            assert image.a == (d.canonical.a + 1,)
            assert decode(params, image.a, image.eps) == face


def test_empty_face_encodes_to_all_zero():
    params = PolygonParams(FAMILY_B, 2, 3)
    empty = Face(params, frozenset())
    assert encode(empty) == BijectionImage((), (0, 0, 0))
    assert decode(params, (), (0, 0, 0)) == empty


@pytest.mark.parametrize("m,n", GRID)
def test_round_trip_and_injectivity_everywhere(m, n):
    params = PolygonParams(FAMILY_B, m, n)
    table = enumerate_faces(params)
    for i in range(params.rank + 1):
        images = set()
        for face in table.faces(i):
            image = encode(face)
            assert len(image.a) == i
            assert len(image.eps) == n
            assert sum(image.eps) == i
            assert list(image.a) == sorted(image.a)
            assert decode(params, image.a, image.eps) == face
            images.add((image.a, image.eps))
        assert len(images) == table.count(i) == counting.count_faces(params, i)


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (1, 3), (2, 3)])
def test_decode_is_total_on_well_formed_words(m, n):
    """Every weakly increasing a with a matching eps decodes to a face, so the
    code words are not merely an image set: they fill the whole product."""
    params = PolygonParams(FAMILY_B, m, n)
    seen = set()
    for i in range(n + 1):
        for a in combinations_with_replacement(range(1, params.half + 1), i):
            for ones in combinations(range(n), i):
                eps = tuple(1 if k in ones else 0 for k in range(n))
                face = decode(params, a, eps)
                assert encode(face) == BijectionImage(a, eps)
                seen.add(face)
    assert len(seen) == sum(counting.f_vector(params))


@pytest.mark.parametrize("m,n", GRID)
def test_final_eps_entry_marks_diameter_faces(m, n):
    params = PolygonParams(FAMILY_B, m, n)
    table = enumerate_faces(params)
    for i in range(params.rank + 1):
        for face in table.faces(i):
            image = encode(face)
            has_diameter = diameter_count(face) == 1
            assert (image.eps[-1] == 1) == has_diameter


def test_encode_rejects_family_a_faces():
    params = PolygonParams(FAMILY_A, 2, 3)
    table = enumerate_faces(params)
    with pytest.raises(MalformedFaceError):
        encode(table.faces(1)[0])


def test_encode_rejects_incompatible_diagonals():
    params = PolygonParams(FAMILY_B, 1, 2)
    bad = face_from_diagonals(params, [b_pair(params, 0, 2), diameter(params, 1)])
    with pytest.raises(MalformedFaceError):
        encode(bad)


def test_encode_rejects_foreign_chords():
    params = PolygonParams(FAMILY_B, 1, 2)
    from polydissect.polygons import Diagonal

    fake = Face(params, frozenset([Diagonal("pair", chord(0, 4))]))
    with pytest.raises(MalformedFaceError):
        encode(fake)


def test_decode_validates_shape():
    params = PolygonParams(FAMILY_B, 2, 3)
    with pytest.raises(InvalidImageError):
        decode(params, (1,), (1, 1, 0))  # count mismatch
    with pytest.raises(InvalidImageError):
        decode(params, (1,), (1, 0))  # eps too short
    with pytest.raises(InvalidImageError):
        decode(params, (1,), (2, 0, 0))  # entry out of range
    with pytest.raises(InvalidImageError):
        decode(params, (0,), (1, 0, 0))  # label below range
    with pytest.raises(InvalidImageError):
        decode(params, (8,), (1, 0, 0))  # label above range
    with pytest.raises(InvalidImageError):
        decode(params, (3, 1), (1, 1, 0))  # not weakly increasing
    with pytest.raises(InvalidImageError):
        decode(PolygonParams(FAMILY_A, 2, 3), (1,), (1, 0))  # wrong family


@pytest.mark.parametrize("a,eps", [
    ((1.0,), (1, 0)),
    (("1",), (1, 0)),
    ((True,), (1, 0)),
    ((1,), (True, 0)),
    ((1,), (1.0, 0)),
])
def test_decode_refuses_entries_that_are_not_ints(a, eps):
    params = PolygonParams(FAMILY_B, 1, 2)
    with pytest.raises(InvalidImageError, match="code word entries must be ints"):
        decode(params, a, eps)


def test_large_parameters_build_no_per_parameter_table():
    """B(40,40) has 64 040 diagonals and B(50,50) more: the codec must touch
    only the diagonals it is given, never all pairs of the polygon's."""
    started = time.perf_counter()
    doc = {"family": "B", "m": 40, "n": 40, "diagonals": [[800, -800]]}
    face = load_face(json.dumps(doc))
    assert encode(face) == BijectionImage((800,), (0,) * 39 + (1,))
    assert time.perf_counter() - started < 2

    started = time.perf_counter()
    params = PolygonParams(FAMILY_B, 50, 50)
    assert decode(params, (), (0,) * 50) == Face(params, frozenset())
    face = decode(params, (7, 9), (1,) + (0,) * 48 + (1,))
    assert face == face_from_diagonals(params, [b_pair(params, 8, 59), diameter(params, 6)])
    assert time.perf_counter() - started < 2
