"""The codec's integer checks against the tuple-based checks they replace.

The oracles below are the label conversions, the mirror pair through a
chord (which `b_diagonal` builds for positions that are not antipodal),
`diagonal_from_labels`, `_check_b_face` and `decode` written on `Chord` and
`Diagonal` tuples, with the crossing test of `oracles.compatible`; the
decode oracle walks its stages with `oracles.peel_stages`, not with the
library's `_peel`.  The library's checks run on integer positions; on every
input, valid or not, both must give the same result or raise the same
exception class with the same message.
"""

import sys
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import compatible, peel_stages
from polydissect import documents, polygons
from polydissect.bijection import _peel, decode, encode
from polydissect.complexes import Face, enumerate_faces, face_from_diagonals
from polydissect.documents import diagonal_from_labels, dump_json, face_to_document, load_face
from polydissect.errors import FaceDocumentError, InvalidImageError, MalformedFaceError
from polydissect.polygons import (
    FAMILY_A,
    FAMILY_B,
    KIND_DIAMETER,
    KIND_PAIR,
    Chord,
    Diagonal,
    PolygonParams,
    a_diagonal,
    all_diagonals,
    b_diagonal,
    chord,
    diameter,
    positions_cross,
)


def oracle_position_of_label(params, label):
    if params.family == FAMILY_A:
        if not 1 <= label <= params.size:
            raise ValueError(f"label {label} out of range 1..{params.size}")
        return label - 1
    if 1 <= label <= params.half:
        return label - 1
    if -params.half <= label <= -1:
        return params.half + (-label) - 1
    raise ValueError(f"label {label} out of range +-1..{params.half}")


def oracle_label_of_position(params, p):
    if not 0 <= p < params.size:
        raise ValueError(f"position {p} out of range 0..{params.size - 1}")
    if params.family == FAMILY_A or p < params.half:
        return p + 1
    return -(p - params.half + 1)


def oracle_b_pair(params, x, y):
    if params.family != FAMILY_B:
        raise ValueError("b_diagonal needs family-B parameters")
    size = params.size
    half = size // 2
    c = chord(x % size, y % size)
    t = c.b - c.a
    if min(t, size - t) < 2:
        raise ValueError(f"chord {c} joins adjacent vertices")
    if 2 * t == size:
        raise ValueError(f"chord {c} is a diameter, not a pair constituent")
    mir = chord((c.a + half) % size, (c.b + half) % size)
    if positions_cross((c,), (mir,)):
        raise ValueError(f"chord {c} crosses its mirror {mir}")
    start, arc = (c.a, t) if 2 * t < size else (c.b, size - t)
    if (arc - 1) % params.m != 0:
        raise ValueError(
            f"pair through {c} cuts off parts with {arc + 1} vertices, not 2 mod {params.m}"
        )
    return Diagonal(KIND_PAIR, c if start < half else mir)


def oracle_diagonal_from_labels(params, pair):
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(type(x) is int for x in pair)
    ):
        raise FaceDocumentError(f"diagonal {pair!r} must be a pair of integer labels")
    tag = list(pair)
    try:
        x = oracle_position_of_label(params, pair[0])
        y = oracle_position_of_label(params, pair[1])
    except ValueError as exc:
        raise FaceDocumentError(f"diagonal {tag}: {exc}")
    try:
        if params.family == FAMILY_A:
            return a_diagonal(params, x, y)
        if params.mirror(x) == y:
            return diameter(params, x)
        return oracle_b_pair(params, x, y)
    except ValueError as exc:
        raise FaceDocumentError(f"diagonal {tag}: {exc}")


def oracle_is_face(face):
    ds = list(face.diagonals)
    return all(
        compatible(d1, d2, face.params) for i, d1 in enumerate(ds) for d2 in ds[i + 1:]
    )


def oracle_check_b_face(face):
    params = face.params
    if params.family != FAMILY_B:
        raise MalformedFaceError("the encoding is defined for family-B faces")
    for d in face.diagonals:
        try:
            if d.kind == KIND_DIAMETER:
                ok = diameter(params, d.canonical.a) == d
            elif d.kind == KIND_PAIR:
                ok = oracle_b_pair(params, d.canonical.a, d.canonical.b) == d
            else:
                ok = False
        except ValueError:
            ok = False
        if not ok:
            raise MalformedFaceError(f"{d} is not a valid diagonal of this polygon")
    if not oracle_is_face(face):
        raise MalformedFaceError("diagonals are not pairwise compatible")


def oracle_decode(params, a, eps):
    if params.family != FAMILY_B:
        raise InvalidImageError("the encoding is defined for family B")
    if any(type(x) is not int for x in (*a, *eps)):
        raise InvalidImageError(f"code word entries must be ints, got a={a!r}, eps={eps!r}")
    m, n = params.m, params.n
    if len(eps) != n:
        raise InvalidImageError(f"eps must have {n} entries, got {len(eps)}")
    if any(e not in (0, 1) for e in eps):
        raise InvalidImageError(f"eps entries must be 0 or 1, got {eps!r}")
    if sum(eps) != len(a):
        raise InvalidImageError(f"eps has {sum(eps)} ones but a has {len(a)} entries")
    if any(not 1 <= x <= params.half for x in a):
        raise InvalidImageError(f"a entries must lie in 1..{params.half}, got {a!r}")
    if list(a) != sorted(a):
        raise InvalidImageError(f"a must be weakly increasing, got {a!r}")
    half = params.half
    pool = [x - 1 for x in a]
    diagonals = []
    for stage, p, q, _window in peel_stages(params, pool):
        if p is None:
            raise InvalidImageError(f"no eligible initial point at stage {stage + 1}")
        if eps[stage] == 1:
            try:
                d = diameter(params, p) if q == p + half else oracle_b_pair(params, p, q)
            except ValueError as exc:
                raise InvalidImageError(f"stage {stage + 1} drew an invalid diagonal: {exc}")
            diagonals.append(d)
            pool.remove(p)
    face = face_from_diagonals(params, diagonals)
    if len(face.diagonals) != len(a) or not oracle_is_face(face):
        raise InvalidImageError("decoded diagonals do not form a face")
    return face


def walk(walker, params, pool, places):
    """Every stage `walker` yields on `pool`, removing the stage's start
    from the pool when `places[stage]` is 1, as decode does."""
    pool, stages = list(pool), []
    for stage in walker(params, pool):
        stages.append(stage)
        if stage[1] is not None and places[stage[0]]:
            pool.remove(stage[1])
    return stages


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_peel_matches_the_list_walker_on_every_pool(m, n):
    params = PolygonParams(FAMILY_B, m, n)
    stuck_at = set()
    for k in range(n + 1):
        for pool in combinations_with_replacement(range(params.half), k):
            for places in product((0, 1), repeat=n):
                stages = walk(_peel, params, pool, places)
                assert stages == walk(peel_stages, params, pool, places)
                stuck_at.update(s for s, p, _q, _w in stages if p is None)
    # some walks reach a stage where no start qualifies (never the first)
    assert stuck_at == (set() if n == 1 else set(range(1, n)))


def outcome(fn, *args):
    """What `fn(*args)` returns, or the class and message of what it raises."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # noqa: BLE001  (every exception is compared)
        return type(exc), str(exc)


params_any = st.builds(
    PolygonParams, st.sampled_from([FAMILY_A, FAMILY_B]), st.integers(1, 4), st.integers(1, 4)
)
params_b = st.builds(PolygonParams, st.just(FAMILY_B), st.integers(1, 4), st.integers(1, 4))


@pytest.mark.parametrize("family", [FAMILY_A, FAMILY_B])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 2), (3, 4)])
def test_label_conversions_match_the_oracles(family, m, n):
    params = PolygonParams(family, m, n)
    for value in range(-params.size - 2, params.size + 3):
        assert outcome(params.position_of_label, value) == outcome(
            oracle_position_of_label, params, value)
        assert outcome(params.label_of_position, value) == outcome(
            oracle_label_of_position, params, value)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(params_any, st.integers(-30, 60), st.integers(-30, 60))
def test_b_pair_matches_the_tuple_oracle(params, x, y):
    assume((x - y) % params.size != params.size // 2)  # antipodes draw a diameter
    assert outcome(b_diagonal, params, x, y) == outcome(oracle_b_pair, params, x, y)


LABELS = st.integers(-12, 12)
ODD_PAIRS = (
    st.lists(LABELS, min_size=2, max_size=2)
    | st.tuples(LABELS, LABELS)
    | st.lists(LABELS | st.booleans() | st.none() | st.text(max_size=2), max_size=3)
    | st.integers()
    | st.text(max_size=3)
)


@settings(max_examples=800, deadline=None, derandomize=True)
@given(params_any, ODD_PAIRS)
def test_diagonal_from_labels_matches_the_tuple_oracle(params, pair):
    assert outcome(diagonal_from_labels, params, pair) == outcome(
        oracle_diagonal_from_labels, params, pair)


def oracle_parse(doc):
    params = documents.params_from_document(doc)
    raw = doc.get("diagonals")
    if not isinstance(raw, list):
        raise FaceDocumentError("field 'diagonals' must be a list of label pairs")
    diagonals = [oracle_diagonal_from_labels(params, pair) for pair in raw]
    seen = set()
    for pair, d in zip(raw, diagonals):
        if d in seen:
            raise FaceDocumentError(f"diagonal {list(pair)} appears twice")
        seen.add(d)
    face = face_from_diagonals(params, diagonals)
    if not oracle_is_face(face):
        raise FaceDocumentError("diagonals are not pairwise compatible")
    return face


@settings(max_examples=500, deadline=None, derandomize=True)
@given(params_any, st.lists(st.lists(LABELS, min_size=2, max_size=2), max_size=5))
def test_face_documents_load_as_the_tuple_oracle_loads_them(params, pairs):
    doc = {"family": params.family, "m": params.m, "n": params.n, "diagonals": pairs}
    got = outcome(documents.parse_face_document, doc)
    assert got == outcome(oracle_parse, doc)
    if got[0] == "returned":
        assert outcome(load_face, dump_json(doc)) == got


@st.composite
def odd_faces(draw):
    """Faces of valid diagonals of B(m, n), with odd diagonals mixed in:
    unknown kinds, endpoints off the polygon or out of order, chords of the
    wrong kind, non-canonical constituents."""
    params = draw(params_b | params_any)
    size = params.size
    valid = all_diagonals(params)
    made = []
    for _ in range(draw(st.integers(0, 4))):
        if valid and draw(st.booleans()):
            made.append(draw(st.sampled_from(valid)))
            continue
        kind = draw(st.sampled_from([KIND_PAIR, KIND_DIAMETER, "chord", "other"]))
        x = draw(st.integers(-2, size + 2))
        y = draw(st.integers(-2, size + 2))
        made.append(Diagonal(kind, Chord(x, y)))
    return Face(params, frozenset(made))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(odd_faces())
def test_encode_rejects_as_the_tuple_oracle_does(face):
    want = outcome(oracle_check_b_face, face)
    got = outcome(encode, face)
    if want[0] != "returned":
        assert got == want
    else:
        assert got[0] == "returned"
        assert decode(face.params, got[1].a, got[1].eps) == face


@st.composite
def odd_words(draw):
    """Code words of B(m, n) and A(m, n): half of them well formed, the
    others with entries, lengths or order wrong."""
    params = draw(params_b | params_any)
    half = params.m * params.n + 1
    if draw(st.booleans()):
        ones = draw(st.sets(st.integers(0, params.n - 1), max_size=params.n))
        a = draw(st.lists(st.integers(1, half), min_size=len(ones), max_size=len(ones)))
        return params, tuple(sorted(a)), tuple(int(k in ones) for k in range(params.n))
    a = draw(st.lists(st.integers(-1, half + 1), max_size=params.n + 1))
    if draw(st.booleans()):
        a.sort()
    eps = draw(st.lists(st.sampled_from([0, 1, 0, 1, 2, -1, True]),
                        min_size=max(params.n - 1, 0), max_size=params.n + 1))
    return params, tuple(a), tuple(eps)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(odd_words())
def test_decode_matches_the_tuple_oracle(word):
    assert outcome(decode, *word) == outcome(oracle_decode, *word)


@pytest.mark.parametrize("m,n", [(1, 3), (2, 3), (3, 2)])
def test_decode_matches_the_tuple_oracle_on_every_code_word(m, n):
    params = PolygonParams(FAMILY_B, m, n)
    table = enumerate_faces(params)
    for i in range(params.rank + 1):
        for face in table.faces(i):
            image = encode(face)
            assert outcome(decode, params, image.a, image.eps) == ("returned", face)
            assert oracle_decode(params, image.a, image.eps) == face


def counted(monkeypatch, module, name):
    """Count the calls to `module.name` made through any polydissect module
    that binds it."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("polydissect") and \
                getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_encode_reads_endpoint_positions_once_and_round_trips_build_no_b_pair(monkeypatch):
    params = PolygonParams(FAMILY_B, 2, 4)
    faces = [f for i in range(params.rank + 1) for f in enumerate_faces(params).faces(i)]
    positions = counted(monkeypatch, polygons, "constituent_positions")
    for face in faces:
        del positions[:]
        image = encode(face)
        assert len(positions) == 1
        assert positions[0][1] is face.diagonals
        text = dump_json(face_to_document(face))
        assert decode(params, image.a, image.eps) == load_face(text) == face
