"""Face enumeration against closed forms, a brute-force clique oracle and
the pairwise scan enumeration that the bitmask enumeration replaced; the
region audit against its `Chord`-based form."""

import gc
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import b_pair, compatible, constituents, facets
from polydissect import complexes, counting
from polydissect.complexes import (
    DEFAULT_MAX_FACES,
    MAX_FACES_ENV,
    Face,
    FaceTable,
    abstract_facets,
    check_pure,
    diameter_count,
    enumerate_faces,
    face_from_diagonals,
    facet_region_audit,
    is_face,
    max_faces_bound,
    region_sizes,
)
from polydissect.errors import ResourceLimitError
from polydissect.polygons import (
    FAMILY_A,
    FAMILY_B,
    PolygonParams,
    all_diagonals,
    diameter,
    positions_cross,
)
from polydissect.simplicial import DecompositionLeaf, DecompositionNode

SMALL_GRID = [
    (fam, m, n)
    for fam in (FAMILY_A, FAMILY_B)
    for m in (1, 2, 3)
    for n in (1, 2, 3)
]


def brute_force_f_vector(params):
    """All pairwise-compatible diagonal subsets, by exhaustive subset search."""
    diags = all_diagonals(params)
    counts = [1]
    size = 1
    while True:
        level = 0
        for combo in combinations(diags, size):
            if all(
                compatible(d1, d2, params) for d1, d2 in combinations(combo, 2)
            ):
                level += 1
        if level == 0:
            break
        counts.append(level)
        size += 1
    return tuple(counts)


def scan_enumeration(params, up_to=None, max_faces=None):
    """The pairwise scan enumeration: extend the face on the stack by every
    later diagonal compatible with all of its members, in increasing order."""
    bound = max_faces_bound(max_faces)
    top = params.rank if up_to is None else min(up_to, params.rank)
    projected = sum(oracles.count_faces(params, i) for i in range(top + 1))
    if projected > bound:
        raise ResourceLimitError(
            f"projected face count {projected} exceeds bound {bound}",
            projected=projected,
            bound=bound,
        )
    vertices = all_diagonals(params)
    v = len(vertices)
    compat = [[False] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            if compatible(vertices[i], vertices[j], params):
                compat[i][j] = compat[j][i] = True
    by_card = [[] for _ in range(top + 1)]
    by_card[0].append(())
    emitted = 1
    stack = []

    def extend(start):
        nonlocal emitted
        if len(stack) == top:
            return
        for k in range(start, v):
            row = compat[k]
            if all(row[j] for j in stack):
                stack.append(k)
                emitted += 1
                if emitted > bound:
                    raise ResourceLimitError(
                        f"enumerated face count exceeded bound {bound}", bound=bound
                    )
                by_card[len(stack)].append(tuple(stack))
                extend(k + 1)
                stack.pop()

    extend(0)
    return FaceTable(params, vertices, by_card)


def scan_check_pure(table):
    """The quadratic purity check: each face against every top face."""
    top_sets = [set(ix) for ix in table.by_cardinality[-1]]
    for level in table.by_cardinality[:-1]:
        for ix in level:
            s = set(ix)
            if not any(s <= f for f in top_sets):
                return table.face_from_indices(ix)
    return None


ORDER_GRID = [(FAMILY_A, m, n) for m in (1, 2, 3) for n in range(1, 7)] + [
    (FAMILY_B, m, n) for m in (1, 2, 3) for n in range(1, 6)
]


@pytest.mark.parametrize("fam,m,n", ORDER_GRID)
def test_enumeration_order_matches_the_scan(fam, m, n):
    params = PolygonParams(fam, m, n)
    for up_to in (0, 1, 2, max(params.rank - 1, 0), None):
        table = enumerate_faces(params, up_to=up_to)
        assert table.vertices == all_diagonals(params)
        assert table.by_cardinality == scan_enumeration(params, up_to=up_to).by_cardinality


def _limit_error(enumerate_, params, **kwargs):
    try:
        enumerate_(params, **kwargs)
    except ResourceLimitError as exc:
        return str(exc), exc.projected, exc.bound
    return None


@pytest.mark.parametrize("fam,m,n", [(FAMILY_A, 2, 4), (FAMILY_B, 2, 3), (FAMILY_B, 1, 4)])
def test_max_faces_bounds_raise_like_the_scan(fam, m, n, monkeypatch):
    params = PolygonParams(fam, m, n)
    total = sum(counting.f_vector(params))
    bounds = (0, 1, 2, 7, total // 2, total - 1, total)
    for bound in bounds:
        for up_to in (1, None):
            got = _limit_error(enumerate_faces, params, up_to=up_to, max_faces=bound)
            assert got == _limit_error(scan_enumeration, params, up_to=up_to, max_faces=bound)
    # with the projection out of the way, the bound is met mid-enumeration
    monkeypatch.setattr(oracles, "count_faces", lambda params, i: 0)  # the scan's
    monkeypatch.setattr(counting, "face_counts", lambda params, top: [0])  # enumerate_faces'
    for bound in bounds:
        got = _limit_error(enumerate_faces, params, max_faces=bound)
        assert got == _limit_error(scan_enumeration, params, max_faces=bound)
        if bound < total:
            assert got == (f"enumerated face count exceeded bound {bound}", None, bound)


@pytest.mark.parametrize("fam,m,n", SMALL_GRID + [(FAMILY_B, 2, 4), (FAMILY_A, 2, 5)])
def test_check_pure_matches_the_scan(fam, m, n):
    table = enumerate_faces(PolygonParams(fam, m, n))
    assert check_pure(table) is None and scan_check_pure(table) is None
    facets = table.by_cardinality[-1]
    if len(table.by_cardinality) < 2:
        return
    # drop top faces: whatever only they covered becomes a witness
    for kept in (facets[: len(facets) // 2], facets[1:], facets[::3], []):
        impure = FaceTable(table.params, table.vertices, table.by_cardinality[:-1] + [kept])
        assert check_pure(impure) == scan_check_pure(impure)


def test_check_pure_witness_is_the_first_unmarked_face_of_the_lowest_level():
    params = PolygonParams(FAMILY_A, 1, 4)
    vertices = all_diagonals(params)[:4]
    levels = [[()], [(0,), (1,), (2,), (3,)], [(0, 1), (0, 2), (1, 2), (2, 3)], [(0, 1, 2)]]
    table = FaceTable(params, vertices, levels)
    assert check_pure(table) == scan_check_pure(table) == table.face_from_indices((3,))
    no_top = FaceTable(params, vertices, [[()], [(0,)], []])
    assert check_pure(no_top) == scan_check_pure(no_top) == table.face_from_indices(())
    covered = FaceTable(params, vertices, levels[:3] + [[(0, 1, 2), (1, 2, 3)]])
    assert check_pure(covered) is scan_check_pure(covered) is None
    levels[2].append((1, 3))
    upper = FaceTable(params, vertices, levels[:3] + [[(0, 1, 2), (0, 2, 3)]])
    assert check_pure(upper) == scan_check_pure(upper) == table.face_from_indices((1, 3))


FACE_PARAMS = [
    PolygonParams(fam, m, n)
    for fam, m, n in [
        (FAMILY_A, 1, 4), (FAMILY_A, 2, 3), (FAMILY_A, 1, 6), (FAMILY_A, 3, 3),
        (FAMILY_B, 1, 2), (FAMILY_B, 1, 3), (FAMILY_B, 2, 3), (FAMILY_B, 3, 2),
    ]
]


@st.composite
def diagonal_sets(draw):
    params = draw(st.sampled_from(FACE_PARAMS))
    diags = all_diagonals(params)
    picked = draw(st.lists(st.sampled_from(diags), max_size=params.rank + 2, unique=True))
    return params, picked


@settings(max_examples=400, deadline=None, derandomize=True)
@given(diagonal_sets())
def test_is_face_matches_pairwise_compatibility(drawn):
    params, diags = drawn
    expected = all(compatible(d1, d2, params) for d1, d2 in combinations(diags, 2))
    assert is_face(face_from_diagonals(params, diags)) == expected


def test_vertex_counts():
    assert len(all_diagonals(PolygonParams(FAMILY_A, 1, 3))) == 5
    assert len(all_diagonals(PolygonParams(FAMILY_B, 1, 2))) == 6
    assert len(all_diagonals(PolygonParams(FAMILY_A, 3, 1))) == 0


@pytest.mark.parametrize(
    "fam,m,n",
    [(FAMILY_A, 1, 3), (FAMILY_A, 2, 3), (FAMILY_A, 3, 2), (FAMILY_B, 1, 2), (FAMILY_B, 2, 2)],
)
def test_enumeration_matches_brute_force(fam, m, n):
    params = PolygonParams(fam, m, n)
    assert enumerate_faces(params).f_vector() == brute_force_f_vector(params)


@pytest.mark.parametrize("fam,m,n", SMALL_GRID)
def test_enumeration_matches_closed_form(fam, m, n):
    params = PolygonParams(fam, m, n)
    assert enumerate_faces(params).f_vector() == counting.f_vector(params)


@pytest.mark.parametrize("fam,m,n", SMALL_GRID)
def test_complex_is_pure(fam, m, n):
    params = PolygonParams(fam, m, n)
    assert check_pure(enumerate_faces(params)) is None


def test_empty_complex_edge_case():
    table = enumerate_faces(PolygonParams(FAMILY_A, 3, 1))
    assert table.f_vector() == (1,)
    assert table.facets() == [Face(table.params, frozenset())]
    assert check_pure(table) is None


def test_up_to_truncates_enumeration():
    params = PolygonParams(FAMILY_B, 2, 3)
    table = enumerate_faces(params, up_to=1)
    assert table.f_vector() == counting.f_vector(params)[:2]
    assert enumerate_faces(params, up_to=0).f_vector() == (1,)
    with pytest.raises(ValueError, match="up_to must be >= 0"):
        enumerate_faces(params, up_to=-1)


def test_enumeration_below_two_diagonals_builds_no_compatibility_rows(monkeypatch):
    calls = []

    def counted(g, h):
        calls.append((g, h))
        return positions_cross(g, h)

    monkeypatch.setattr(complexes, "positions_cross", counted)
    params = PolygonParams(FAMILY_A, 1, 300)
    assert enumerate_faces(params, up_to=0).f_vector() == (1,)
    assert enumerate_faces(params, up_to=1).f_vector() == (1, 45149)
    assert calls == []
    small = PolygonParams(FAMILY_A, 1, 4)
    assert enumerate_faces(small, up_to=2).f_vector() == counting.f_vector(small)[:3]
    assert calls  # two diagonals read the rows


def test_region_sizes_of_empty_face_is_whole_polygon():
    params = PolygonParams(FAMILY_A, 2, 3)
    assert region_sizes(Face(params, frozenset())) == [8]


def test_region_sizes_of_a_facet():
    params = PolygonParams(FAMILY_A, 1, 3)
    facet = facets(params)[0]
    assert sorted(region_sizes(facet)) == [3, 3, 3]


@pytest.mark.parametrize("fam,m,n", SMALL_GRID)
def test_every_facet_dissects_into_minimal_cells(fam, m, n):
    params = PolygonParams(fam, m, n)
    for facet in enumerate_faces(params).facets():
        assert facet_region_audit(facet)
        sizes = region_sizes(facet)
        assert all(s == m + 2 for s in sizes)


@pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_every_b_facet_has_exactly_one_diameter(m, n):
    params = PolygonParams(FAMILY_B, m, n)
    table = enumerate_faces(params)
    for facet in table.facets():
        assert diameter_count(facet) == 1
    for i in range(params.rank + 1):
        for face in table.faces(i):
            assert diameter_count(face) <= 1


def test_interior_face_region_sizes_are_valid_cells():
    params = PolygonParams(FAMILY_B, 2, 3)
    for face in enumerate_faces(params).faces(1):
        for s in region_sizes(face):
            assert s % 2 == 2 % 2 and s >= 4  # every cell stays 2 mod m


def split_region_sizes(face):
    """The recursive splitter that the stack pass replaced: each chord splits
    the boundary cycle of its region in two."""
    params = face.params
    chords = []
    for d in face.sorted_diagonals():
        chords.extend(constituents(d, params))

    def split(cycle, pending):
        if not pending:
            return [len(cycle)]
        c = pending[0]
        pos = {p: i for i, p in enumerate(cycle)}
        ia, ib = sorted((pos[c.a], pos[c.b]))
        side1 = cycle[ia : ib + 1]
        side2 = cycle[ib:] + cycle[: ia + 1]
        in1, in2 = set(side1), set(side2)
        rest1, rest2 = [], []
        for other in pending[1:]:
            if {other.a, other.b} <= in1 and not {other.a, other.b} <= in2:
                rest1.append(other)
            elif {other.a, other.b} <= in2:
                rest2.append(other)
            else:
                raise ValueError(f"chord {other} crosses {c}; not a face")
        return split(side1, rest1) + split(side2, rest2)

    return sorted(split(tuple(range(params.size)), chords))


DISSECTION_GRID = [PolygonParams(fam, m, n) for fam in (FAMILY_A, FAMILY_B)
                   for m in range(1, 5) for n in range(1, 7)]
# the complexes of DISSECTION_GRID with at most 20 000 faces: 41 of the 48
ORACLE_GRID = [p for p in DISSECTION_GRID if sum(counting.face_counts(p, p.rank)) <= 20_000]


@pytest.mark.parametrize("params", ORACLE_GRID, ids="{0.family}-{0.m}-{0.n}".format)
def test_region_sizes_match_the_splitter_on_every_face(params):
    table = enumerate_faces(params)
    for level in table.by_cardinality:
        for ix in level:
            face = table.face_from_indices(ix)
            assert region_sizes(face) == split_region_sizes(face)


def test_region_sizes_match_the_splitter_on_random_diagonal_sets():
    rng = random.Random(13)
    raised = 0
    for _ in range(2000):
        params = PolygonParams(rng.choice((FAMILY_A, FAMILY_B)), rng.randint(1, 3),
                               rng.randint(2, 5))
        vertices = all_diagonals(params)
        picked = rng.sample(vertices, rng.randint(0, min(len(vertices), params.n + 1)))
        face = face_from_diagonals(params, picked)
        try:
            want = split_region_sizes(face)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError, match="crosses"):
                region_sizes(face)
            continue
        assert region_sizes(face) == want
    assert 500 < raised < 1500  # both outcomes are well covered


def test_is_face_rejects_crossing_diagonals():
    params = PolygonParams(FAMILY_B, 1, 2)
    crossing = face_from_diagonals(params, [b_pair(params, 0, 2), diameter(params, 1)])
    assert not is_face(crossing)
    fine = face_from_diagonals(params, [b_pair(params, 0, 2), diameter(params, 0)])
    assert is_face(fine)


def test_enumeration_is_deterministic():
    params = PolygonParams(FAMILY_B, 2, 2)
    t1 = enumerate_faces(params)
    t2 = enumerate_faces(params)
    assert t1.vertices == t2.vertices
    assert t1.by_cardinality == t2.by_cardinality


def test_dropped_tables_leave_no_cyclic_garbage(monkeypatch):
    """An enumeration makes no reference cycle, so a table is freed as soon
    as its last reference goes, not when the cycle collector next runs."""
    gc.collect()
    gc.disable()
    try:
        enumerate_faces(PolygonParams(FAMILY_B, 2, 4))
        table = enumerate_faces(PolygonParams(FAMILY_A, 2, 5))
        del table
        enumerate_faces(PolygonParams(FAMILY_B, 1, 4), up_to=2)
        # with the projection out of the way, the bound is met mid-enumeration
        monkeypatch.setattr(counting, "face_counts", lambda params, top: [0])
        assert _limit_error(enumerate_faces, PolygonParams(FAMILY_B, 2, 4), max_faces=500) == (
            "enumerated face count exceeded bound 500", None, 500)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("fam,m,n", [(FAMILY_A, 2, 4), (FAMILY_B, 1, 2), (FAMILY_B, 2, 3)])
def test_count_and_faces_agree_at_every_size(fam, m, n):
    """Sizes past the top have no faces; negative sizes are not read from
    the end of the table but refused."""
    table = enumerate_faces(PolygonParams(fam, m, n))
    top = len(table.by_cardinality) - 1
    for i in range(top + 3):
        assert len(table.faces(i)) == table.count(i)
    assert table.facets() == table.faces(top) != []
    assert table.faces(top + 1) == []
    for i in (-1, -2, -top - 1):
        with pytest.raises(ValueError, match=f"cardinality must be >= 0, got {i}"):
            table.count(i)
        with pytest.raises(ValueError, match=f"cardinality must be >= 0, got {i}"):
            table.faces(i)


def test_projected_count_guard_raises_before_enumerating():
    params = PolygonParams(FAMILY_B, 3, 4)
    with pytest.raises(ResourceLimitError) as err:
        enumerate_faces(params, max_faces=100)
    assert err.value.projected == 4239
    assert err.value.bound == 100


def test_max_faces_env_override(monkeypatch):
    monkeypatch.setenv(MAX_FACES_ENV, "7")
    assert max_faces_bound(None) == 7
    with pytest.raises(ResourceLimitError):
        enumerate_faces(PolygonParams(FAMILY_B, 1, 2))
    monkeypatch.setenv(MAX_FACES_ENV, "not a number")
    with pytest.raises(ValueError):
        max_faces_bound(None)
    monkeypatch.delenv(MAX_FACES_ENV)
    assert max_faces_bound(None) == DEFAULT_MAX_FACES
    assert max_faces_bound(123) == 123


def value_type_cases():
    params = PolygonParams(FAMILY_B, 2, 3)
    diagonal = all_diagonals(params)[0]
    leaf = DecompositionLeaf()
    return [
        (params, ("family", "m", "n")),
        (diagonal, ("kind", "canonical")),
        (Face(params, frozenset([diagonal])), ("params", "diagonals")),
        (leaf, ()),
        (DecompositionNode(diagonal, leaf, None), ("vertex", "link", "deletion")),
        (DecompositionNode(0, leaf, leaf), ("vertex", "link", "deletion")),
    ]


@pytest.mark.parametrize("value,fields", value_type_cases())
def test_value_types_are_frozen_and_hash_like_their_field_tuples(value, fields):
    # frozenset iteration order, and so report bytes, follows these hashes
    assert hash(value) == hash(tuple(getattr(value, name) for name in fields))
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_certificate_nodes_keep_the_attributes_the_tracer_reads():
    leaf = DecompositionLeaf()
    node = DecompositionNode(5, leaf, None)
    assert not hasattr(leaf, "vertex")
    assert (node.vertex, node.link, node.deletion) == (5, leaf, None)


def test_abstract_facets_reference_vertex_indices():
    params = PolygonParams(FAMILY_B, 1, 2)
    table = enumerate_faces(params)
    afs = abstract_facets(table)
    assert len(afs) == 6
    assert all(len(f) == 2 for f in afs)
    union = set()
    for f in afs:
        union |= f
    assert union == set(range(len(table.vertices)))


def test_abstract_facets_are_the_maximal_faces_of_an_impure_table():
    # the edge {0,1} and the isolated vertex 2: a facet below top cardinality
    params = PolygonParams(FAMILY_A, 1, 3)
    table = FaceTable(params, all_diagonals(params)[:3], [[()], [(0,), (1,), (2,)], [(0, 1)]])
    assert sorted(abstract_facets(table), key=sorted) == [frozenset({0, 1}), frozenset({2})]
    assert abstract_facets(FaceTable(params, [], [[()]])) == [frozenset()]
