"""Abstract complex operations, decomposition certificates, shellings."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydissect import counting, simplicial
from polydissect.complexes import abstract_facets, decomposition_priority, enumerate_faces
from polydissect.errors import NotAFaceError, ResourceLimitError, ShellingError
from polydissect.polygons import FAMILY_A, FAMILY_B, PolygonParams
from polydissect.simplicial import (
    AbstractComplex,
    DecompositionLeaf,
    DecompositionNode,
    ShellingOrder,
    cone,
    deletion,
    faces_by_dimension,
    find_vertex_decomposition,
    format_facet_lines,
    join,
    link,
    parse_facet_lines,
    shelling_from_decomposition,
    sort_vertices,
    sorted_facets,
    verify_shelling,
    verify_vertex_decomposition,
)

FIVE_CYCLE = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
OCTAHEDRON = [
    (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
]


def cx(facets):
    return AbstractComplex([frozenset(f) for f in facets])


def test_non_maximal_faces_are_pruned():
    c = cx([(0, 1), (0,), (1,)])
    assert c.facets == (frozenset({0, 1}),)
    assert c.dim == 1
    assert c.vertices == (0, 1)


def test_void_and_empty_complexes():
    void = cx([])
    assert void.dim == -2 and void.is_pure()
    point_of_nothing = cx([()])
    assert point_of_nothing.dim == -1 and point_of_nothing.is_pure()
    assert point_of_nothing.has_face([])


def test_purity_and_witness():
    impure = cx([(0, 1), (2,)])
    assert not impure.is_pure()
    assert impure.impure_witness() == frozenset({2})
    assert cx(FIVE_CYCLE).impure_witness() is None


def test_has_face():
    c = cx(FIVE_CYCLE)
    assert c.has_face([0])
    assert c.has_face([0, 1])
    assert not c.has_face([0, 2])
    assert c.has_face([])


def test_deletion_of_cycle_vertex_is_path():
    c = cx(FIVE_CYCLE)
    d = deletion(c, [0])
    assert d == cx([(1, 2), (2, 3), (3, 4)])


def test_link_of_cycle_vertex_is_two_points():
    c = cx(FIVE_CYCLE)
    lk = link(c, [0])
    assert lk == cx([(1,), (4,)])
    with pytest.raises(NotAFaceError):
        link(c, [0, 2])


def test_join_of_point_sets_is_complete_bipartite():
    left = cx([("a",), ("b",), ("c",)])
    right = cx([(1,), (2,), (3,)])
    j = join(left, right)
    assert len(j.facets) == 9
    assert all(len(f) == 2 for f in j.facets)
    with pytest.raises(ValueError):
        join(left, left)


def test_cone_makes_every_facet_contain_apex():
    base = cx(FIVE_CYCLE)
    c = cone(base, "apex")
    assert all("apex" in f for f in c.facets)
    assert link(c, ["apex"]) == base
    assert deletion(c, ["apex"]) == base


def test_faces_by_dimension():
    c = cx(FIVE_CYCLE)
    by_dim = faces_by_dimension(c)
    assert len(by_dim[-1]) == 1
    assert len(by_dim[0]) == 5
    assert len(by_dim[1]) == 5


def test_faces_by_dimension_honours_the_face_bound(monkeypatch):
    simplex = cx([range(10)])  # 1024 faces
    assert sum(map(len, faces_by_dimension(simplex, 1024).values())) == 1024
    with pytest.raises(ResourceLimitError) as exc:
        faces_by_dimension(simplex, 1023)
    assert (exc.value.projected, exc.value.bound) == (1024, 1023)
    # each facet fits; their closure does not
    path = cx([(i, i + 1) for i in range(50)])  # 1 + 51 + 50 faces
    assert sum(map(len, faces_by_dimension(path, 102).values())) == 102
    with pytest.raises(ResourceLimitError) as exc:
        faces_by_dimension(path, 60)
    assert exc.value.bound == 60 and 60 < exc.value.projected <= 64
    monkeypatch.setenv("POLYDISSECT_MAX_FACES", "1000")
    with pytest.raises(ResourceLimitError):
        faces_by_dimension(simplex)
    with pytest.raises(ResourceLimitError):
        faces_by_dimension(cx([range(60)]))  # refused before 2**60 subsets


def test_closure_bound_message_names_counts_too_long_to_print():
    with pytest.raises(ResourceLimitError) as exc:
        faces_by_dimension(cx([range(15000)]))
    assert exc.value.projected == 2 ** 15000
    assert str(exc.value) == (
        "face closure has at least 281796... (4516 digits) faces, over bound 10000000"
    )


def test_five_cycle_decomposes_and_verifies():
    c = cx(FIVE_CYCLE)
    cert = find_vertex_decomposition(c)
    assert cert is not None
    assert verify_vertex_decomposition(c, cert)


def test_octahedron_boundary_decomposes():
    c = cx(OCTAHEDRON)
    cert = find_vertex_decomposition(c)
    assert cert is not None
    assert verify_vertex_decomposition(c, cert)
    order = shelling_from_decomposition(c, cert)
    sh = verify_shelling(c, order)
    assert sh.h_vector(c.dim) == (1, 3, 3, 1)


def counting_renames(monkeypatch):
    calls = []

    def counted(cert, mapping):
        calls.append(cert)
        return rename(cert, mapping)

    rename = simplicial._rename
    monkeypatch.setattr(simplicial, "_rename", counted)
    return calls


def test_memoized_certificates_stay_valid_across_relabelings(monkeypatch):
    # two isomorphic links with different vertex names force a memo hit;
    # the returned certificates must name each complex's own vertices
    params = PolygonParams(FAMILY_A, 1, 3)
    table = enumerate_faces(params)
    c = AbstractComplex(abstract_facets(table))
    prio = decomposition_priority(params, table.vertices)
    renames = counting_renames(monkeypatch)
    cert = find_vertex_decomposition(c, prio)
    assert cert is not None
    assert len(renames) > 1  # at least one memo hit, plus the final renaming
    assert verify_vertex_decomposition(c, cert)


def padded_path():
    return AbstractComplex([f"p{i:03d}", f"p{i + 1:03d}"] for i in range(300)), None


def generated_b23():
    params = PolygonParams(FAMILY_B, 2, 3)
    table = enumerate_faces(params)
    return AbstractComplex(abstract_facets(table)), decomposition_priority(params, table.vertices)


@pytest.mark.parametrize("make", [padded_path, generated_b23])
def test_search_renames_only_on_memo_hits(monkeypatch, make):
    c, prio = make()
    keys = []

    def recorded(facets):
        out = canonical_form(facets)
        keys.append(out[0])
        return out

    canonical_form = simplicial._canonical_form
    monkeypatch.setattr(simplicial, "_canonical_form", recorded)
    renames = counting_renames(monkeypatch)
    cert = find_vertex_decomposition(c, prio)
    hits = len(keys) - len(set(keys))  # a state's key recurs only on a memo hit
    assert 1 <= len(renames) <= hits + 1  # the final renaming restores the names
    assert verify_vertex_decomposition(c, cert)


def test_disjoint_edges_have_no_decomposition():
    c = cx([(0, 1), (2, 3)])
    assert find_vertex_decomposition(c) is None


def test_search_respects_state_bound():
    params = PolygonParams(FAMILY_B, 2, 3)
    table = enumerate_faces(params)
    c = AbstractComplex(abstract_facets(table))
    with pytest.raises(ResourceLimitError):
        find_vertex_decomposition(c, max_states=3)


def test_verifier_rejects_mutated_certificates():
    c = cx(FIVE_CYCLE)
    cert = find_vertex_decomposition(c)
    assert isinstance(cert, DecompositionNode)
    wrong_vertex = DecompositionNode(99, cert.link, cert.deletion)
    assert not verify_vertex_decomposition(c, wrong_vertex)
    pretend_cone = DecompositionNode(cert.vertex, cert.link, None)
    assert not verify_vertex_decomposition(c, pretend_cone)
    pretend_leaf = DecompositionLeaf()
    assert not verify_vertex_decomposition(c, pretend_leaf)
    truncated = DecompositionNode(cert.vertex, cert.link, DecompositionLeaf())
    assert not verify_vertex_decomposition(c, truncated)


def test_verifier_rejects_impure_complex():
    assert not verify_vertex_decomposition(cx([(0, 1), (2,)]), DecompositionLeaf())


def test_cone_certificate_round_trip():
    c = cone(cx(FIVE_CYCLE), "apex")
    cert = find_vertex_decomposition(c)
    assert cert is not None
    assert verify_vertex_decomposition(c, cert)
    order = shelling_from_decomposition(c, cert)
    sh = verify_shelling(c, order)
    assert sh.h_vector(c.dim) == (1, 3, 1, 0)  # cone kills the top entry


def test_pentagon_shelling_histogram():
    params = PolygonParams(FAMILY_A, 1, 3)
    table = enumerate_faces(params)
    c = AbstractComplex(abstract_facets(table))
    cert = find_vertex_decomposition(c, decomposition_priority(params, table.vertices))
    sh = verify_shelling(c, shelling_from_decomposition(c, cert))
    assert sh.restriction_histogram() == {0: 1, 1: 3, 2: 1}
    assert sh.h_vector(c.dim) == (1, 3, 1) == counting.narayana_vector(params)


def test_shelling_histogram_matches_narayana_for_b22():
    params = PolygonParams(FAMILY_B, 2, 2)
    table = enumerate_faces(params)
    c = AbstractComplex(abstract_facets(table))
    cert = find_vertex_decomposition(c, decomposition_priority(params, table.vertices))
    sh = verify_shelling(c, shelling_from_decomposition(c, cert))
    assert sh.h_vector(c.dim) == (1, 8, 6) == counting.narayana_vector(params)


def test_bad_orders_raise_with_step():
    c = cx(FIVE_CYCLE)
    order = [frozenset(f) for f in [(0, 1), (2, 3), (1, 2), (3, 4), (0, 4)]]
    with pytest.raises(ShellingError) as err:
        verify_shelling(c, order)
    assert err.value.step == 2

    with pytest.raises(ShellingError) as err:
        verify_shelling(c, [frozenset({0, 1})] * 5)
    assert err.value.step == 0

    with pytest.raises(ShellingError):
        verify_shelling(cx([(0, 1), (2, 3)]), [frozenset({0, 1}), frozenset({2, 3})])


def test_restriction_containment_condition_is_enforced():
    # a dunce-hat style trap: the third facet touches both earlier ones in
    # codimension 1, yet an earlier facet contains its whole restriction set
    c = cx([(0, 1, 2), (1, 2, 3), (0, 1, 3)])
    good = [frozenset(f) for f in [(0, 1, 2), (1, 2, 3), (0, 1, 3)]]
    sh = verify_shelling(c, good)
    assert [len(r) for r in sh.restrictions] == [0, 1, 2]


def random_complexes(count, seed):
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nfacets = rng.randrange(1, 7)
        facets = [
            frozenset(rng.sample(range(7), rng.randrange(1, 5))) for _ in range(nfacets)
        ]
        out.append(AbstractComplex(facets))
    return out


def test_deletions_commute_on_random_complexes():
    for c in random_complexes(40, seed=11):
        for u in c.vertices:
            for v in c.vertices:
                if u != v:
                    assert deletion(deletion(c, [u]), [v]) == deletion(deletion(c, [v]), [u])
                    assert deletion(deletion(c, [u]), [v]) == deletion(c, [u, v])


def test_iterated_links_agree_with_joint_link():
    for c in random_complexes(40, seed=12):
        for u in c.vertices:
            for v in c.vertices:
                if u != v and c.has_face([u, v]):
                    assert link(link(c, [u]), [v]) == link(c, [u, v])


def test_deletion_and_link_commute():
    for c in random_complexes(40, seed=13):
        for u in c.vertices:
            d = deletion(c, [u])
            for v in c.vertices:
                if u != v and d.has_face([v]):
                    assert link(d, [v]) == deletion(link(c, [v]), [u])


def test_join_and_cone_dimension_arithmetic():
    for c1 in random_complexes(8, seed=14):
        assert cone(c1, "apex").dim == c1.dim + 1
        for c2 in random_complexes(8, seed=15):
            shifted = AbstractComplex([{v + 100 for v in f} for f in c2.facets])
            assert join(c1, shifted).dim == c1.dim + shifted.dim + 1


def test_facet_lines_round_trip():
    c = cx(FIVE_CYCLE)
    text = format_facet_lines(c)
    again = parse_facet_lines(text)
    assert {frozenset(map(int, f)) for f in again.facets} == set(c.facets)
    assert parse_facet_lines("").facets == ()
    assert format_facet_lines(cx([])) == ""
    mixed = parse_facet_lines("a b\n\n  c d  \n")
    assert mixed == cx([("a", "b"), ("c", "d")])


# -- the certificate walk against the recursive verifier it replaced -----------


def oracle_verify(c, cert):
    """Recursive verifier built from the public deletion and link."""
    if not c.is_pure():
        return False
    if isinstance(cert, DecompositionLeaf):
        return len(c.facets) <= 1
    if not isinstance(cert, DecompositionNode):
        return False
    v = cert.vertex
    if not c.has_face([v]):
        return False
    lk = link(c, [v])
    if cert.deletion is None:
        return all(v in f for f in c.facets) and oracle_verify(lk, cert.link)
    dl = deletion(c, [v])
    if not dl.facets or dl.dim != c.dim or lk.dim != c.dim - 1:
        return False
    return oracle_verify(dl, cert.deletion) and oracle_verify(lk, cert.link)


def oracle_order(c, cert):
    """Recursive induced order; meaningful only for a verified certificate."""
    if isinstance(cert, DecompositionLeaf):
        return list(c.facets)
    v = cert.vertex
    coned = [f | {v} for f in oracle_order(link(c, [v]), cert.link)]
    if cert.deletion is None:
        return coned
    return oracle_order(deletion(c, [v]), cert.deletion) + coned


def mutants(cert):
    """Certificates that differ from `cert` by one mutation at one node."""
    leaf = DecompositionLeaf()
    if isinstance(cert, DecompositionLeaf):
        yield DecompositionNode(0, leaf, None)
        yield DecompositionNode(0, leaf, leaf)
        return
    v, lk, dl = cert.vertex, cert.link, cert.deletion
    yield leaf  # pretend leaf
    yield DecompositionNode(99, lk, dl)  # wrong vertex, in no facet
    yield DecompositionNode((v + 1) % 6, lk, dl)  # wrong vertex, maybe in a facet
    yield DecompositionNode(v, lk, None)  # pretend cone
    yield DecompositionNode(v, lk, leaf)  # truncated deletion
    for m in mutants(lk):
        yield DecompositionNode(v, m, dl)
    if dl is not None:
        for m in mutants(dl):
            yield DecompositionNode(v, lk, m)


any_facets = st.lists(st.frozensets(st.integers(0, 5), max_size=4), max_size=7)
pure_facets = st.integers(0, 3).flatmap(
    lambda k: st.lists(st.frozensets(st.integers(0, 5), min_size=k, max_size=k), max_size=8)
)
random_certificates = st.recursive(
    st.just(DecompositionLeaf()),
    lambda sub: st.builds(DecompositionNode, st.integers(0, 6), sub, st.none() | sub),
    max_leaves=8,
)


def plausible_certificate(facets, draw):
    """Sheds a vertex of some facet at each step and claims a cone exactly when
    every facet contains it, but ignores whether the deletion is pure."""
    if len(facets) <= 1:
        return DecompositionLeaf()
    v = draw(st.sampled_from(sorted(set().union(*facets))))
    inside = [f - {v} for f in facets if v in f]
    outside = [f for f in facets if v not in f]
    return DecompositionNode(
        v,
        plausible_certificate(inside, draw),
        plausible_certificate(outside, draw) if outside else None,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(any_facets, pure_facets), random_certificates, st.data())
def test_walk_matches_recursive_oracle(facets, random_cert, data):
    c = AbstractComplex(facets)
    found = find_vertex_decomposition(c)
    certs = [random_cert, plausible_certificate(list(c.facets), data.draw)]
    if found is not None:
        certs += [found, *mutants(found)]
    for cert in certs:
        verdict = oracle_verify(c, cert)
        order = shelling_from_decomposition(c, cert)
        assert (order is not None) == verdict == verify_vertex_decomposition(c, cert)
        if verdict:
            assert order == oracle_order(c, cert)
    if found is not None:
        assert shelling_from_decomposition(c, found) is not None


def naive_facets(faces):
    """The quadratic maximal-face filter, as the reference."""
    sets = {frozenset(f) for f in faces}
    return tuple(sorted_facets(f for f in sets if not any(f < g for g in sets)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    st.lists(st.frozensets(st.integers(0, 7), max_size=5), max_size=12),
    st.lists(st.lists(st.sampled_from("abcdef"), max_size=4), max_size=10),
))
def test_maximal_faces_match_naive_filter(faces):
    assert AbstractComplex(faces).facets == naive_facets(faces)


def test_maximal_faces_edge_cases():
    assert cx([]).facets == ()
    assert cx([(), ()]).facets == (frozenset(),)
    assert cx([(), (3,)]).facets == (frozenset({3}),)
    assert cx([(0, 1), (1,), (0, 1), (2,), ()]).facets == (frozenset({2}), frozenset({0, 1}))


def test_deep_certificate_walks_without_recursion():
    # shed 3000 isolated vertices one at a time: 2999 shedding steps, then a leaf
    n = 3000
    c = AbstractComplex([v] for v in range(n))
    cert = DecompositionLeaf()
    for v in reversed(range(n - 1)):
        cert = DecompositionNode(v, DecompositionLeaf(), cert)
    order = shelling_from_decomposition(c, cert)
    assert order == [frozenset({v}) for v in reversed(range(n))]
    assert verify_vertex_decomposition(c, cert)
    assert len(verify_shelling(c, order).restrictions) == n


# -- the bitmask walk and check against the frozenset versions they replaced ----


def frozenset_walk(complex_, cert):
    """The certificate walk on frozensets: the link is f - {v} for each facet
    f through v, and the deletion test looks for each f - {v} among the
    ridges of the facets avoiding v."""
    if not complex_.is_pure():
        return None
    order, stack = [], [(list(complex_.facets), cert, frozenset())]
    while stack:
        facets, node, apex = stack.pop()
        if isinstance(node, DecompositionLeaf) and len(facets) <= 1:
            order.extend(f | apex for f in facets)
            continue
        if not isinstance(node, DecompositionNode):
            return None
        v = node.vertex
        inside = [f - {v} for f in facets if v in f]
        outside = [f for f in facets if v not in f]
        if not inside or (node.deletion is None) == bool(outside):
            return None
        missing = set(inside) if outside else set()
        for g in outside:
            if not missing:
                break
            missing -= {g - {u} for u in g}
        if missing:
            return None
        stack.append((inside, node.link, apex | {v}))
        if outside:
            stack.append((outside, node.deletion, apex))
    return order


def frozenset_verify_shelling(complex_, order):
    """The shelling check on frozensets: restriction vertices by ridge lookup,
    holders as the intersection of per-vertex sets of facet indices."""
    if not complex_.is_pure():
        raise ShellingError("complex is not pure", step=0)
    if len(order) != len(set(order)) or set(order) != set(complex_.facets):
        raise ShellingError("order is not a permutation of the facets", step=0)
    seen_subfaces, containing, restrictions = set(), {}, []
    for j, facet in enumerate(order):
        if j == 0:
            restrictions.append(frozenset())
        else:
            rest = frozenset(v for v in facet if facet - {v} in seen_subfaces)
            if not rest:
                raise ShellingError(
                    f"facet {j + 1} meets the earlier facets only in codimension >= 2",
                    step=j + 1,
                )
            holders = None
            for v in rest:
                idxs = containing.get(v, set())
                holders = set(idxs) if holders is None else holders & idxs
                if not holders:
                    break
            if holders:
                raise ShellingError(
                    f"facet {j + 1} meets facet {min(holders) + 1} outside its restriction faces",
                    step=j + 1,
                )
            restrictions.append(rest)
        for v in facet:
            seen_subfaces.add(facet - {v})
            containing.setdefault(v, set()).add(j)
    return ShellingOrder(tuple(order), tuple(restrictions))


def walk_mutants(cert, coned=()):
    """One mutation at one node: a wrong vertex, a vertex already coned on
    the path, a vertex in no facet, a pretend cone, a pretend leaf."""
    if isinstance(cert, DecompositionLeaf):
        yield DecompositionNode(0, cert, None)
        return
    v, lk, dl = cert.vertex, cert.link, cert.deletion
    yield DecompositionLeaf()
    yield DecompositionNode((v + 1) % 6, lk, dl)
    yield DecompositionNode("absent", lk, dl)
    yield DecompositionNode(v, lk, None)
    for u in coned[-1:]:
        yield DecompositionNode(u, lk, dl)
    for m in walk_mutants(lk, coned + (v,)):
        yield DecompositionNode(v, m, dl)
    if dl is not None:
        for m in walk_mutants(dl, coned):
            yield DecompositionNode(v, lk, m)


def test_shelling_error_names_the_first_facet_holding_the_restriction():
    # the sixth facet's restriction {0} lies in the first two facets
    order = [frozenset(f) for f in [(0, 1, 2), (0, 1, 3), (1, 3, 4), (3, 4, 5), (4, 5, 6),
                                    (0, 4, 5)]]
    c = AbstractComplex(order)
    for check in (verify_shelling, frozenset_verify_shelling):
        with pytest.raises(ShellingError) as err:
            check(c, order)
        assert (str(err.value), err.value.step) == (
            "facet 6 meets facet 1 outside its restriction faces", 6
        )


def shelling_outcome(check, complex_, order):
    try:
        return "ok", check(complex_, order)
    except ShellingError as exc:
        return "error", str(exc), exc.step


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(any_facets, pure_facets), random_certificates, st.data())
def test_bitmask_walk_and_check_match_frozenset_oracles(facets, random_cert, data):
    c = AbstractComplex(facets)
    found = find_vertex_decomposition(c)
    certs = [random_cert, plausible_certificate(list(c.facets), data.draw)]
    if found is not None:
        certs += [found, *walk_mutants(found)]
    orders = [data.draw(st.permutations(c.facets)) for _ in range(3)]
    for cert in certs:
        order = shelling_from_decomposition(c, cert)
        assert order == frozenset_walk(c, cert)
        if order is not None:
            orders.append(order)
    for order in orders:
        assert (
            shelling_outcome(verify_shelling, c, order)
            == shelling_outcome(frozenset_verify_shelling, c, order)
        )


# -- the position search against the name-based search it replaced -------------


def oracle_vkey(v):
    return (v.__class__.__name__, repr(v))


def oracle_canonical_form(facets):
    row_list = [tuple(sort_vertices(f)) for f in facets]
    try:
        rows = sorted(row_list)
    except TypeError:
        rows = sorted(row_list, key=lambda row: tuple(oracle_vkey(v) for v in row))
    index = {}
    out = []
    for row in rows:
        for v in row:
            if v not in index:
                index[v] = len(index)
        out.append(tuple(sorted(index[v] for v in row)))
    return tuple(sorted(out)), index


def oracle_rename(cert, mapping):
    if isinstance(cert, DecompositionLeaf):
        return cert
    return DecompositionNode(
        mapping[cert.vertex],
        oracle_rename(cert.link, mapping),
        None if cert.deletion is None else oracle_rename(cert.deletion, mapping),
    )


def oracle_find(complex_, priority=None):
    """The name-based memoized search, renaming every certificate it stores."""
    rank = priority or {}
    memo = {}
    leaf = DecompositionLeaf()

    def candidate_order(verts):
        return sorted(sort_vertices(verts), key=lambda v: rank.get(v, len(rank)))

    def search(facets):
        if len(facets) <= 1:
            return leaf
        if len({len(f) for f in facets}) > 1:
            return None
        key, fwd = oracle_canonical_form(facets)
        if key in memo:
            stored = memo[key]
            if stored is None:
                return None
            return oracle_rename(stored, {c: a for a, c in fwd.items()})
        memo[key] = None

        cover = {}
        for f in facets:
            for v in f:
                sub = f - {v}
                cover[sub] = cover.get(sub, 0) + 1
        ground = set().union(*facets)

        result = None
        for v in candidate_order(ground):
            inside = [f for f in facets if v in f]
            outside = [f for f in facets if v not in f]
            if outside and any(cover[f - {v}] == 1 for f in inside):
                continue
            link_facets = [f - {v} for f in inside]
            cert_link = search(link_facets)
            if cert_link is None:
                continue
            if not outside:
                result = DecompositionNode(v, cert_link, None)
                break
            cert_del = search(outside)
            if cert_del is None:
                continue
            result = DecompositionNode(v, cert_link, cert_del)
            break

        memo[key] = None if result is None else oracle_rename(result, fwd)
        return result

    return search(list(complex_.facets))


NAMES = [f"v{i}" for i in range(10)]  # shuffled, so names do not sort as the ints they replace
named_pure_facets = st.tuples(
    st.integers(1, 4).flatmap(
        lambda k: st.lists(st.frozensets(st.integers(0, 9), min_size=k, max_size=k),
                           max_size=12)
    ),
    st.none() | st.permutations(NAMES),
    st.none() | st.dictionaries(st.integers(0, 9), st.integers(0, 3), max_size=6),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(named_pure_facets)
def test_search_matches_name_based_oracle(case):
    facets, names, priority = case  # a priority may leave vertices out
    if names is not None:
        facets = [frozenset(names[v] for v in f) for f in facets]
        priority = priority and {names[v]: r for v, r in priority.items()}
    c = AbstractComplex(facets)
    assert find_vertex_decomposition(c, priority) == oracle_find(c, priority)


@pytest.mark.parametrize("family,m,n", [(FAMILY_A, 1, 4), (FAMILY_B, 2, 3)])
def test_generated_certificates_match_name_based_oracle(family, m, n):
    params = PolygonParams(family, m, n)
    table = enumerate_faces(params)
    c = AbstractComplex(abstract_facets(table))
    prio = decomposition_priority(params, table.vertices)
    cert = find_vertex_decomposition(c, prio)
    assert cert is not None and cert == oracle_find(c, prio)
    names = {v: f"x{(7 * v) % 101}" for v in c.vertices}  # names out of vertex order
    renamed = AbstractComplex({names[v] for v in f} for f in c.facets)
    renamed_prio = {names[v]: r for v, r in prio.items()}
    assert find_vertex_decomposition(renamed, renamed_prio) == oracle_find(renamed, renamed_prio)


PIECE_NAMES = [f"v{i}" for i in range(18)]  # shuffled, as above
disjoint_unions = st.tuples(
    st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.lists(st.frozensets(st.integers(0, 5), min_size=k, max_size=k),
                     min_size=1, max_size=6),
            min_size=2, max_size=3,
        )
    ),
    st.none() | st.permutations(PIECE_NAMES),
    st.none() | st.dictionaries(st.integers(0, 17), st.integers(0, 3), max_size=9),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(disjoint_unions)
def test_pruned_search_matches_name_based_oracle_on_disjoint_unions(case):
    # piece j takes the vertices 6j ... 6j + 5, so the pieces share none
    pieces, names, priority = case
    facets = [frozenset(6 * j + v for v in f) for j, piece in enumerate(pieces) for f in piece]
    if names is not None:
        facets = [frozenset(names[v] for v in f) for f in facets]
        priority = priority and {names[v]: r for v, r in priority.items()}
    c = AbstractComplex(facets)
    assert find_vertex_decomposition(c, priority) == oracle_find(c, priority)


def brute_force_decomposable(facets):
    """Whether some vertex sheds, trying every vertex: no memo, no pruning."""
    if len(facets) <= 1:
        return True
    if len({len(f) for f in facets}) > 1:
        return False
    for v in set().union(*facets):
        inside = [f - {v} for f in facets if v in f]
        outside = [f for f in facets if v not in f]
        if outside and not all(any(r < g for g in outside) for r in inside):
            continue  # some link facet is a facet of the deletion, which is then impure
        if brute_force_decomposable(inside) and (not outside or brute_force_decomposable(outside)):
            return True
    return False


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(any_facets, pure_facets))
def test_search_fails_exactly_when_brute_force_finds_nothing(facets):
    c = AbstractComplex(facets)
    cert = find_vertex_decomposition(c)
    assert (cert is None) == (not brute_force_decomposable(list(c.facets)))
    assert cert is None or shelling_from_decomposition(c, cert) is not None


@pytest.mark.parametrize("facets,h", [
    ([[f"x{i}"] for i in range(1500)], {0: 1, 1: 1499}),
    ([[f"p{i:04d}", f"p{i + 1:04d}"] for i in range(1200)], {0: 1, 1: 1199}),
])
def test_search_runs_past_the_recursion_limit(facets, h):
    assert len(facets) > sys.getrecursionlimit()
    c = AbstractComplex(facets)
    cert = find_vertex_decomposition(c)
    order = shelling_from_decomposition(c, cert)
    assert order is not None
    assert verify_shelling(c, order).restriction_histogram() == h


def test_connectivity_pruning_bounds_an_unordered_path(monkeypatch):
    # v0 ... v22 do not sort in path order, so many subproblems are unions of
    # paths; without pruning the search made 115 961 canonical forms (339 with)
    calls = []

    def counted(facets):
        calls.append(facets)
        return canonical_form(facets)

    canonical_form = simplicial._canonical_form
    monkeypatch.setattr(simplicial, "_canonical_form", counted)
    c = AbstractComplex([f"v{i}", f"v{i + 1}"] for i in range(22))
    cert = find_vertex_decomposition(c)
    assert verify_shelling(c, shelling_from_decomposition(c, cert)).restriction_histogram() == {
        0: 1, 1: 21,
    }
    assert len(calls) <= 1000


def test_search_refuses_more_vertices_than_code_points():
    class Huge:  # stands in for a complex with one vertex per code point and more
        vertices = range(sys.maxunicode + 2)
        facets = (frozenset({0, 1}), frozenset({1, 2}))

        def is_pure(self):
            return True

    with pytest.raises(ResourceLimitError) as exc:
        find_vertex_decomposition(Huge())
    assert (exc.value.projected, exc.value.bound) == (sys.maxunicode + 2, sys.maxunicode + 1)
