"""Geometry layer: positions, labels, crossing, diagonal validity.

Oracles are independent re-derivations: crossing by walking the circle and
initial points by the shorter side of a chord (both in `oracles`), family-A
validity by checking both cells of the cut, family-B pairs by brute force
over all chords, and the diagonal list by trying every chord.
"""

import pytest

from oracles import (
    arc_distance,
    b_pair,
    compatible,
    constituents,
    crossing_oracle,
    diagonals_by_scan,
    initial_label,
    short_side,
)
from polydissect import polygons
from polydissect.polygons import (
    FAMILY_A,
    FAMILY_B,
    KIND_CHORD,
    KIND_DIAMETER,
    KIND_PAIR,
    PolygonParams,
    a_diagonal,
    all_diagonals,
    b_diagonal,
    chord,
    constituent_positions,
    diameter,
    initial_position,
    pair_chord,
    pairwise_compatible,
    positions_cross,
)


def a_validity_oracle(params, x, y):
    """A chord is usable iff both cells of the cut polygon have a vertex count
    that is 2 modulo m, and neither cell is degenerate."""
    t = arc_distance(x, y, params.size)
    side1 = t + 1
    side2 = params.size - t + 1
    if side1 < 3 or side2 < 3:
        return False
    return side1 % params.m == 2 % params.m and side2 % params.m == 2 % params.m


def test_arc_distance_wraps():
    assert arc_distance(0, 3, 8) == 3
    assert arc_distance(3, 0, 8) == 5
    assert arc_distance(5, 5, 8) == 0


def test_chord_is_canonical():
    c = chord(5, 2)
    assert (c.a, c.b) == (2, 5)
    with pytest.raises(ValueError):
        chord(3, 3)


@pytest.mark.parametrize("size", range(4, 15))
def test_crossing_matches_oracle(size):
    """`positions_cross`, the one crossing rule, and `pairwise_compatible`,
    which calls it, give the oracle's answer on every chord pair."""
    points = range(size)
    chords = [chord(x, y) for x in points for y in points if x < y]
    for c1 in chords:
        assert not positions_cross([c1], [c1])
        for c2 in chords:
            cross = crossing_oracle(c1, c2, size)
            assert positions_cross([c1], [c2]) == cross
            assert positions_cross([c2], [c1]) == cross
            assert pairwise_compatible([(c1,), (c2,)]) == (not cross)


@pytest.mark.parametrize("size", range(4, 41, 2))
def test_no_chord_crosses_its_mirror(size):
    """On a centrally symmetric polygon a chord and its half-turn image never
    interleave, so `pair_chord` needs no crossing test of its own: a chord
    that passes its other checks is a valid pair constituent."""
    half = size // 2
    for a in range(size):
        for b in range(a + 1, size):
            mirror = chord((a + half) % size, (b + half) % size)
            assert not crossing_oracle(chord(a, b), mirror, size)
            t = b - a
            if min(t, size - t) >= 2 and 2 * t != size:
                c, d = pair_chord(size, 1, a, b)  # m = 1 refuses no arc length
                assert (c, d) in ((a, b), tuple(mirror))


@pytest.mark.parametrize("fam,m,n", [(FAMILY_A, 2, 3), (FAMILY_B, 1, 3), (FAMILY_B, 2, 2)])
def test_constituent_positions_match_constituents(fam, m, n):
    params = PolygonParams(fam, m, n)
    diags = all_diagonals(params)
    groups = constituent_positions(params, diags)
    assert groups == [tuple(tuple(c) for c in constituents(d, params)) for d in diags]
    for d1, g1 in zip(diags, groups):
        for d2, g2 in zip(diags, groups):
            assert positions_cross(g1, g2) == (not compatible(d1, d2, params))


@pytest.mark.parametrize("m,n", [(1, 3), (1, 4), (2, 3), (2, 4), (3, 3)])
def test_a_diagonal_matches_cell_oracle(m, n):
    params = PolygonParams(FAMILY_A, m, n)
    for x in range(params.size):
        for y in range(x + 1, params.size):
            try:
                d = a_diagonal(params, x, y)
                ok = True
                assert d.kind == KIND_CHORD
                assert d.canonical == chord(x, y)
                t = arc_distance(x, y, params.size)
                assert t % m == 1 % m and (params.size - t) % m == 1 % m
            except ValueError:
                ok = False
            assert ok == a_validity_oracle(params, x, y), (x, y)


def test_a_pentagon_with_step_three_has_no_diagonals():
    params = PolygonParams(FAMILY_A, 3, 1)
    assert all_diagonals(params) == []


def test_mirror_is_an_involution_without_fixed_points():
    params = PolygonParams(FAMILY_B, 2, 3)
    for p in range(params.size):
        assert params.mirror(params.mirror(p)) == p
        assert params.mirror(p) != p


def test_labels_round_trip_including_barred():
    params = PolygonParams(FAMILY_B, 2, 3)
    seen = set()
    for p in range(params.size):
        lab = params.label_of_position(p)
        assert params.position_of_label(lab) == p
        seen.add(lab)
    assert seen == set(range(1, params.half + 1)) | {-k for k in range(1, params.half + 1)}
    assert "̅" in params.label_text(params.position_of_label(-3))
    assert "̅" not in params.label_text(params.position_of_label(3))


def test_hexagon_diagonal_inventory():
    params = PolygonParams(FAMILY_B, 1, 2)
    got = {(d.kind, d.canonical) for d in all_diagonals(params)}
    want = {
        (KIND_DIAMETER, chord(0, 3)),
        (KIND_DIAMETER, chord(1, 4)),
        (KIND_DIAMETER, chord(2, 5)),
        (KIND_PAIR, chord(0, 2)),
        (KIND_PAIR, chord(1, 3)),
        (KIND_PAIR, chord(2, 4)),
    }
    assert got == want


@pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_b_pair_count_by_brute_force(m, n):
    params = PolygonParams(FAMILY_B, m, n)
    pairs = set()
    for x in range(params.size):
        for y in range(x + 1, params.size):
            if params.mirror(x) == y:
                continue
            try:
                pairs.add(b_pair(params, x, y))
            except ValueError:
                pass
    # each of the mn+1 useful start labels joins n-1 targets on its side
    assert len(pairs) == (params.half) * (n - 1)
    diams = {diameter(params, p) for p in range(params.size)}
    assert len(diams) == params.half
    assert sorted(pairs | diams, key=lambda d: d.sort_key) == all_diagonals(params)


@pytest.mark.parametrize("family", [FAMILY_A, FAMILY_B])
def test_all_diagonals_match_the_chord_scan(family):
    """The diagonals drawn from their admissible arcs are the scan's, in the
    same order, on every m, n <= 8 and on large polygons with few diagonals."""
    grid = [(m, n) for m in range(1, 9) for n in range(1, 9)] + [(200, 2), (100, 2), (40, 3)]
    for m, n in grid:
        params = PolygonParams(family, m, n)
        assert all_diagonals(params) == diagonals_by_scan(params), (m, n)


@pytest.mark.parametrize("family", [FAMILY_A, FAMILY_B])
def test_all_diagonals_calls_its_constructor_at_most_n_size_times(monkeypatch, family):
    name = "a_diagonal" if family == FAMILY_A else "b_diagonal"
    make, calls = getattr(polygons, name), []

    def counted(params, x, y):
        calls.append((x, y))
        return make(params, x, y)

    monkeypatch.setattr(polygons, name, counted)
    grid = [(m, n) for m in (1, 2, 5) for n in (1, 2, 3, 8)] + [(3000, 2), (1000, 3), (1, 200)]
    for m, n in grid:
        params = PolygonParams(family, m, n)
        del calls[:]
        diagonals = all_diagonals(params)
        assert len(calls) <= n * params.size, (m, n)
        assert len(diagonals) <= len(calls)


@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3) for n in (2, 3, 4)])
def test_b_diagonal_is_the_diameter_or_the_pair(m, n):
    # the choice that label documents and `decode` made before `b_diagonal`
    params = PolygonParams(FAMILY_B, m, n)

    def outcome(make, *args):
        try:
            return make(params, *args)
        except ValueError as exc:
            return str(exc)

    for x in range(params.size):
        for y in range(params.size):
            want = outcome(diameter, x) if params.mirror(x) == y else outcome(b_pair, x, y)
            assert outcome(b_diagonal, x, y) == want


def test_b_pair_canonical_constituent_is_the_mirror_invariant_one():
    params = PolygonParams(FAMILY_B, 2, 6)
    d1 = b_pair(params, 10, 17)
    d2 = b_pair(params, 4, 23)
    assert d1 == d2
    assert d1.canonical == chord(10, 17)
    assert set(constituents(d1, params)) == {chord(10, 17), chord(4, 23)}


def test_short_side_and_initial_points():
    params = PolygonParams(FAMILY_B, 2, 6)
    assert short_side(chord(5, 8), params.size) == (5, 3)
    assert short_side(chord(4, 23), params.size) == (23, 7)
    with pytest.raises(ValueError):
        short_side(chord(0, 13), params.size)
    for d, start in [(b_pair(params, 5, 8), 5), (b_pair(params, 10, 17), 10),
                     (diameter(params, 10), 10)]:
        assert initial_position(params.size, *d.canonical) == start
        assert initial_label(d, params) == start + 1


@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3, 4)])
def test_initial_position_starts_the_shorter_side(m, n):
    params = PolygonParams(FAMILY_B, m, n)
    for d in all_diagonals(params):
        start = initial_position(params.size, *d.canonical)
        assert 0 <= start < params.half  # a positive label
        assert params.label_of_position(start) == initial_label(d, params)


def test_diameter_rejects_nothing_and_canonicalizes():
    params = PolygonParams(FAMILY_B, 1, 2)
    for p in range(params.size):
        d = diameter(params, p)
        assert d.kind == KIND_DIAMETER
        assert 0 <= d.canonical.a <= params.half - 1


def test_a_diagonal_rejects_adjacent_and_off_step():
    params = PolygonParams(FAMILY_A, 2, 3)
    with pytest.raises(ValueError):
        a_diagonal(params, 0, 1)
    with pytest.raises(ValueError):
        a_diagonal(params, 0, 2)
    d = a_diagonal(params, 0, 3)
    assert d.canonical == chord(0, 3)


def test_compatibility_checks_every_constituent():
    params = PolygonParams(FAMILY_B, 1, 2)
    d02 = b_pair(params, 0, 2)
    d13 = b_pair(params, 1, 3)
    d24 = b_pair(params, 2, 4)
    diam0 = diameter(params, 0)
    diam1 = diameter(params, 1)
    # each pair tolerates exactly the diameters at its constituents' endpoints
    assert not compatible(d02, d13, params)
    assert not compatible(d13, d02, params)
    assert compatible(d02, diam0, params)
    assert not compatible(d02, diam1, params)
    assert compatible(d13, diam0, params)
    assert compatible(d13, diam1, params)
    assert not compatible(d13, d24, params)
    assert not compatible(d02, d24, params)
    # the library's face test agrees on every two of them
    diags = [d02, d13, d24, diam0, diam1]
    for d1 in diags:
        for d2 in diags:
            if d1 != d2:
                got = pairwise_compatible(constituent_positions(params, [d1, d2]))
                assert got == compatible(d1, d2, params)


def test_params_validation():
    with pytest.raises(ValueError):
        PolygonParams("C", 1, 1)
    with pytest.raises(ValueError):
        PolygonParams(FAMILY_A, 0, 2)
    with pytest.raises(ValueError):
        PolygonParams(FAMILY_A, 1, 0)
    for m, n in [(2.0, 3), (True, 3), (2, 3.0), (1, False), ("2", 3), (None, 3)]:
        with pytest.raises(ValueError, match="m and n must be ints"):
            PolygonParams(FAMILY_B, m, n)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagonal_totals_match_single_diagonal_counts(m, n):
    from math import comb

    pa = PolygonParams(FAMILY_A, m, n)
    assert len(all_diagonals(pa)) == comb(m * n + 2, 1) * comb(n, 2) // n
    pb = PolygonParams(FAMILY_B, m, n)
    assert len(all_diagonals(pb)) == (m * n + 1) * n


def test_rank_and_size():
    assert PolygonParams(FAMILY_A, 2, 3).size == 8
    assert PolygonParams(FAMILY_A, 2, 3).rank == 2
    assert PolygonParams(FAMILY_B, 2, 3).size == 14
    assert PolygonParams(FAMILY_B, 2, 3).half == 7
    assert PolygonParams(FAMILY_B, 2, 3).rank == 3
