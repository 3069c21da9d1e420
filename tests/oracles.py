"""Reference code that the tests check the library against.

The library decides crossings, pair validity and initial points on integer
positions, and keeps only the operations its commands run.  The slower,
more literal forms live here, each written once:

* the `Chord` geometry: arc lengths, crossing by walking the circle, the
  chords a diagonal draws, pairwise compatibility, the shorter side of a
  chord and the label of a diagonal's initial point;
* `b_pair`, the mirror pair through a chord, and the diagonals of a polygon
  found by trying every chord;
* the stage walker of the type-B encoding, on a plain list of positions;
* the facets of a dissection complex as one list of `Face`s;
* the face operations on abstract complexes (face test, deletion, link, join,
  cone), the deterministic facet order and the facet-list text writer;
* the binomial closed forms of the face counts, `count_faces` and
  `facet_count`, which `counting.face_counts` computes by a ratio recurrence;
* `f_from_h`, the inverse of `counting.h_from_f`.
"""

from math import comb

from polydissect.complexes import enumerate_faces
from polydissect.polygons import (
    FAMILY_A,
    FAMILY_B,
    KIND_DIAMETER,
    KIND_PAIR,
    Chord,
    Diagonal,
    a_diagonal,
    chord,
    diameter,
    pair_chord,
)
from polydissect.simplicial import AbstractComplex, sort_vertices

# -- polygon geometry ------------------------------------------------------------


def arc_distance(a, b, size):
    """Number of anticlockwise boundary steps from position a to position b."""
    return (b - a) % size


def crossing_oracle(c1, c2, size):
    """Chords cross iff exactly one endpoint of c2 lies strictly between the
    endpoints of c1 (walking anticlockwise) and none are shared."""
    if {c1.a, c1.b} & {c2.a, c2.b}:
        return False
    between = {p % size for p in range(c1.a + 1, c1.a + arc_distance(c1.a, c1.b, size))}
    return len({c2.a, c2.b} & between) == 1


def constituents(d, params):
    """All chords drawn for the diagonal d: a pair's canonical chord and its
    mirror, or the one chord of any other diagonal."""
    if d.kind == KIND_PAIR:
        c = d.canonical
        return (c, chord(params.mirror(c.a), params.mirror(c.b)))
    return (d.canonical,)


def compatible(d1, d2, params):
    """No chord of d1 crosses a chord of d2; faces are the sets of pairwise
    compatible diagonals."""
    return not any(
        crossing_oracle(c1, c2, params.size)
        for c1 in constituents(d1, params)
        for c2 in constituents(d2, params)
    )


def short_side(c, size):
    """(initial position, arc length) of the shorter side of a chord.

    The shorter side of a non-diameter chord in a centrally symmetric polygon
    is exactly its center-free side, and travelling it anticlockwise keeps
    the center on the left; the travel starts at the returned position.
    """
    t = arc_distance(c.a, c.b, size)
    if 2 * t < size:
        return c.a, t
    if 2 * t > size:
        return c.b, size - t
    raise ValueError(f"chord {c} is a diameter; it has no shorter side")


def initial_label(d, params):
    """Label of a type-B diagonal's initial point: a diameter's positively
    labeled end, or where the shorter side of a pair's canonical chord
    starts."""
    c = d.canonical
    start = c.a if d.kind == KIND_DIAMETER else short_side(c, params.size)[0]
    return params.label_of_position(start)


def b_pair(params, x, y):
    """Type-B mirror pair containing the chord through positions x, y.

    Raises ValueError when the chord is a diameter, joins adjacent vertices,
    or its center-free arc is not 1 mod m.
    """
    if params.family != FAMILY_B:
        raise ValueError("b_pair needs family-B parameters")
    size = params.size
    return Diagonal(KIND_PAIR, Chord(*pair_chord(size, params.m, x % size, y % size)))


def diagonals_by_scan(params):
    """Every valid diagonal, sorted by canonical chord positions, found by
    trying all size**2 / 2 chords; a type-B pair is found through both of its
    constituents and kept once."""
    if params.family == FAMILY_A:
        make, found = a_diagonal, set()
    else:
        make, found = b_pair, {diameter(params, p) for p in range(params.half)}
    size = params.size
    for x in range(size):
        for y in range(x + 1, size):
            try:
                found.add(make(params, x, y))
            except ValueError:
                pass
    return sorted(found, key=lambda d: d.sort_key)


def peel_stages(params, pool):
    """The stages of the type-B encoding, as `bijection._peel` yields them,
    walked on a plain list of the active positions.

    At each stage the pool is read afresh (the caller removes a start when
    its stage places a diagonal).  The first pooled start, in increasing
    order, whose next m active positions hold no pooled start and no mirror
    of one gives the stage (stage, p, q, window), q being the active
    position after the window; the window and its mirror are then deleted
    by value.  A stage where no start qualifies gives (stage, None, None,
    None) and ends the walk, as does an empty pool.
    """
    size, m = params.size, params.m
    half = size // 2
    active = list(range(size))
    for stage in range(params.n):
        if not pool:
            return
        taken = set(pool) | {(p + half) % size for p in pool}
        for p in sorted(set(pool)):
            i = active.index(p)
            window = [active[(i + k) % len(active)] for k in range(1, m + 1)]
            if not taken.intersection(window):
                break
        else:
            yield stage, None, None, None
            return
        q = active[(i + m + 1) % len(active)]
        yield stage, p, q, window
        for w in window:
            active.remove(w)
            active.remove((w + half) % size)


# -- dissection complexes --------------------------------------------------------


def facets(params, max_faces=None):
    """Every facet of the complex as a `Face`, all at once."""
    return enumerate_faces(params, max_faces=max_faces).facets()


# -- abstract complexes ----------------------------------------------------------


class NotAFaceError(Exception):
    """A link was requested at a vertex set that is not a face."""


def sorted_facets(facets):
    """Deterministic facet order: by cardinality, then by the positions of the
    facet's vertices in the `sort_vertices` order of all vertices."""
    facets = list(facets)
    pos = {v: i for i, v in enumerate(sort_vertices(set().union(*facets)))}
    return sorted(facets, key=lambda f: (len(f), sorted(map(pos.__getitem__, f))))


def deletion(complex_, cut):
    """Subcomplex of faces disjoint from the vertex set `cut`."""
    cut = frozenset(cut)
    return AbstractComplex(f - cut for f in complex_.facets)


def has_face(complex_, face):
    """True when the vertex set `face` lies in some facet."""
    s = frozenset(face)
    return any(s <= f for f in complex_.facets)


def link(complex_, face):
    """Link of a face: all faces whose union with it is again a face."""
    s = frozenset(face)
    if not has_face(complex_, s):
        raise NotAFaceError(f"{set(s) or '{}'} is not a face")
    return AbstractComplex(f - s for f in complex_.facets if s <= f)


def join(c1, c2):
    """Join of complexes on disjoint ground sets."""
    overlap = set(c1.vertices) & set(c2.vertices)
    if overlap:
        raise ValueError(f"join needs disjoint ground sets; shared: {sort_vertices(overlap)}")
    return AbstractComplex(f1 | f2 for f1 in c1.facets for f2 in c2.facets)


def cone(complex_, apex):
    """Join with the single new vertex `apex`."""
    return join(complex_, AbstractComplex([[apex]]))


def format_facet_lines(complex_):
    """One facet per line, its vertices in `sort_vertices` order: the text
    that `simplicial.parse_facet_lines` reads."""
    lines = [" ".join(str(v) for v in sort_vertices(f)) for f in complex_.facets]
    return "\n".join(lines) + ("\n" if lines else "")


# -- counting ----------------------------------------------------------------------


def count_faces(params, i):
    """Number of faces with exactly i diagonals, in closed form."""
    m, n = params.m, params.n
    if not 0 <= i <= params.rank:
        raise ValueError(f"face cardinality {i} out of range 0..{params.rank}")
    if params.family == FAMILY_A:
        q, r = divmod(comb(m * n + i + 1, i) * comb(n, i + 1), n)
        if r:
            raise ArithmeticError(f"count_faces(A): remainder {r}")
        return q
    return comb(m * n + i, i) * comb(n, i)


def facet_count(params):
    """Generalized Catalan number: number of full dissections."""
    return count_faces(params, params.rank)


def f_from_h(h):
    """Inverse of `counting.h_from_f`: f_k = sum_i h_i C(d-i, k-i)."""
    if not h or h[0] != 1:
        raise ValueError(f"h-vector must start with 1, got {h!r}")
    d = len(h) - 1
    return tuple(
        sum(h[i] * comb(d - i, k - i) for i in range(k + 1)) for k in range(d + 1)
    )
