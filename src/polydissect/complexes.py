"""Dissection complexes: faces are sets of pairwise compatible diagonals.

The complex is flag (a set of diagonals is a face exactly when its members
are pairwise compatible), so enumeration is clique enumeration on the
compatibility graph.  Diagonals are numbered in canonical order and each one
gets an int bitmask of the later diagonals compatible with it; a face carries
the mask of its candidate extensions, so adding diagonal k is one AND with
row k (bitset clique enumeration, Bron-Kerbosch 1973; Tomita-Tanaka-Takahashi
2006) and no face is produced twice.  `is_face` tests chord pairs on integer
endpoints and builds no per-parameter table, so documents of any size stay
cheap.  Facets of the type-A complex have n-1 diagonals, facets of the
type-B complex have n, and each facet dissects the polygon into (m+2)-gons.
"""

from __future__ import annotations

import os
from collections import namedtuple

from . import counting
from .errors import ResourceLimitError, count_text
from .polygons import (
    FAMILY_A,
    KIND_DIAMETER,
    Chord,
    Diagonal,
    PolygonParams,
    all_diagonals,
    constituent_positions,
    positions_cross,
)

DEFAULT_MAX_FACES = 10_000_000
MAX_FACES_ENV = "POLYDISSECT_MAX_FACES"


def non_negative_int(text: str) -> int:
    """`text` as an int >= 0; raises ValueError otherwise."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"invalid non-negative int value: {text!r}")
    return value


def max_faces_bound(explicit: int | None = None) -> int:
    """The face bound: `explicit`, else the environment variable named by
    MAX_FACES_ENV when set and nonempty, else DEFAULT_MAX_FACES.  Raises
    ValueError, naming the variable, when it holds no int >= 0."""
    if explicit is not None:
        return explicit
    raw = os.environ.get(MAX_FACES_ENV)
    if not raw:
        return DEFAULT_MAX_FACES
    try:
        return non_negative_int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_FACES_ENV}: {exc}") from None


class Face(namedtuple("Face", "params diagonals")):
    """A face: a frozenset of pairwise compatible diagonals.

    `len` counts the diagonals, not the two fields.
    """

    __slots__ = ()

    def sorted_diagonals(self) -> list[Diagonal]:
        return sorted(self.diagonals, key=lambda d: d.sort_key)

    def __len__(self) -> int:
        return len(self.diagonals)


class FaceTable:
    """All faces of a complex, listed per cardinality in canonical order."""

    def __init__(
        self,
        params: PolygonParams,
        vertices: list[Diagonal],
        by_cardinality: list[list[tuple[int, ...]]],
    ):
        self.params = params
        self.vertices = vertices
        self.by_cardinality = by_cardinality

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.params, self.vertices, self.by_cardinality) == (
            other.params, other.vertices, other.by_cardinality
        )

    def __repr__(self) -> str:
        return f"FaceTable(params={self.params!r}, vertices={self.vertices!r})"

    def count(self, i: int) -> int:
        return len(self.by_cardinality[i]) if i < len(self.by_cardinality) else 0

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.by_cardinality)

    def faces(self, i: int) -> list[Face]:
        return [self.face_from_indices(ix) for ix in self.by_cardinality[i]]

    def face_from_indices(self, indices: tuple[int, ...]) -> Face:
        return Face(self.params, frozenset(self.vertices[j] for j in indices))

    def facets(self) -> list[Face]:
        return self.faces(len(self.by_cardinality) - 1)


def face_from_diagonals(params: PolygonParams, diagonals) -> Face:
    return Face(params, frozenset(diagonals))


def is_face(face: Face) -> bool:
    """Pairwise compatibility test (the complex is flag)."""
    groups = constituent_positions(face.params, face.diagonals)
    for i, g in enumerate(groups):
        for h in groups[i + 1:]:
            if positions_cross(g, h):
                return False
    return True


def enumerate_faces(
    params: PolygonParams,
    up_to: int | None = None,
    max_faces: int | None = None,
) -> FaceTable:
    """Backtracking enumeration of all faces with at most `up_to` diagonals.

    Faces are emitted in canonical order (vertices sorted by chord positions,
    faces extended only by higher-indexed vertices, candidates taken in
    increasing order), so repeated runs produce identical tables.  Raises
    ResourceLimitError when the projected total face count exceeds the bound,
    and ValueError when `up_to` is negative.
    """
    if up_to is not None and up_to < 0:
        raise ValueError(f"up_to must be >= 0, got {up_to}")
    bound = max_faces_bound(max_faces)
    top = params.rank if up_to is None else min(up_to, params.rank)
    projected = sum(counting.count_faces(params, i) for i in range(top + 1))
    if projected > bound:
        raise ResourceLimitError(
            f"projected face count {count_text(projected)} exceeds bound {bound}",
            projected=projected,
            bound=bound,
        )

    vertices = all_diagonals(params)
    chords = constituent_positions(params, vertices)
    v = len(vertices)
    # rows[k]: the diagonals after k that are compatible with it
    rows = [0] * v
    for i in range(v):
        g, row = chords[i], 0
        for j in range(i + 1, v):
            if not positions_cross(g, chords[j]):
                row |= 1 << j
        rows[i] = row

    by_card: list[list[tuple[int, ...]]] = [[] for _ in range(top + 1)]
    by_card[0].append(())
    emitted = 1

    def extend(face: tuple[int, ...], cand: int) -> None:
        # cand: the later diagonals compatible with every member of face
        nonlocal emitted
        level = by_card[len(face) + 1]
        deeper = len(face) + 1 < top
        while cand:
            low = cand & -cand
            cand ^= low
            k = low.bit_length() - 1
            emitted += 1
            if emitted > bound:
                raise ResourceLimitError(
                    f"enumerated face count exceeded bound {bound}", bound=bound
                )
            child = face + (k,)
            level.append(child)
            if deeper and cand & rows[k]:
                extend(child, cand & rows[k])

    if top:
        extend((), (1 << v) - 1)
    return FaceTable(params, vertices, by_card)


def facets(params: PolygonParams, max_faces: int | None = None) -> list[Face]:
    return enumerate_faces(params, max_faces=max_faces).facets()


def check_pure(table: FaceTable) -> Face | None:
    """Return a witness face contained in no facet, or None when pure.

    The subsets of the top-cardinality faces are marked level by level from
    the top down, as `abstract_facets` marks covered faces, in O(faces * rank)
    for a table closed under subsets.  The witness is the first unmarked face
    of the lowest level that has one: the face that scanning the levels in
    order against every top face would find first.
    """
    levels = table.by_cardinality
    marked = set(levels[-1])
    witness = None
    for level in reversed(levels[:-1]):
        marked = {ix[:j] + ix[j + 1:] for ix in marked for j in range(len(ix))}
        first = next((ix for ix in level if ix not in marked), None)
        if first is not None:
            witness = first
    return None if witness is None else table.face_from_indices(witness)


def region_sizes(face: Face) -> list[int]:
    """Vertex counts of the planar regions cut out by the face's chords.

    The chords of a face never cross, so each chord splits its region in two;
    the sizes are computed by recursive splitting of the boundary cycle.
    Every facet must produce regions that are all (m+2)-gons.
    """
    params = face.params
    chords: list[Chord] = []
    for d in face.sorted_diagonals():
        chords.extend(d.constituents(params))

    def split(cycle: tuple[int, ...], pending: list[Chord]) -> list[int]:
        if not pending:
            return [len(cycle)]
        c = pending[0]
        pos = {p: i for i, p in enumerate(cycle)}
        ia, ib = pos[c.a], pos[c.b]
        if ia > ib:
            ia, ib = ib, ia
        side1 = cycle[ia : ib + 1]
        side2 = cycle[ib:] + cycle[: ia + 1]
        in1, in2 = set(side1), set(side2)
        rest1, rest2 = [], []
        for other in pending[1:]:
            # noncrossing chords fall entirely on one side; ties (shared
            # endpoints) resolve by whichever side contains both endpoints
            if other.a in in1 and other.b in in1 and not (other.a in in2 and other.b in in2):
                rest1.append(other)
            elif other.a in in2 and other.b in in2:
                rest2.append(other)
            else:
                raise ValueError(f"chord {other} crosses {c}; not a face")
        return split(side1, rest1) + split(side2, rest2)

    return sorted(split(tuple(range(params.size)), chords))


def facet_region_audit(face: Face) -> bool:
    """True when the face dissects the polygon entirely into (m+2)-gons."""
    want = face.params.m + 2
    return all(size == want for size in region_sizes(face))


def diameter_count(face: Face) -> int:
    return sum(1 for d in face.diagonals if d.kind == KIND_DIAMETER)


# -- bridge to the abstract simplicial engine --------------------------------


def abstract_facets(table: FaceTable) -> list[frozenset[int]]:
    """Maximal faces of the table as frozensets of canonical vertex indices.

    A k-face is maximal when it is no k-subset of a (k+1)-face.  The table
    is closed under subsets and lists each face as an increasing index tuple,
    so this finds facets of every size, not only those of top cardinality.
    """
    out: list[frozenset[int]] = []
    levels = table.by_cardinality
    for level, above in zip(levels, levels[1:] + [[]]):
        covered = {ix[:j] + ix[j + 1:] for ix in above for j in range(len(ix))}
        out.extend(frozenset(ix) for ix in level if ix not in covered)
    return out


def decomposition_priority(params: PolygonParams, vertices: list[Diagonal]) -> dict[int, int]:
    """Search hints for vertex decomposition, keyed by vertex index.

    A minimal diagonal cuts off an (m+2)-gon whose m interior corners sit at
    positions 1..m; diagonals incident to an earlier corner come first, those
    at the same corner ordered clockwise by their other endpoint.
    """
    m, size = params.m, params.size
    corners = list(range(1, m + 1))

    def endpoint_positions(d: Diagonal) -> set[int]:
        out: set[int] = set()
        for c in d.constituents(params):
            out.update(c)
        return out

    def key(idx_d: tuple[int, Diagonal]) -> tuple:
        idx, d = idx_d
        pts = endpoint_positions(d)
        for rank, corner in enumerate(corners):
            if corner in pts:
                others = [p for c in d.constituents(params) if corner in c for p in c if p != corner]
                clockwise = min((corner - p) % size for p in others)
                return (rank, clockwise, d.sort_key)
        return (len(corners), 0, d.sort_key)

    ranked = sorted(enumerate(vertices), key=key)
    return {idx: pos for pos, (idx, _d) in enumerate(ranked)}
