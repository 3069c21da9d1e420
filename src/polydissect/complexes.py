"""Dissection complexes: faces are sets of pairwise compatible diagonals.

The complex is flag (a set of diagonals is a face exactly when its members
are pairwise compatible), so enumeration is clique enumeration on the
compatibility graph.  Diagonals are numbered in canonical order and each one
gets an int bitmask of the later diagonals compatible with it; a face carries
the mask of its candidate extensions, so adding diagonal k is one AND with
row k (bitset clique enumeration, Bron-Kerbosch 1973; Tomita-Tanaka-Takahashi
2006) and no face is produced twice.  Every function here reads a diagonal's
chords as integer endpoint pairs, from `polygons.constituent_positions`;
`is_face` builds no per-parameter table, so documents of any size stay cheap.
Facets of the type-A complex have n-1 diagonals, facets of the type-B
complex have n, and each facet dissects the polygon into (m+2)-gons, which
`region_sizes` checks in one pass over the chords.
"""

from __future__ import annotations

import os
from collections import namedtuple
from operator import itemgetter

from . import counting
from .errors import ResourceLimitError, count_text
from .polygons import (
    KIND_DIAMETER,
    Diagonal,
    PolygonParams,
    all_diagonals,
    constituent_positions,
    pairwise_compatible,
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


# the order of `Diagonal.sort_key`, (canonical.a, canonical.b, kind)
_CANONICAL_THEN_KIND = itemgetter(1, 0)


class Face(namedtuple("Face", "params diagonals")):
    """A face: a frozenset of pairwise compatible diagonals.

    `len` counts the diagonals, not the two fields.
    """

    __slots__ = ()

    def sorted_diagonals(self) -> list[Diagonal]:
        return sorted(self.diagonals, key=_CANONICAL_THEN_KIND)

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

    def _level(self, i: int) -> list[tuple[int, ...]]:
        """The index tuples of the faces with i diagonals: none past the top;
        raises ValueError when i is negative."""
        if i < 0:
            raise ValueError(f"cardinality must be >= 0, got {i}")
        return self.by_cardinality[i] if i < len(self.by_cardinality) else []

    def count(self, i: int) -> int:
        return len(self._level(i))

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.by_cardinality)

    def faces(self, i: int) -> list[Face]:
        return [self.face_from_indices(ix) for ix in self._level(i)]

    def face_from_indices(self, indices: tuple[int, ...]) -> Face:
        return Face(self.params, frozenset(self.vertices[j] for j in indices))

    def facets(self) -> list[Face]:
        return self.faces(len(self.by_cardinality) - 1)


def face_from_diagonals(params: PolygonParams, diagonals) -> Face:
    return Face(params, frozenset(diagonals))


def is_face(face: Face) -> bool:
    """Pairwise compatibility test (the complex is flag)."""
    return pairwise_compatible(constituent_positions(face.params, face.diagonals))


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
    projected = sum(counting.face_counts(params, top))
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
    if top:
        _extend((), (1 << v) - 1, rows, by_card, top, 1, bound)
    return FaceTable(params, vertices, by_card)


def _extend(face, cand, rows, by_card, top, emitted, bound) -> int:
    """Append to `by_card` every face that extends `face` by the diagonals of
    the mask `cand` (the later diagonals compatible with every member of
    `face`), depth first, and return `emitted` plus their number.

    A module-level function with its state in arguments, so an enumeration
    leaves no reference cycle and its table is freed with its last reference.
    Children on level `top` are leaves, charged to the bound all at once.
    """
    depth = len(face) + 1
    level = by_card[depth]
    if depth == top:
        emitted += cand.bit_count()
        if emitted > bound:
            raise ResourceLimitError(f"enumerated face count exceeded bound {bound}", bound=bound)
        while cand:
            low = cand & -cand
            cand ^= low
            level.append(face + (low.bit_length() - 1,))
        return emitted
    while cand:
        low = cand & -cand
        cand ^= low
        k = low.bit_length() - 1
        emitted += 1
        if emitted > bound:
            raise ResourceLimitError(f"enumerated face count exceeded bound {bound}", bound=bound)
        child = face + (k,)
        level.append(child)
        if cand & rows[k]:
            emitted = _extend(child, cand & rows[k], rows, by_card, top, emitted, bound)
    return emitted


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
    """Vertex counts of the planar regions cut out by the face's chords, sorted.

    Each chord (a, b), a < b, bounds the region on its side of positions
    a..b: b - a + 1 vertices less the interior vertices of the chords right
    inside it.  One pass over the chords by first endpoint, longest first,
    keeps the chords that enclose the current one on a stack, under the whole
    polygon as (0, size - 1).  Raises ValueError when two chords cross.
    Every facet must produce regions that are all (m+2)-gons.
    """
    groups = constituent_positions(face.params, face.diagonals)
    chords = sorted((c for g in groups for c in g), key=lambda c: (c[0], -c[1]))
    top = face.params.size - 1
    stack = [[0, top, top + 1]]  # [a, b, vertices of the region under (a, b)]
    sizes = []
    for a, b in chords:
        while stack[-1][1] <= a:
            sizes.append(stack.pop()[2])
        outer = stack[-1]
        if b > outer[1]:
            raise ValueError(f"chord {(a, b)} crosses {tuple(outer[:2])}; not a face")
        outer[2] -= b - a - 1
        stack.append([a, b, b - a + 1])
    sizes.extend(entry[2] for entry in stack)
    return sorted(sizes)


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

