"""Bijective encoding of type-B dissection faces.

A face with i diagonals maps to a pair (a, eps): `a` is the weakly increasing
tuple of the diagonals' initial-point labels and `eps` is a 0/1 vector with n
entries and i ones.  The encoding peels the polygon in n stages; each stage
locates the smallest initial point whose next m vertices (inside the current
subpolygon) carry no initial point, records whether the diagonal spanning
that window belongs to the face, then deletes the window and its mirror
image.  Decoding replays the same stages and draws the diagonal whenever its
eps entry is 1.  Both directions keep absolute vertex labels and run on one
stage walker, `_peel`, over int positions: the subpolygon is the cycle of
not-yet-deleted positions, held as successor links, and the mirror is
(p + half) % size on local ints.  Both validate their input first and build
nothing per parameter set, so their cost follows the face, not the polygon.
"""

from __future__ import annotations

from collections import namedtuple

from .complexes import Face, face_from_diagonals, is_face
from .errors import InvalidImageError, MalformedFaceError
from .polygons import (
    FAMILY_B,
    KIND_DIAMETER,
    KIND_PAIR,
    Diagonal,
    PolygonParams,
    b_pair,
    constituent_positions,
    diameter,
    initial_position,
)


class BijectionImage(namedtuple("BijectionImage", "a eps")):
    """Code word (a, eps) for a face with len(a) diagonals."""

    __slots__ = ()


def _peel(params: PolygonParams, pool: list[int]):
    """The stage walker shared by encode and decode, over int positions.

    `pool` holds the initial positions of the diagonals not yet placed; the
    caller removes one entry when its stage places a diagonal.  While the
    pool is nonempty, stage s (counted from 0) yields (s, p, q, window): p is
    the smallest pooled start whose next m active positions, the window,
    hold no pooled start or mirror of one, and q is the active position
    after the window.  The window and its mirror image are deleted when the
    caller resumes.  A stage where no start qualifies yields (s, None, None,
    None) and ends the walk.

    The active positions form a cycle of successor links.  Deletions come in
    mirror pairs, so the cycle stays symmetric under the half-turn: the
    mirror window is the m positions after the mirror of p.
    """
    size, m = params.size, params.m
    half = size // 2
    succ = list(range(1, size)) + [0]
    for stage in range(params.n):
        if not pool:
            return
        starts = sorted(set(pool))
        taken = set(starts)
        taken.update([(p + half) % size for p in starts])
        for p in starts:
            window = []
            w = p
            for _ in range(m):
                w = succ[w]
                if w in taken:
                    break
                window.append(w)
            else:
                break
        else:
            yield stage, None, None, None
            return
        q = succ[w]
        yield stage, p, q, window
        succ[p] = q
        succ[(p + half) % size] = (q + half) % size


def _check_b_face(face: Face) -> None:
    params = face.params
    if params.family != FAMILY_B:
        raise MalformedFaceError("the encoding is defined for family-B faces")
    for d in face.diagonals:
        try:
            if d.kind == KIND_DIAMETER:
                ok = diameter(params, d.canonical.a) == d
            elif d.kind == KIND_PAIR:
                ok = b_pair(params, d.canonical.a, d.canonical.b) == d
            else:
                ok = False
        except ValueError:
            ok = False
        if not ok:
            raise MalformedFaceError(f"{d} is not a valid diagonal of this polygon")
    if not is_face(face):
        raise MalformedFaceError("diagonals are not pairwise compatible")


def encode(face: Face) -> BijectionImage:
    """Map a face to its code word; raises MalformedFaceError on bad input."""
    _check_b_face(face)
    params = face.params
    size = params.size
    half = size // 2

    work = face.sorted_diagonals()
    chords = constituent_positions(params, work)
    starts = [initial_position(d, params) for d in work]
    pool = sorted(starts)
    a_sorted = tuple(params.label_of_position(p) for p in pool)
    # the diagonals not yet placed, by their chord sets, in sorted order
    left = {frozenset(g): i for i, g in enumerate(chords)}
    eps = [0] * params.n

    for stage, p, q, window in _peel(params, pool):
        if p is None:
            raise MalformedFaceError("no initial point has a free window; not a face")
        mp, mq = (p + half) % size, (q + half) % size
        target = {(p, q) if p < q else (q, p)}
        if q != mp:
            target.add((mp, mq) if mp < mq else (mq, mp))
        hit = left.pop(frozenset(target), None)
        if hit is not None:
            eps[stage] = 1
            pool.remove(starts[hit])
        removed = set(window)
        removed.update([(w + half) % size for w in window])
        for i in left.values():
            for x, y in chords[i]:
                if x in removed or y in removed:
                    raise MalformedFaceError(f"{work[i]} touches a deleted vertex; not a face")

    return BijectionImage(a_sorted, tuple(eps))


def decode(params: PolygonParams, a: tuple[int, ...], eps: tuple[int, ...]) -> Face:
    """Inverse of encode; raises InvalidImageError on a malformed code word."""
    if params.family != FAMILY_B:
        raise InvalidImageError("the encoding is defined for family B")
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
    diagonals: list[Diagonal] = []

    for stage, p, q, _window in _peel(params, pool):
        if p is None:
            raise InvalidImageError(f"no eligible initial point at stage {stage + 1}")
        if eps[stage] == 1:
            try:
                d = diameter(params, p) if q == p + half else b_pair(params, p, q)
            except ValueError as exc:
                raise InvalidImageError(f"stage {stage + 1} drew an invalid diagonal: {exc}")
            diagonals.append(d)
            pool.remove(p)

    face = face_from_diagonals(params, diagonals)
    if len(face.diagonals) != len(a) or not is_face(face):
        raise InvalidImageError("decoded diagonals do not form a face")
    return face
