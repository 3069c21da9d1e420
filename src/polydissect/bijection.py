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
no table of diagonals; a walk links every polygon position and refuses,
with ResourceLimitError, a polygon of over `_MAX_WALK_POSITIONS` of them.
The checks run on integer positions: `encode` reads each diagonal's endpoint
positions once, tests pairs with `polygons.pair_chord` (the test
`b_diagonal` runs) and diameters by arithmetic, and runs the crossing test
and its own scans on those tuples; `decode` draws each diagonal through
`b_diagonal`.
"""

from __future__ import annotations

from collections import namedtuple

from .complexes import Face, face_from_diagonals, is_face
from .errors import InvalidImageError, MalformedFaceError, ResourceLimitError
from .polygons import (
    FAMILY_B,
    KIND_DIAMETER,
    KIND_PAIR,
    Diagonal,
    PolygonParams,
    b_diagonal,
    constituent_positions,
    initial_position,
    pair_chord,
    pairwise_compatible,
)

# positions a stage walk may link: at up to about 75 bytes a position (the
# links and encode's window set, 64-bit CPython), a walk peaks under 90 MiB
_MAX_WALK_POSITIONS = 1_000_000


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
    mirror window is the m positions after the mirror of p.  A nonempty pool
    past `_MAX_WALK_POSITIONS` raises ResourceLimitError before any link.
    """
    size, m = params.size, params.m
    if not pool:
        return
    if size > _MAX_WALK_POSITIONS:
        raise ResourceLimitError(f"the stage walk would hold {size} polygon positions, over "
                                 f"bound {_MAX_WALK_POSITIONS}", projected=size,
                                 bound=_MAX_WALK_POSITIONS)
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


def _check_b_face(face: Face) -> list[tuple[tuple[int, int], ...]]:
    """Raise MalformedFaceError unless `face` is a family-B face; return the
    constituent positions of its diagonals, in `face.diagonals` order.

    Each diagonal is checked on the integer endpoints of its canonical chord,
    with the test `b_diagonal` uses for pairs, and the face's crossing test runs
    on the same tuples.
    """
    params = face.params
    if params.family != FAMILY_B:
        raise MalformedFaceError("the encoding is defined for family-B faces")
    size, m = params.size, params.m
    half = size // 2
    groups = constituent_positions(params, face.diagonals)
    for d, g in zip(face.diagonals, groups):
        a, b = g[0]
        if d.kind == KIND_DIAMETER:
            ok = 0 <= a < half and b == a + half
        elif d.kind == KIND_PAIR:
            try:
                ok = 0 <= a < b < size and pair_chord(size, m, a, b) == (a, b)
            except ValueError:
                ok = False
        else:
            ok = False
        if not ok:
            raise MalformedFaceError(f"{d} is not a valid diagonal of this polygon")
    if not pairwise_compatible(groups):
        raise MalformedFaceError("diagonals are not pairwise compatible")
    return groups


def encode(face: Face) -> BijectionImage:
    """Map a face to its code word; raises MalformedFaceError on bad input."""
    groups = _check_b_face(face)
    params = face.params
    size = params.size

    # canonical order: distinct diagonals of a face have distinct first chords
    work = sorted(zip(groups, face.diagonals))
    chords = [g for g, _ in work]
    starts = [initial_position(size, a, b) for (a, b), *_ in chords]
    pool = sorted(starts)
    a_sorted = tuple(p + 1 for p in pool)  # initial points carry positive labels
    # valid diagonals share no chord, and a stage's chord (p, q) with its
    # mirror is a whole diagonal, so one chord names the diagonal drawn
    by_chord = {c: i for i, g in enumerate(chords) for c in g}
    left = dict.fromkeys(range(len(chords)))  # the diagonals not yet placed, in order
    eps = [0] * params.n

    for stage, p, q, window in _peel(params, pool):
        if p is None:
            raise MalformedFaceError("no initial point has a free window; not a face")
        hit = by_chord.get((p, q) if p < q else (q, p))
        if hit in left:
            del left[hit]
            eps[stage] = 1
            pool.remove(starts[hit])
        # a diagonal's chords are closed under the half-turn, so it touches
        # the mirror window exactly when it touches the window
        removed = set(window)
        for i in left:
            for x, y in chords[i]:
                if x in removed or y in removed:
                    raise MalformedFaceError(f"{work[i][1]} touches a deleted vertex; not a face")

    return BijectionImage(a_sorted, tuple(eps))


def decode(params: PolygonParams, a: tuple[int, ...], eps: tuple[int, ...]) -> Face:
    """Inverse of encode; raises InvalidImageError on a malformed code word."""
    if params.family != FAMILY_B:
        raise InvalidImageError("the encoding is defined for family B")
    if any(type(x) is not int for x in (*a, *eps)):
        raise InvalidImageError(f"code word entries must be ints, got a={a!r}, eps={eps!r}")
    n = params.n
    if len(eps) != n:
        raise InvalidImageError(f"eps must have {n} entries, got {len(eps)}")
    if any(e not in (0, 1) for e in eps):
        raise InvalidImageError(f"eps entries must be 0 or 1, got {eps!r}")
    if sum(eps) != len(a):
        raise InvalidImageError(f"eps has {sum(eps)} ones but a has {len(a)} entries")
    half = params.half
    if any(not 1 <= x <= half for x in a):
        raise InvalidImageError(f"a entries must lie in 1..{half}, got {a!r}")
    if list(a) != sorted(a):
        raise InvalidImageError(f"a must be weakly increasing, got {a!r}")

    pool = [x - 1 for x in a]
    diagonals: list[Diagonal] = []

    for stage, p, q, _window in _peel(params, pool):
        if p is None:
            raise InvalidImageError(f"no eligible initial point at stage {stage + 1}")
        if eps[stage] == 1:
            try:
                diagonals.append(b_diagonal(params, p, q))
            except ValueError as exc:
                raise InvalidImageError(f"stage {stage + 1} drew an invalid diagonal: {exc}")
            pool.remove(p)

    face = face_from_diagonals(params, diagonals)
    if len(face.diagonals) != len(a) or not is_face(face):
        raise InvalidImageError("decoded diagonals do not form a face")
    return face
