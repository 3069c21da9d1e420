"""Labeled convex polygons and their m-divisible diagonals.

Vertices of an N-gon are positions 0..N-1 in anticlockwise order.  Two label
schemes sit on top of the positions:

* type A uses an (m*n+2)-gon whose vertices carry labels 1..m*n+2, so label
  L sits at position L-1;
* type B uses a centrally symmetric (2*m*n+2)-gon whose first m*n+1 vertices
  carry labels 1..m*n+1 and whose remaining vertices carry the barred labels
  1bar..(m*n+1)bar.  Barred labels are written as negative integers in the
  signed presentation, so label -L sits at position m*n + L.

A type-A diagonal is a single chord cutting the polygon into pieces with
vertex counts congruent to 2 mod m.  A type-B diagonal is either a diameter
(joining antipodal vertices L and -L) or the mirror pair of a chord under
the half-turn; a pair is valid when the arc on its center-free side has
length congruent to 1 mod m and short enough to leave a symmetric middle.
"""

from __future__ import annotations

from collections import namedtuple

FAMILY_A = "A"
FAMILY_B = "B"

KIND_CHORD = "chord"  # type A single chord
KIND_DIAMETER = "diameter"  # type B antipodal chord
KIND_PAIR = "pair"  # type B mirror pair, stored by its canonical chord


class Chord(namedtuple("Chord", "a b")):
    """Unordered chord between two distinct positions, stored with a < b."""

    __slots__ = ()


def chord(x: int, y: int) -> Chord:
    if x == y:
        raise ValueError(f"chord endpoints must differ, got {x} twice")
    return Chord(x, y) if x < y else Chord(y, x)


def arc_distance(a: int, b: int, size: int) -> int:
    """Number of anticlockwise boundary steps from position a to position b."""
    return (b - a) % size


def position_between(x: int, y: int, z: int, size: int) -> bool:
    """True when z lies strictly inside the anticlockwise arc from x to y."""
    return 0 < arc_distance(x, z, size) < arc_distance(x, y, size)


def chords_cross(c1: Chord, c2: Chord, size: int) -> bool:
    """Strict interior crossing; chords sharing an endpoint do not cross."""
    if set(c1) & set(c2):
        return False
    # proper crossing <=> the endpoints of c2 separate those of c1
    return position_between(c1.a, c1.b, c2.a, size) != position_between(c1.a, c1.b, c2.b, size)


class PolygonParams(namedtuple("PolygonParams", "family m n")):
    """Parameters (family, m, n) fixing a labeled polygon and its diagonals.

    Immutable, and equal and hashed as the tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, family: str, m: int, n: int):
        if family not in (FAMILY_A, FAMILY_B):
            raise ValueError(f"family must be 'A' or 'B', got {family!r}")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return super().__new__(cls, family, m, n)

    @property
    def size(self) -> int:
        """Number of polygon vertices."""
        if self.family == FAMILY_A:
            return self.m * self.n + 2
        return 2 * self.m * self.n + 2

    @property
    def half(self) -> int:
        """Half-turn offset of the type-B polygon."""
        if self.family != FAMILY_B:
            raise ValueError("half is defined for family B only")
        return self.m * self.n + 1

    @property
    def rank(self) -> int:
        """Facet cardinality: n-1 diagonals for type A, n for type B."""
        return self.n - 1 if self.family == FAMILY_A else self.n

    def mirror(self, p: int) -> int:
        """Antipodal position under the half-turn (family B)."""
        return (p + self.half) % self.size

    # -- label <-> position -------------------------------------------------

    def position_of_label(self, label: int) -> int:
        """Signed label to position.  Type A labels are 1..size; type B labels
        are 1..m*n+1 (plain) and -1..-(m*n+1) (barred)."""
        if self.family == FAMILY_A:
            if not 1 <= label <= self.size:
                raise ValueError(f"label {label} out of range 1..{self.size}")
            return label - 1
        if 1 <= label <= self.half:
            return label - 1
        if -self.half <= label <= -1:
            return self.half + (-label) - 1
        raise ValueError(f"label {label} out of range +-1..{self.half}")

    def label_of_position(self, p: int) -> int:
        if not 0 <= p < self.size:
            raise ValueError(f"position {p} out of range 0..{self.size - 1}")
        if self.family == FAMILY_A or p < self.half:
            return p + 1
        return -(p - self.half + 1)

    def label_text(self, p: int) -> str:
        """Human-readable label; barred labels get a combining overline."""
        lab = self.label_of_position(p)
        if lab > 0:
            return str(lab)
        return "".join(ch + "̅" for ch in str(-lab))


class Diagonal(namedtuple("Diagonal", "kind canonical")):
    """One vertex of a dissection complex.

    kind: KIND_CHORD for type A, KIND_DIAMETER / KIND_PAIR for type B.
    canonical: the defining chord.  For a pair this is the constituent whose
    initial point carries a positive label; for a diameter it runs from the
    positive end to its antipode.
    """

    __slots__ = ()

    @property
    def sort_key(self) -> tuple[int, int, str]:
        return (self.canonical.a, self.canonical.b, self.kind)

    def constituents(self, params: PolygonParams) -> tuple[Chord, ...]:
        """All chords drawn for this diagonal."""
        if self.kind == KIND_PAIR:
            c = self.canonical
            return (c, chord(params.mirror(c.a), params.mirror(c.b)))
        return (self.canonical,)


def short_side(c: Chord, size: int) -> tuple[int, int]:
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


def a_diagonal(params: PolygonParams, x: int, y: int) -> Diagonal:
    """Type-A diagonal through positions x, y; raises ValueError if invalid."""
    if params.family != FAMILY_A:
        raise ValueError("a_diagonal needs family-A parameters")
    c = chord(x % params.size, y % params.size)
    t = arc_distance(c.a, c.b, params.size)
    if min(t, params.size - t) < 2:
        raise ValueError(f"chord {c} joins adjacent vertices")
    if (t - 1) % params.m != 0:
        raise ValueError(f"chord {c} cuts off a part with {t + 1} vertices, not 2 mod {params.m}")
    return Diagonal(KIND_CHORD, c)


def diameter(params: PolygonParams, p: int) -> Diagonal:
    """Type-B diameter through position p and its antipode."""
    if params.family != FAMILY_B:
        raise ValueError("diameter needs family-B parameters")
    size = params.size
    half = size // 2
    p %= size
    # canonical end is the positively labeled one
    return Diagonal(KIND_DIAMETER, Chord(p, p + half) if p < half else Chord(p - half, p))


def b_pair(params: PolygonParams, x: int, y: int) -> Diagonal:
    """Type-B mirror pair containing the chord through positions x, y.

    Raises ValueError when the chord is a diameter, joins adjacent vertices,
    crosses its mirror, or its center-free arc is not 1 mod m.
    """
    if params.family != FAMILY_B:
        raise ValueError("b_pair needs family-B parameters")
    size = params.size
    half = size // 2
    c = chord(x % size, y % size)
    t = c.b - c.a  # the anticlockwise arc from c.a to c.b
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
    # canonical constituent: the one whose travel starts at a positive label
    canon = c if start < half else mir
    return Diagonal(KIND_PAIR, canon)


def initial_position(d: Diagonal, params: PolygonParams) -> int:
    """Position of the diagonal's initial point (positive presentation).

    Travelling a non-diameter constituent with the polygon center on the left
    starts at the beginning of its center-free arc; the initial point of the
    pair is whichever of the two starts carries a positive label.  A diameter's
    initial point is its positively labeled end.
    """
    if d.kind == KIND_CHORD:
        raise ValueError("initial points are defined for family-B diagonals")
    if d.kind == KIND_DIAMETER:
        return d.canonical.a
    start, _ = short_side(d.canonical, params.size)
    return start  # canonical constituent starts at a positive label


def initial_label(d: Diagonal, params: PolygonParams) -> int:
    return params.label_of_position(initial_position(d, params))


def constituent_positions(
    params: PolygonParams, diagonals
) -> list[tuple[tuple[int, int], ...]]:
    """Endpoint pairs (a, b), a < b, of each diagonal's chords, in input order.

    The integer twin of `Diagonal.constituents` for batch use: the half-turn
    is read from the parameters once, not once per chord.
    """
    size = half = None
    out = []
    for d in diagonals:
        c = d.canonical
        if d.kind != KIND_PAIR:
            out.append(((c.a, c.b),))
            continue
        if half is None:  # read only when a pair is present: half is B-only
            size, half = params.size, params.half
        x, y = (c.a + half) % size, (c.b + half) % size
        out.append(((c.a, c.b), (x, y) if x < y else (y, x)))
    return out


def positions_cross(g, h) -> bool:
    """True when a chord of g crosses a chord of h, both given as (a, b), a < b.

    The integer form of `chords_cross`: (a, b) and (c, d) cross exactly when
    a < c < b < d or c < a < d < b; the strict inequalities rule out shared
    endpoints.
    """
    for a, b in g:
        for c, d in h:
            if a < c < b < d or c < a < d < b:
                return True
    return False


def compatible(d1: Diagonal, d2: Diagonal, params: PolygonParams) -> bool:
    """Faces of the complex are sets of pairwise compatible diagonals."""
    for c1 in d1.constituents(params):
        for c2 in d2.constituents(params):
            if chords_cross(c1, c2, params.size):
                return False
    return True


def all_diagonals(params: PolygonParams) -> list[Diagonal]:
    """Every valid diagonal, sorted by canonical chord positions."""
    out: list[Diagonal] = []
    size = params.size
    if params.family == FAMILY_A:
        for x in range(size):
            for y in range(x + 1, size):
                try:
                    out.append(a_diagonal(params, x, y))
                except ValueError:
                    pass
    else:
        for p in range(params.half):
            out.append(diameter(params, p))
        seen: set[Chord] = set()
        for x in range(size):
            for y in range(x + 1, size):
                try:
                    d = b_pair(params, x, y)
                except ValueError:
                    continue
                if d.canonical not in seen:
                    seen.add(d.canonical)
                    out.append(d)
    out.sort(key=lambda d: d.sort_key)
    return out

