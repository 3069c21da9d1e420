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


class PolygonParams(namedtuple("PolygonParams", "family m n")):
    """Parameters (family, m, n) fixing a labeled polygon and its diagonals.

    Immutable, and equal and hashed as the tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, family: str, m: int, n: int):
        if family not in (FAMILY_A, FAMILY_B):
            raise ValueError(f"family must be 'A' or 'B', got {family!r}")
        if type(m) is not int or type(n) is not int:  # no floats, no bools
            raise ValueError(f"m and n must be ints, got m={m!r}, n={n!r}")
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
            size = self.m * self.n + 2
            if not 1 <= label <= size:
                raise ValueError(f"label {label} out of range 1..{size}")
            return label - 1
        half = self.m * self.n + 1
        if 1 <= label <= half:
            return label - 1
        if -half <= label <= -1:
            return half - label - 1
        raise ValueError(f"label {label} out of range +-1..{half}")

    def label_of_position(self, p: int) -> int:
        size = self.size
        if not 0 <= p < size:
            raise ValueError(f"position {p} out of range 0..{size - 1}")
        if self.family == FAMILY_A or 2 * p < size:
            return p + 1
        return size // 2 - p - 1

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

def a_diagonal(params: PolygonParams, x: int, y: int) -> Diagonal:
    """Type-A diagonal through positions x, y; raises ValueError if invalid."""
    if params.family != FAMILY_A:
        raise ValueError("a_diagonal needs family-A parameters")
    c = chord(x % params.size, y % params.size)
    t = c.b - c.a  # the anticlockwise arc from c.a to c.b
    if min(t, params.size - t) < 2:
        raise ValueError(f"chord {c} joins adjacent vertices")
    if (t - 1) % params.m != 0:
        raise ValueError(f"chord {c} cuts off a part with {t + 1} vertices, not 2 mod {params.m}")
    return Diagonal(KIND_CHORD, c)


def diameter(params: PolygonParams, p: int) -> Diagonal:
    """Type-B diameter through position p and its antipode."""
    if params.family != FAMILY_B:
        raise ValueError("diameter needs family-B parameters")
    half = params.half
    p %= half  # the canonical end, the positively labeled one
    return Diagonal(KIND_DIAMETER, Chord(p, p + half))


def b_pair(params: PolygonParams, x: int, y: int) -> Diagonal:
    """Type-B mirror pair containing the chord through positions x, y.

    Raises ValueError when the chord is a diameter, joins adjacent vertices,
    or its center-free arc is not 1 mod m.  No chord crosses its mirror: on
    an even polygon a chord and its half-turn image never interleave.
    """
    if params.family != FAMILY_B:
        raise ValueError("b_pair needs family-B parameters")
    size = params.size
    return Diagonal(KIND_PAIR, Chord(*pair_chord(size, params.m, x % size, y % size)))


def b_diagonal(params: PolygonParams, x: int, y: int) -> Diagonal:
    """Type-B diagonal through positions x, y: the diameter when they are
    antipodal, else the mirror pair that `b_pair` builds, with its
    ValueError."""
    if params.family != FAMILY_B:
        raise ValueError("b_diagonal needs family-B parameters")
    size = params.size
    x, y = x % size, y % size
    if (x - y) % size == size // 2:
        return diameter(params, x)
    return Diagonal(KIND_PAIR, Chord(*pair_chord(size, params.m, x, y)))


def pair_chord(size: int, m: int, x: int, y: int) -> tuple[int, int]:
    """Canonical constituent (a, b), a < b, of the type-B mirror pair through
    positions x, y of a (size)-gon, on ints alone; the validity test of
    `b_pair`, with its ValueError messages."""
    if x == y:
        raise ValueError(f"chord endpoints must differ, got {x} twice")
    a, b = (x, y) if x < y else (y, x)
    t = b - a  # the anticlockwise arc from a to b
    if t < 2 or size - t < 2:
        raise ValueError(f"chord {Chord(a, b)} joins adjacent vertices")
    if 2 * t == size:
        raise ValueError(f"chord {Chord(a, b)} is a diameter, not a pair constituent")
    half = size // 2
    arc = min(t, size - t)  # the center-free side
    if (arc - 1) % m != 0:
        raise ValueError(
            f"pair through {Chord(a, b)} cuts off parts with {arc + 1} vertices, not 2 mod {m}"
        )
    # canonical constituent: the one whose travel starts at a positive label
    if initial_position(size, a, b) < half:
        return a, b
    c, d = (a + half) % size, (b + half) % size
    return (c, d) if c < d else (d, c)


def initial_position(size: int, a: int, b: int) -> int:
    """Start of the chord (a, b), a < b, of a type-B (size)-gon.

    Travelling a non-diameter chord with the polygon center on the left
    starts at the beginning of its center-free arc; a diameter starts at its
    first endpoint.  On the canonical chord of a diagonal this is the
    diagonal's initial point, which carries a positive label.
    """
    return a if 2 * (b - a) <= size else b


def constituent_positions(
    params: PolygonParams, diagonals
) -> list[tuple[tuple[int, int], ...]]:
    """Endpoint pairs (a, b), a < b, of each diagonal's chords, in input order.

    A pair gives its canonical chord, then its mirror; the half-turn is read
    from the parameters once, not once per chord.
    """
    size = params.size
    half = size // 2  # the half-turn, for family B; pairs are B-only
    out = []
    for d in diagonals:
        c = d.canonical
        if d.kind != KIND_PAIR:
            out.append(((c.a, c.b),))
            continue
        x, y = (c.a + half) % size, (c.b + half) % size
        out.append(((c.a, c.b), (x, y) if x < y else (y, x)))
    return out


def positions_cross(g, h) -> bool:
    """True when a chord of g crosses a chord of h, both given as (a, b), a < b.

    (a, b) and (c, d) cross in the interior exactly when a < c < b < d or
    c < a < d < b; the strict inequalities rule out shared endpoints.
    """
    for a, b in g:
        for c, d in h:
            if a < c < b < d or c < a < d < b:
                return True
    return False


def pairwise_compatible(groups) -> bool:
    """True when no two groups of `constituent_positions` cross: the
    compatibility test of a whole face on integer endpoints."""
    for i, g in enumerate(groups):
        for h in groups[i + 1:]:
            if positions_cross(g, h):
                return False
    return True


def all_diagonals(params: PolygonParams) -> list[Diagonal]:
    """Every valid diagonal, sorted by canonical chord positions.  A type-B
    pair is found through both of its constituents and kept once."""
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
