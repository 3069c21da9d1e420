"""Abstract simplicial complexes on opaque, sortable vertex identities.

A complex is stored by its facet antichain, and its sorted `vertices` tuple
is the one vertex order: facets sort by the positions of their vertices in
it.  The memoized search for vertex decompositions packs each facet into a
string of those positions, gives up on a disconnected subproblem of
dimension at least 1 once its first candidate fails, and runs on an
explicit stack; it names vertices only in the certificate it returns.  The
module also provides the face operations (deletion, link, join, cone), one
iterative walk that checks a certificate independently of the search and
derives the shelling order it induces, and a checker for the shelling
condition: each facet after the first must meet the union of its
predecessors in a nonempty pure complex of codimension one.  The walk and
the checker run on int bitmasks over the vertex positions.
"""

from __future__ import annotations

import sys
from collections import Counter, namedtuple
from collections.abc import Iterable
from itertools import combinations, repeat
from operator import itemgetter

from .complexes import max_faces_bound
from .errors import NotAFaceError, ResourceLimitError, ShellingError, count_text

DEFAULT_MAX_STATES = 500_000


def sort_vertices(items: Iterable) -> list:
    """Deterministic vertex order; falls back to a typed key when the values
    are not mutually comparable (e.g. after coning an int complex over a
    string apex)."""
    items = list(items)
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=lambda v: (v.__class__.__name__, repr(v)))


def sorted_facets(facets: Iterable[frozenset]) -> list[frozenset]:
    """Deterministic facet order: by cardinality, then by the positions of the
    facet's vertices in the `sort_vertices` order of all vertices."""
    facets = list(facets)
    pos = {v: i for i, v in enumerate(sort_vertices(set().union(*facets)))}
    return sorted(facets, key=lambda f: (len(f), sorted(map(pos.__getitem__, f))))


class AbstractComplex:
    """Finite simplicial complex given by its facets.

    Vertices may be any hashable, mutually sortable values (ints, strings);
    `vertices` holds them in `sort_vertices` order.  Faces passed to the constructor are closed downward implicitly: only the
    maximal ones are kept.  The void complex (no faces at all) has an empty
    facet tuple; the complex whose only face is empty has the single facet
    frozenset().
    """

    __slots__ = ("facets", "vertices")

    def __init__(self, faces: Iterable[Iterable] = ()):
        sets = {frozenset(f) for f in faces}
        # every proper superset of a face contains the face's rarest vertex,
        # so only the sets holding that vertex are tested (all sets for the
        # empty face, which is maximal only when it is the sole face)
        holders: dict = {}
        for g in sets:
            for v in g:
                holders.setdefault(v, []).append(g)
        maximal = [
            f for f in sets
            if not any(f < g for g in min((holders[v] for v in f), key=len, default=sets))
        ]
        self.facets: tuple[frozenset, ...] = tuple(sorted_facets(maximal))
        self.vertices: tuple = tuple(sort_vertices(holders))

    @property
    def dim(self) -> int:
        """Dimension; -1 for the empty-face complex, -2 for the void complex."""
        if not self.facets:
            return -2
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) <= 1

    def impure_witness(self) -> frozenset | None:
        """A facet of non-maximal cardinality, or None when pure."""
        return None if self.is_pure() else self.facets[0]  # facets sort by size first

    def has_face(self, face: Iterable) -> bool:
        s = frozenset(face)
        return any(s <= f for f in self.facets)

    def __eq__(self, other) -> bool:
        return isinstance(other, AbstractComplex) and set(self.facets) == set(other.facets)

    def __hash__(self):
        return hash(frozenset(self.facets))

    def __repr__(self) -> str:
        return f"AbstractComplex({len(self.facets)} facets, dim {self.dim})"


def deletion(complex_: AbstractComplex, cut: Iterable) -> AbstractComplex:
    """Subcomplex of faces disjoint from the vertex set `cut`."""
    cut = frozenset(cut)
    return AbstractComplex(f - cut for f in complex_.facets)


def link(complex_: AbstractComplex, face: Iterable) -> AbstractComplex:
    """Link of a face: all faces whose union with it is again a face."""
    s = frozenset(face)
    if not complex_.has_face(s):
        raise NotAFaceError(f"{set(s) or '{}'} is not a face")
    return AbstractComplex(f - s for f in complex_.facets if s <= f)


def join(c1: AbstractComplex, c2: AbstractComplex) -> AbstractComplex:
    """Join of complexes on disjoint ground sets."""
    overlap = set(c1.vertices) & set(c2.vertices)
    if overlap:
        raise ValueError(f"join needs disjoint ground sets; shared: {sort_vertices(overlap)}")
    return AbstractComplex(f1 | f2 for f1 in c1.facets for f2 in c2.facets)


def cone(complex_: AbstractComplex, apex) -> AbstractComplex:
    """Join with the single new vertex `apex`."""
    return join(complex_, AbstractComplex([[apex]]))


def faces_by_dimension(
    complex_: AbstractComplex, max_faces: int | None = None
) -> dict[int, list[tuple]]:
    """All faces, keyed by dimension, each list sorted; includes dim -1.

    Raises ResourceLimitError when the closure would hold more faces than
    `complexes.max_faces_bound(max_faces)`: a facet of k vertices is refused
    before its 2**k subsets are built, and the running total after each one.
    """
    if not complex_.facets:
        return {}
    bound = max_faces_bound(max_faces)
    # one global vertex order keeps every subset's tuple form unique, even
    # when facets mix vertex types that are not mutually comparable
    order = {v: i for i, v in enumerate(complex_.vertices)}
    closure: set[tuple] = set()
    for f in complex_.facets:
        projected = 2 ** len(f)
        if projected <= bound:
            members = sorted(f, key=order.__getitem__)
            for k in range(len(members) + 1):
                closure.update(combinations(members, k))
            projected = len(closure)
        if projected > bound:
            raise ResourceLimitError(
                f"face closure has at least {count_text(projected)} faces, over bound {bound}",
                projected=projected,
                bound=bound,
            )
    out: dict[int, list[tuple]] = {}
    for face in closure:
        out.setdefault(len(face) - 1, []).append(face)
    for level in out.values():
        level.sort(key=lambda face: tuple(order[v] for v in face))
    return out


# -- vertex decompositions ----------------------------------------------------


class DecompositionLeaf(namedtuple("DecompositionLeaf", ())):
    """Certificate for a complex with at most one facet.

    Certificates are immutable and equal and hashed as the tuples of their
    fields; a leaf is the empty tuple, so test it with `isinstance`, not
    truth.
    """

    __slots__ = ()


class DecompositionNode(namedtuple("DecompositionNode", "vertex link deletion")):
    """Certificate step: shed `vertex`; `deletion` is None in the cone case."""

    __slots__ = ()


Certificate = DecompositionLeaf | DecompositionNode


def _canonical_form(facets: list[str]) -> tuple[tuple[int, str], str]:
    """Facets after dense re-indexing of vertices, plus the vertex order.

    Facets are packed strings of equal length whose code points are vertex
    positions in increasing order.  Vertices are numbered by first
    appearance in the sorted facets; the key is the renumbered facets,
    sorted, with their length, and `order[i]` is the vertex numbered i.
    Complexes that differ only by vertex positions share a key, so a
    memoized certificate is renamed from one order to the other.
    """
    rows = sorted(facets)
    order = "".join(dict.fromkeys("".join(rows)))
    table = str.maketrans(order, "".join(map(chr, range(len(order)))))
    renumbered = map(str.translate, rows, repeat(table))
    if len(rows[0]) > 1:
        renumbered = map("".join, map(sorted, renumbered))
    return (len(rows[0]), "".join(sorted(renumbered))), order


def _rename(cert: "Certificate", mapping) -> "Certificate":
    """The certificate with each vertex v replaced by mapping[v]."""
    order, stack = [], [cert]
    while stack:  # preorder, so each node comes before its link and deletion
        node = stack.pop()
        order.append(node)
        if isinstance(node, DecompositionNode):
            stack += (node.link, node.deletion)
    renamed: dict[int, Certificate | None] = {}
    for node in reversed(order):  # children first
        if isinstance(node, DecompositionNode):
            renamed[id(node)] = DecompositionNode(
                mapping[node.vertex], renamed[id(node.link)], renamed[id(node.deletion)]
            )
        else:
            renamed[id(node)] = node  # a leaf, or the None deletion of a cone step
    return renamed[id(cert)]


def _connected(facets: list[str]) -> bool:
    """Whether the facets' vertices span one connected graph (union-find)."""
    parent: dict[str, str] = {}

    def find(u: str) -> str:
        while parent.setdefault(u, u) != u:
            parent[u] = u = parent[parent[u]]  # path halving
        return u

    for f in facets:
        a = find(f[0])
        for u in f[1:]:
            parent[find(u)] = a
    return sum(u == r for u, r in parent.items()) == 1


def find_vertex_decomposition(
    complex_: AbstractComplex,
    priority: dict | None = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> Certificate | None:
    """Search for a vertex decomposition; None when the complex has none.

    The search runs on packed facets: each is a string whose code points are
    the positions of its vertices in `complex_.vertices`, in increasing
    order.  Candidates are tried in `priority` order (missing vertices come
    last), ties in vertex order.  Subproblems are memoized on their
    canonical form, successes and failures alike, and capped at
    `max_states`; a success is stored as found, with its vertex order, and
    renamed only when another subproblem reuses it.  A subproblem of
    dimension at least 1 whose first candidate fails is checked for
    connectivity and fails at once when disconnected, since a shellable
    complex of dimension at least 1 is connected.  An explicit stack of
    generators, one per subproblem, drives the search, so its depth is not
    bounded by the interpreter's recursion limit.  The certificate names the
    complex's own vertices.
    """
    names = complex_.vertices
    if len(complex_.facets) <= 1:
        return DecompositionLeaf()
    if not complex_.is_pure():
        return None
    if len(names) > sys.maxunicode + 1:
        raise ResourceLimitError(
            f"decomposition search takes at most {sys.maxunicode + 1} vertices, got {len(names)}",
            projected=len(names),
            bound=sys.maxunicode + 1,
        )
    chars = "".join(map(chr, range(len(names))))
    rank = priority or {}
    candidate_key = (
        {c: (rank.get(v, len(rank)), c) for v, c in zip(names, chars)}.__getitem__
        if rank else None
    )
    memo: dict[tuple, tuple[Certificate, str] | None] = {}
    leaf = DecompositionLeaf()
    stack: list = []  # one generator per subproblem under search, innermost last

    def search(facets: list[str], key: tuple, order: str):
        """Yields link and deletion subproblems, is sent their certificates."""
        free: set[str] | None = None  # the ridges of exactly one facet
        result: Certificate | None = None
        # a string, not a list of one-character strings, is kept while suspended
        for i, v in enumerate("".join(sorted(order, key=candidate_key))):
            if i == 1 and len(facets[0]) >= 2 and not _connected(facets):
                break  # the first candidate failed and no candidate can succeed
            inside = [f for f in facets if v in f]
            outside = [f for f in facets if v not in f]
            link_facets = [f.replace(v, "") for f in inside]
            if outside:
                if free is None:
                    cover = Counter()
                    for k in range(len(facets[0])):  # ridges without each facet's k-th vertex
                        kth = map(itemgetter(k), facets)
                        cover.update(map(str.replace, facets, kth, repeat("")))
                    free = {r for r, n in cover.items() if n == 1}
                    del cover  # the free ridges alone stay while subproblems run
                if not free.isdisjoint(link_facets):
                    continue  # deletion would be impure
            cert_link = yield link_facets
            if cert_link is None:
                continue
            if not outside:
                result = DecompositionNode(v, cert_link, None)
                break
            cert_del = yield outside
            if cert_del is None:
                continue
            result = DecompositionNode(v, cert_link, cert_del)
            break
        if result is not None:
            memo[key] = (result, order)
        return result

    def enter(facets: list[str]) -> Certificate | None:
        """A subproblem's certificate, or None after pushing its search."""
        if len(facets) <= 1:
            return leaf
        key, order = _canonical_form(facets)
        if key in memo:
            stored = memo[key]
            return None if stored is None else _rename(stored[0], dict(zip(stored[1], order)))
        if len(memo) >= max_states:
            raise ResourceLimitError(
                f"decomposition search exceeded {max_states} memoized states",
                bound=max_states,
            )
        memo[key] = None
        stack.append(search(facets, key, order))
        return None

    pos = dict(zip(names, chars))
    found = enter(["".join(sorted(map(pos.__getitem__, f))) for f in complex_.facets])
    while stack:  # a fresh generator is sent None, a suspended one its answer
        try:
            found = enter(stack[-1].send(found))
        except StopIteration as done:
            stack.pop()
            found = done.value
    return None if found is None else _rename(found, dict(zip(chars, names)))


def verify_vertex_decomposition(complex_: AbstractComplex, cert: Certificate) -> bool:
    """True when `shelling_from_decomposition` accepts every step of `cert`."""
    return shelling_from_decomposition(complex_, cert) is not None


# -- shellings -----------------------------------------------------------------


class ShellingOrder(namedtuple("ShellingOrder", "facets restrictions")):
    """A verified shelling: facet order plus restriction set per facet."""

    __slots__ = ()

    def restriction_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for r in self.restrictions:
            hist[len(r)] = hist.get(len(r), 0) + 1
        return hist

    def h_vector(self, dim: int) -> tuple[int, ...]:
        hist = self.restriction_histogram()
        return tuple(hist.get(k, 0) for k in range(dim + 2))


def _vertex_bits(complex_: AbstractComplex) -> dict:
    """Each vertex's bit: 1 << its position in `complex_.vertices`."""
    return {v: 1 << i for i, v in enumerate(complex_.vertices)}


def shelling_from_decomposition(
    complex_: AbstractComplex, cert: Certificate
) -> list[frozenset] | None:
    """Check a certificate in one stack-driven walk; its facet order, or None.

    Every node holds the indices of the root facets that survive its path:
    those through every vertex coned on the way down and avoiding every
    vertex shed by a deletion step.  Shedding v splits them into the link
    (through v, v coned) and the deletion (avoiding v, v shed); both stay
    pure antichains, so no complex is built.  Checks: a pure root; v in a
    facet and not already coned; a cone step with no facet avoiding v; a
    shedding step whose deletion is pure; a leaf with at most one facet.
    Facets and the coned and shed vertex sets are int bitmasks over the
    positions of `complex_.vertices`.  The deletion is pure when each ridge
    F - {v} of an inside facet F lies in a facet avoiding v, that is, when
    a vertex other than v and the shed ones completes the ridge to a root
    facet; a ridge index built once at the root maps each ridge to the OR
    of its completing vertices.  Order: deletion's, then link's.
    """
    if not complex_.is_pure():
        return None
    facets = complex_.facets
    bit = _vertex_bits(complex_)
    through: dict = {v: set() for v in bit}  # vertex -> indices of the facets through it
    masks = []
    for k, f in enumerate(facets):
        masks.append(sum(map(bit.__getitem__, f)))
        for v in f:
            through[v].add(k)
    completions: dict[int, int] = {}  # ridge -> the vertices completing it to a facet
    for mask in masks:
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            completions[mask ^ low] = completions.get(mask ^ low, 0) | low
    order, stack = [], [(range(len(facets)), cert, 0, 0)]  # facet indices, node, coned, shed
    while stack:
        alive, node, coned, shed = stack.pop()
        if isinstance(node, DecompositionLeaf) and len(alive) <= 1:
            order.extend(map(facets.__getitem__, alive))
            continue
        if not isinstance(node, DecompositionNode):
            return None  # not a certificate, or a leaf with several facets
        v = node.vertex
        b = bit.get(v, 0) & ~coned
        if not b:
            return None  # v in no facet of the complex, or already coned
        holders = through[v]
        inside = [k for k in alive if k in holders]
        outside = [k for k in alive if k not in holders]
        if not inside or (node.deletion is None) == bool(outside):
            return None  # v already shed, or not the step (cone or shedding) it claims
        keep = ~(b | shed)  # the vertices that may complete a ridge F - {v} in the deletion
        if outside and not all(completions[masks[k] ^ b] & keep for k in inside):
            return None  # some F - {v} is in no facet avoiding v: the deletion is impure
        stack.append((inside, node.link, coned | b, shed))
        if outside:
            stack.append((outside, node.deletion, coned, shed | b))  # popped, so ordered, first
    return order


def verify_shelling(complex_: AbstractComplex, order: list[frozenset]) -> ShellingOrder:
    """Check the shelling condition; raises ShellingError at the first bad step.

    Returns the order with each facet's restriction set (its unique minimal
    new face).  The histogram of restriction sizes equals the h-vector of a
    pure shellable complex.  Facets and ridges are int bitmasks over the
    positions of `complex_.vertices`, and each vertex keeps the bitmask of
    the indices of the earlier facets through it.
    """
    if not complex_.is_pure():
        raise ShellingError("complex is not pure", step=0)
    if len(order) != len(set(order)) or set(order) != set(complex_.facets):
        raise ShellingError("order is not a permutation of the facets", step=0)

    bit = _vertex_bits(complex_)
    seen_ridges: set[int] = set()
    holding = dict.fromkeys(bit, 0)  # vertex -> bitmask of the earlier facets through it
    restrictions: list[frozenset] = []

    for j, facet in enumerate(order):
        mask = sum(map(bit.__getitem__, facet))
        rest = frozenset(v for v in facet if mask ^ bit[v] in seen_ridges)
        if j:
            if not rest:
                raise ShellingError(
                    f"facet {j + 1} meets the earlier facets only in codimension >= 2",
                    step=j + 1,
                )
            holders = -1  # the earlier facets containing the whole restriction
            for v in rest:
                holders &= holding[v]
                if not holders:
                    break
            if holders:
                bad = (holders & -holders).bit_length()
                raise ShellingError(
                    f"facet {j + 1} meets facet {bad} outside its restriction faces",
                    step=j + 1,
                )
        restrictions.append(rest)
        seen_ridges.update(mask ^ bit[v] for v in facet)
        this = 1 << j
        for v in facet:
            holding[v] |= this

    return ShellingOrder(tuple(order), tuple(restrictions))


# -- facet-list text format -----------------------------------------------------


def parse_facet_lines(text: str) -> AbstractComplex:
    """One facet per line, vertices as whitespace-separated string tokens."""
    facets = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens:
            facets.append(tokens)
    return AbstractComplex(facets)


def format_facet_lines(complex_: AbstractComplex) -> str:
    lines = [" ".join(str(v) for v in sort_vertices(f)) for f in complex_.facets]
    return "\n".join(lines) + ("\n" if lines else "")
