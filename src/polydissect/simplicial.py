"""Abstract simplicial complexes on opaque, sortable vertex identities.

A complex is stored by its facet antichain, and its sorted `vertices` tuple
is the one vertex order: facets sort by the positions of their vertices in
it.  The memoized search for vertex decompositions packs each facet into a
string of those positions, gives up on a disconnected subproblem of
dimension at least 1 once its first candidate fails, and runs on an
explicit stack; it names vertices only in the certificate it returns.  The
module also provides one iterative walk that checks a certificate
independently of the search and derives the shelling order it induces, and
a checker for the shelling condition: each facet after the first must meet
the union of its predecessors in a nonempty pure complex of codimension
one.  The walk and the checker run on int bitmasks over the vertex
positions.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Iterable
from itertools import combinations, repeat

from .complexes import max_faces_bound
from .errors import ResourceLimitError, ShellingError, count_text

DEFAULT_MAX_STATES = 500_000


def sort_vertices(items: Iterable) -> list:
    """Deterministic vertex order; falls back to a typed key when the values
    are not mutually comparable (e.g. a complex whose vertices mix ints and
    strings)."""
    items = list(items)
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=lambda v: (v.__class__.__name__, repr(v)))


class AbstractComplex:
    """Finite simplicial complex given by its facets.

    Vertices may be any hashable, mutually sortable values (ints, strings);
    `vertices` holds them in `sort_vertices` order.  Faces passed to the
    constructor are closed downward implicitly: only the maximal ones are
    kept.  The void complex (no faces at all) has an empty
    facet tuple; the complex whose only face is empty has the single facet
    frozenset().
    """

    __slots__ = ("facets", "vertices")

    def __init__(self, faces: Iterable[Iterable] = ()):
        sets = {frozenset(f) for f in faces}
        vertices = sort_vertices(set().union(*sets))
        maximal = sets  # sets of one size form an antichain
        if len({len(f) for f in sets}) > 1:
            # every proper superset of a face contains the face's rarest
            # vertex, so only the sets holding that vertex are tested (all
            # sets for the empty face, which is maximal only when it is the
            # sole face)
            holders: dict = {}
            for g in sets:
                for v in g:
                    holders.setdefault(v, []).append(g)
            maximal = [
                f for f in sets
                if not any(f < g for g in min((holders[v] for v in f), key=len, default=sets))
            ]
        # facets sort by cardinality, then by the positions of their vertices
        pos = {v: i for i, v in enumerate(vertices)}
        self.facets: tuple[frozenset, ...] = tuple(
            sorted(maximal, key=lambda f: (len(f), sorted(map(pos.__getitem__, f))))
        )
        self.vertices: tuple = tuple(vertices)

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

    def __eq__(self, other) -> bool:
        return isinstance(other, AbstractComplex) and set(self.facets) == set(other.facets)

    def __hash__(self):
        return hash(frozenset(self.facets))

    def __repr__(self) -> str:
        return f"AbstractComplex({len(self.facets)} facets, dim {self.dim})"


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


class _Renamed(namedtuple("_Renamed", "cert mapping")):
    """`cert` with each vertex v read as mapping[v], not yet rebuilt."""

    __slots__ = ()


def _rename(cert: "Certificate", mapping) -> _Renamed:
    """The certificate with each vertex v replaced by mapping[v], as an O(1)
    wrapper; `_materialize` rebuilds it."""
    return _Renamed(cert, mapping)


def _materialize(cert) -> "Certificate":
    """`cert` rebuilt with every `_Renamed` applied, once, at the end of a
    search.  A wrapper's mapping is composed with the ones around it when the
    walk enters it, so a subtree is rebuilt only where the result holds it."""
    order, stack = [], [(cert, None)]
    while stack:  # preorder, so each node comes before its link and deletion
        node, mapping = stack.pop()
        while isinstance(node, _Renamed):
            inner = node.mapping
            mapping = inner if mapping is None else {k: mapping[v] for k, v in inner.items()}
            node = node.cert
        order.append((node, mapping))
        if isinstance(node, DecompositionNode):
            stack += ((node.link, mapping), (node.deletion, mapping))
    built: list[Certificate | None] = []
    for node, mapping in reversed(order):  # children first: the deletion on top
        if isinstance(node, DecompositionNode):
            deletion = built.pop()
            vertex = node.vertex if mapping is None else mapping[node.vertex]
            built.append(DecompositionNode(vertex, built.pop(), deletion))
        else:
            built.append(node)  # a leaf, or the None deletion of a cone step
    return built[0]


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


def _ridge_completions(facets: Iterable[Iterable], bit: dict) -> dict[int, int]:
    """Each ridge of `facets`, as the bitmask of its vertices' bits in `bit`,
    mapped to the OR of the bits of the vertices that complete it to one of
    the facets."""
    completions: dict[int, int] = {}
    for f in facets:
        mask = sum(map(bit.__getitem__, f))
        for v in f:
            b = bit[v]
            completions[mask ^ b] = completions.get(mask ^ b, 0) | b
    return completions


def find_vertex_decomposition(
    complex_: AbstractComplex, *, max_states: int = DEFAULT_MAX_STATES
) -> Certificate | None:
    """Search for a vertex decomposition; None when the complex has none.

    The search runs on packed facets: each is a string whose code points are
    the positions of its vertices in `complex_.vertices`, in increasing
    order, and a subproblem tries its vertices as candidates in that order.
    A subproblem's facets are the root facets through every vertex coned on
    its path and avoiding every vertex shed, with the coned ones removed; it
    carries both vertex sets as bitmasks, so a candidate v sheds to a pure
    deletion when, for each facet F through it, some vertex other than v and
    the shed ones completes the ridge (F + coned) - v to a root facet,
    looked up in a ridge index built once.

    Subproblems are memoized on their canonical form, successes and
    failures alike, and capped at `max_states`.  The canonical form is
    computed lazily: a subproblem is first filed under its facet count,
    facet size and vertex count, which the canonical form determines, and
    only when a second one shares them are both keyed.  A success is stored
    as found, with its vertex order; a subproblem that reuses it gets an
    O(1) renaming wrapper, and the certificate is rebuilt once, at the end,
    with the mappings composed.  A subproblem of dimension at least 1 whose
    first candidate fails is checked for connectivity and fails at once when
    disconnected, since a shellable complex of dimension at least 1 is
    connected.  An explicit stack of generators, one per subproblem, drives
    the search, so its depth is not bounded by the interpreter's recursion
    limit.  The certificate names the complex's own vertices.
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
    pos = dict(zip(names, chars))
    root = ["".join(sorted(map(pos.__getitem__, f))) for f in complex_.facets]
    bit = {c: 1 << i for i, c in enumerate(chars)}
    completions = _ridge_completions(root, bit)
    # (facet count, facet size, vertex count) -> the cell of the one
    # subproblem filed there, or a dict from canonical key to cell; a cell is
    # [certificate or None, the packed facets until keyed, then the order]
    memo: dict[tuple, list | dict] = {}
    states = 0
    leaf = DecompositionLeaf()
    stack: list = []  # one generator per subproblem under search, innermost last

    def search(facets: list[str], cell: list, candidates: str, coned: int, shed: int):
        """Yields link and deletion subproblems, is sent their certificates."""
        result: Certificate | None = None
        for i, v in enumerate(candidates):
            if i == 1 and len(facets[0]) >= 2 and not _connected(facets):
                break  # the first candidate failed and no candidate can succeed
            inside = [f for f in facets if v in f]
            outside = [f for f in facets if v not in f]
            b = bit[v]
            if outside:
                keep = ~(b | shed)  # the vertices that may complete a ridge in the deletion
                if not all(
                    completions[(sum(map(bit.__getitem__, f)) | coned) ^ b] & keep
                    for f in inside
                ):
                    continue  # deletion would be impure
            cert_link = yield [f.replace(v, "") for f in inside], coned | b, shed
            if cert_link is None:
                continue
            if not outside:
                result = DecompositionNode(v, cert_link, None)
                break
            cert_del = yield outside, coned, shed | b
            if cert_del is None:
                continue
            result = DecompositionNode(v, cert_link, cert_del)
            break
        cell[0] = result
        return result

    def enter(facets: list[str], coned: int, shed: int) -> Certificate | None:
        """A subproblem's certificate, or None after pushing its search."""
        nonlocal states
        if len(facets) <= 1:
            return leaf
        # a string, not a list of one-character strings, is kept while suspended
        candidates = "".join(sorted(set("".join(facets))))
        shape = (len(facets), len(facets[0]), len(candidates))
        filed = memo.get(shape)
        if filed is None:
            cell = [None, facets]
            memo[shape] = cell
        else:
            if isinstance(filed, list):  # key the subproblem filed alone so far
                key, filed[1] = _canonical_form(filed[1])
                memo[shape] = filed = {key: filed}
            key, order = _canonical_form(facets)
            cell = filed.get(key)
            if cell is not None:
                return None if cell[0] is None else _rename(cell[0], dict(zip(cell[1], order)))
            cell = filed[key] = [None, order]
        if states >= max_states:
            raise ResourceLimitError(
                f"decomposition search exceeded {max_states} memoized states",
                bound=max_states,
            )
        states += 1
        stack.append(search(facets, cell, candidates, coned, shed))
        return None

    found = enter(root, 0, 0)
    while stack:  # a fresh generator is sent None, a suspended one its answer
        try:
            found = enter(*stack[-1].send(found))
        except StopIteration as done:
            stack.pop()
            found = done.value
    return None if found is None else _materialize(_rename(found, dict(zip(chars, names))))


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

    Every node holds the root facets that survive its path, as a bitmask
    over facet indices: those through every vertex coned on the way down
    and avoiding every vertex shed by a deletion step.  Shedding v splits
    them into the link (through v, v coned) and the deletion (avoiding v, v
    shed) with one AND each against the facets through v; both stay pure
    antichains, so no complex is built.  Checks: a pure root; v in a facet
    and not already coned; a cone step with no facet avoiding v; a shedding
    step whose deletion is pure; a leaf with at most one facet.  Facets and
    the coned and shed vertex sets are int bitmasks over the positions of
    `complex_.vertices`.  The deletion is pure when each ridge F - {v} of an
    inside facet F lies in a facet avoiding v, that is, when a vertex other
    than v and the shed ones completes the ridge to a root facet; a ridge
    index built once at the root maps each ridge to the OR of its completing
    vertices.  Order: deletion's, then link's.
    """
    if not complex_.is_pure():
        return None
    facets = complex_.facets
    bit = _vertex_bits(complex_)
    through = dict.fromkeys(bit, 0)  # vertex -> bitmask of the indices of the facets through it
    masks = []
    for k, f in enumerate(facets):
        masks.append(sum(map(bit.__getitem__, f)))
        for v in f:
            through[v] |= 1 << k
    completions = _ridge_completions(facets, bit)
    order, stack = [], [((1 << len(facets)) - 1, cert, 0, 0)]  # facets, node, coned, shed
    while stack:
        alive, node, coned, shed = stack.pop()
        if isinstance(node, DecompositionLeaf) and not alive & (alive - 1):
            if alive:
                order.append(facets[alive.bit_length() - 1])
            continue
        if not isinstance(node, DecompositionNode):
            return None  # not a certificate, or a leaf with several facets
        v = node.vertex
        b = bit.get(v, 0) & ~coned
        if not b:
            return None  # v in no facet of the complex, or already coned
        inside = alive & through[v]
        outside = alive ^ inside
        if not inside or (node.deletion is None) == bool(outside):
            return None  # v already shed, or not the step (cone or shedding) it claims
        if outside:
            keep = ~(b | shed)  # the vertices that may complete a ridge F - {v} in the deletion
            rest = inside
            while rest:
                low = rest & -rest
                rest ^= low
                if not completions[masks[low.bit_length() - 1] ^ b] & keep:
                    return None  # F - {v} is in no facet avoiding v: the deletion is impure
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
