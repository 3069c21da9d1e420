"""The benchmark's own checkers, written apart from polydissect.

Closed forms come from the paper (Tzanaki, "Polygon dissections and some
generalizations of cluster complexes"); every other check recomputes its
answer from the program's raw output.  Nothing here imports polydissect, so a
fault in the program cannot hide itself by also breaking its own checker.
Each checker raises CheckFailed with a reason.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from math import comb


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's computation."""


def f_vector(family: str, m: int, n: int) -> tuple[int, ...]:
    """Faces by number of diagonals: for A_{n-1}, C(n-1,i) C(mn+i+1,i)/(i+1);
    for B_n, C(n,i) C(mn+i,mn)."""
    if family == "A":
        out = []
        for i in range(n):
            num = comb(n - 1, i) * comb(m * n + i + 1, i)
            if num % (i + 1):
                raise ArithmeticError(f"A f-vector entry {i} is not integral")
            out.append(num // (i + 1))
        return tuple(out)
    return tuple(comb(n, i) * comb(m * n + i, m * n) for i in range(n + 1))


def narayana(family: str, m: int, n: int) -> tuple[int, ...]:
    """Generalized Narayana numbers N^m_W(i): for A_{n-1}, C(n,i+1) C(mn,i)/n;
    for B_n, C(n,i) C(mn,mn-i)."""
    if family == "A":
        out = []
        for i in range(n):
            num = comb(n, i + 1) * comb(m * n, i)
            if num % n:
                raise ArithmeticError(f"A narayana entry {i} is not integral")
            out.append(num // n)
        return tuple(out)
    return tuple(comb(n, i) * comb(m * n, m * n - i) for i in range(n + 1))


def h_from_f(f: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of sum_i f_i t^i (1-t)^(d-i), with d = len(f) - 1."""
    d = len(f) - 1
    h = [0] * (d + 1)
    for i, fi in enumerate(f):
        # t^i (1-t)^(d-i) = sum_j C(d-i, j) (-1)^j t^(i+j)
        for j in range(d - i + 1):
            h[i + j] += fi * comb(d - i, j) * (-1) ** j
    return tuple(h)


def reduced_euler(f: tuple[int, ...]) -> int:
    """sum_k (-1)^(k-1) f_k, where f_k counts faces with k vertices."""
    return sum(-fk if k % 2 == 0 else fk for k, fk in enumerate(f))


def diameter_faces(m: int, n: int) -> tuple[int, ...]:
    """Type-B faces with i diagonals that contain a diameter: C(mn+i,i) C(n-1,i-1)."""
    return (0,) + tuple(comb(m * n + i, i) * comb(n - 1, i - 1) for i in range(1, n + 1))


def path_h(edges: int) -> tuple[int, int, int]:
    """h-vector of a path with the given number of edges."""
    return (1, edges - 1, 0)


class OutputDigest:
    """Order-free digest of a round's outputs: the sum, modulo 2**256, of the
    SHA-256 of each (operation id, output) pair."""

    def __init__(self):
        self.total = 0

    def add(self, op_id: str, output) -> None:
        data = op_id.encode() + b"\0" + (output if isinstance(output, bytes) else output.encode())
        self.total = (self.total + int.from_bytes(hashlib.sha256(data).digest(), "big")) % 2**256

    def hexdigest(self) -> str:
        return f"{self.total:064x}"


# -- output checkers ---------------------------------------------------------


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_betti(betti, f: tuple[int, ...]) -> None:
    """Reduced Betti numbers of a wedge of top spheres: zeros below the top,
    and |reduced Euler characteristic| on top."""
    top = len(f) - 1
    expect(isinstance(betti, list) and len(betti) == top,
           f"Betti vector {betti!r} should have {top} entries")
    expect(all(b == 0 for b in betti[:-1]), f"Betti vector {betti!r} is not zero below the top")
    expect(betti[-1] == abs(reduced_euler(f)),
           f"top Betti number {betti[-1]} is not |reduced Euler| = {abs(reduced_euler(f))}")


def restriction_sizes(order) -> list[int]:
    """Restriction-face sizes of a facet order; CheckFailed unless the order
    is a shelling.

    Facet j (after the first) must meet the union of the earlier facets in a
    pure complex of codimension one.  Its codimension-one faces shared with
    earlier facets are F_j - {v} for v in R_j; the condition holds exactly
    when R_j is nonempty and no earlier facet contains all of R_j, and then
    R_j is the restriction face.
    """
    index: dict = {}
    masks = []
    for facet in order:
        mask = 0
        for v in facet:
            mask |= 1 << index.setdefault(v, len(index))
        masks.append(mask)
    expect(len(masks) > 0, "empty facet order")
    expect(len(set(masks)) == len(masks), "facet order repeats a facet")
    expect(len({len(facet) for facet in order}) == 1, "facets differ in size")
    ridges: set[int] = set()
    sizes = []
    for j, facet in enumerate(masks):
        bits = [1 << b for b in range(facet.bit_length()) if facet >> b & 1]
        if j:
            restriction = 0
            for bit in bits:
                if facet ^ bit in ridges:
                    restriction |= bit
            expect(restriction != 0,
                   f"facet {j + 1} meets the earlier facets only in codimension >= 2")
            for i in range(j):
                expect(masks[i] & restriction != restriction,
                       f"facet {j + 1} meets facet {i + 1} outside a shared ridge")
            sizes.append(bin(restriction).count("1"))
        else:
            sizes.append(0)
        ridges.update(facet ^ bit for bit in bits)
    return sizes


def check_shelling_report(report: dict, h: tuple[int, ...], facets=None,
                          vertex_count: int | None = None) -> None:
    """A `shelling --format json` report: the order is a shelling whose
    restriction sizes give h, the histogram and h fields agree, and the order
    lists exactly `facets` (when given) on `vertex_count` vertices (when given)."""
    expect(report.get("command") == "shelling", "report is not from shelling")
    result = report["result"]
    order = result["order"]
    hist = Counter(restriction_sizes(order))
    got = tuple(hist.get(k, 0) for k in range(len(order[0]) + 1))
    expect(got == h, f"restriction sizes give h = {got}, expected {h}")
    expect(result["restriction_histogram"] == {str(k): v for k, v in sorted(hist.items())},
           f"reported histogram {result['restriction_histogram']} disagrees with the order")
    expect(result["facet_count"] == len(order), "facet_count disagrees with the order")
    if "h_vector_from_restrictions" in result:
        expect(result["h_vector_from_restrictions"] == list(h), "wrong h_vector_from_restrictions")
        expect(result["narayana"] == list(h), "wrong narayana field")
        expect(result["matches_narayana"] is True, "matches_narayana is not true")
    if facets is not None:
        expect({frozenset(f) for f in order} == {frozenset(f) for f in facets},
               "order is not a permutation of the imported facets")
    if vertex_count is not None:
        expect(len({v for f in order for v in f}) == vertex_count,
               f"order does not use {vertex_count} vertices")


VERIFY_CHECKS = {
    "A": [
        "counts.f-vector", "counts.h-equals-narayana", "counts.reduced-euler",
        "counts.narayana-is-m-sequence", "purity.every-face-extends-to-a-facet",
        "purity.facet-regions-are-(m+2)-gons", "bijection.round-trip",
        "shelling.decomposition-found", "shelling.certificate-verified",
        "shelling.order-verified", "shelling.restrictions-match-narayana",
        "homology.betti-wedge-of-spheres", "homology.euler-poincare",
    ],
    "B": [
        "counts.f-vector", "counts.h-equals-narayana", "counts.reduced-euler",
        "counts.narayana-is-m-sequence", "purity.every-face-extends-to-a-facet",
        "purity.facet-regions-are-(m+2)-gons", "purity.facets-contain-exactly-one-diameter",
        "bijection.decode-inverts-encode", "bijection.image-counts",
        "bijection.diameter-faces-by-audit", "bijection.diameter-faces-by-final-eps",
        "shelling.decomposition-found", "shelling.certificate-verified",
        "shelling.order-verified", "shelling.restrictions-match-narayana",
        "homology.betti-wedge-of-spheres", "homology.euler-poincare",
    ],
}


def check_verify_report(report: dict, family: str, m: int, n: int) -> None:
    """A `verify --suite all --format json` report: every check passes and
    every number it shows equals the benchmark's own."""
    expect(report.get("command") == "verify", "report is not from verify")
    expect(report.get("params") == {"family": family, "m": m, "n": n}, "wrong params echoed")
    result = report["result"]
    checks = {c["name"]: c for c in result["checks"]}
    expect([c["name"] for c in result["checks"]] == VERIFY_CHECKS[family],
           f"unexpected check list {list(checks)}")
    for name, c in checks.items():
        want = "skipped" if name == "bijection.round-trip" else "pass"
        expect(c["status"] == want, f"{name} has status {c['status']}")
    expect(result["failures"] == 0, "failures is not 0")

    f = f_vector(family, m, n)
    nar = narayana(family, m, n)
    euler = reduced_euler(f)
    got = {name: c.get("got") for name, c in checks.items()}
    expect(got["counts.f-vector"] == list(f), f"enumerated f-vector {got['counts.f-vector']} != {f}")
    expect(got["counts.h-equals-narayana"] == list(h_from_f(f)) == list(nar),
           f"h-vector {got['counts.h-equals-narayana']} != {nar}")
    expect(got["counts.reduced-euler"] == euler, "wrong reduced Euler characteristic")
    expect(got["shelling.restrictions-match-narayana"] == list(nar), "wrong restriction h-vector")
    check_betti(got["homology.betti-wedge-of-spheres"], f)
    expect(got["homology.euler-poincare"] == euler, "wrong Euler-Poincare sum")
    if family == "B":
        expect(got["bijection.image-counts"] == list(f), "wrong image counts")
        diam = list(diameter_faces(m, n))
        expect(got["bijection.diameter-faces-by-audit"] == diam, "wrong diameter audit")
        expect(got["bijection.diameter-faces-by-final-eps"] == diam, "wrong final-eps counts")


class RoundTripTally:
    """Accumulates one complex's round trips and checks them against the
    closed forms: distinct images per cardinality equal the f-vector, and
    faces whose final eps entry is 1 (exactly those with a diameter) give
    the diameter refinement."""

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        self.images: list[set] = [set() for _ in range(n + 1)]
        self.diameters = [0] * (n + 1)

    def add(self, document_text: str, a, eps, same_face: bool) -> None:
        doc = json.loads(document_text)
        i = len(doc["diagonals"])
        expect(same_face, f"decode(encode(face)) differs from {document_text.strip()}")
        expect((doc["family"], doc["m"], doc["n"]) == ("B", self.m, self.n), "wrong parameters")
        expect(len(a) == i and sorted(a) == list(a), f"a = {a} is not a weakly increasing {i}-word")
        expect(len(eps) == self.n and set(eps) <= {0, 1} and sum(eps) == i, f"bad eps {eps}")
        has_diameter = any(x == -y for x, y in doc["diagonals"])
        expect(has_diameter == (eps[-1] == 1), f"final eps {eps[-1]} disagrees with the face")
        self.images[i].add((tuple(a), tuple(eps)))
        self.diameters[i] += eps[-1]

    def finish(self) -> None:
        counts = tuple(len(s) for s in self.images)
        want = f_vector("B", self.m, self.n)
        expect(counts == want, f"B({self.m},{self.n}) image counts {counts} != {want}")
        want_d = diameter_faces(self.m, self.n)
        expect(tuple(self.diameters) == want_d,
               f"B({self.m},{self.n}) diameter counts {self.diameters} != {want_d}")
