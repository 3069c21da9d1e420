"""Closed-form counting for m-divisible dissection complexes.

All arithmetic is exact (Python integers).  The f-vector convention used
throughout stores face counts by cardinality: entry k counts the faces with
exactly k diagonals, so entry 0 is 1 for the empty face and the last entry
counts facets.  An f-vector for a complex of rank d has d+1 entries, as does
its h-vector.
"""

from __future__ import annotations

from math import comb

from .polygons import FAMILY_A, FAMILY_B, PolygonParams


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{what}: {num} is not divisible by {den}")
    return q


def count_faces(params: PolygonParams, i: int) -> int:
    """Number of faces with exactly i diagonals, in closed form."""
    m, n = params.m, params.n
    if not 0 <= i <= params.rank:
        raise ValueError(f"face cardinality {i} out of range 0..{params.rank}")
    if params.family == FAMILY_A:
        return _exact_div(comb(m * n + i + 1, i) * comb(n, i + 1), n, "count_faces(A)")
    return comb(m * n + i, i) * comb(n, i)


def face_counts(params: PolygonParams, top: int | None = None):
    """`count_faces(params, i)` for i = 0 .. `top` (default: the rank), each
    term from the one before by their ratio, with exact division."""
    mn, n = params.m * params.n, params.n
    a = params.family == FAMILY_A
    term = 1  # no diagonals: the empty face
    for i in range(params.rank if top is None else top):
        yield term
        if a:  # term i is C(mn+i+1, i) C(n, i+1) / n
            num, den = (mn + i + 2) * (n - i - 1), (i + 1) * (i + 2)
        else:  # term i is C(mn+i, i) C(n, i)
            num, den = (mn + i + 1) * (n - i), (i + 1) ** 2
        term = _exact_div(term * num, den, "face_counts")
    yield term


def f_vector(params: PolygonParams) -> tuple[int, ...]:
    """Closed-form f-vector (entry k = number of k-diagonal faces)."""
    return tuple(face_counts(params))


def narayana(params: PolygonParams, i: int) -> int:
    """Entry i of the generalized Narayana h-vector."""
    m, n = params.m, params.n
    if not 0 <= i <= params.rank:
        raise ValueError(f"h-vector index {i} out of range 0..{params.rank}")
    if params.family == FAMILY_A:
        return _exact_div(comb(n - 1, i) * comb(m * n, i), i + 1, "narayana(A)")
    return comb(n, i) * comb(m * n, i)


def narayana_vector(params: PolygonParams) -> tuple[int, ...]:
    return tuple(narayana(params, i) for i in range(params.rank + 1))


def h_from_f(f: tuple[int, ...]) -> tuple[int, ...]:
    """h-vector from an f-vector (both indexed 0..d, cardinality convention).

    h_k is the coefficient of x^(d-k) in sum_i f_i (x - 1)^(d-i), so the
    polynomial with coefficients f is shifted by -1 with additions only
    (Taylor shift by synthetic division).
    """
    if not f or f[0] != 1:
        raise ValueError(f"f-vector must start with 1 (empty face), got {f!r}")
    h = list(f)  # h[i]: the coefficient of x^(d-i)
    for top in range(len(h) - 1, 0, -1):
        for i in range(1, top + 1):
            h[i] -= h[i - 1]
    return tuple(h)


def reduced_euler(f: tuple[int, ...]) -> int:
    """Reduced Euler characteristic -1 + f_0 - f_1 + ... from an f-vector."""
    return sum(f[k] if k % 2 else -f[k] for k in range(len(f)))


def facet_count(params: PolygonParams) -> int:
    """Generalized Catalan number: number of full dissections."""
    return count_faces(params, params.rank)


def diameter_face_count(params: PolygonParams, i: int) -> int:
    """Number of i-diagonal faces of a type-B complex containing a diameter."""
    if params.family != FAMILY_B:
        raise ValueError("diameter refinement is defined for family B only")
    m, n = params.m, params.n
    if not 1 <= i <= n:
        raise ValueError(f"cardinality {i} out of range 1..{n}")
    return comb(m * n + i, i) * comb(n - 1, i - 1)


# -- Macaulay M-sequence test ------------------------------------------------


def macaulay_representation(a: int, k: int) -> list[tuple[int, int]]:
    """Greedy k-th Macaulay representation a = C(a_k,k) + C(a_{k-1},k-1) + ...

    Returns [(a_k, k), (a_{k-1}, k-1), ...] with a_k > a_{k-1} > ... >= j >= 1.
    """
    if a < 0 or k < 1:
        raise ValueError(f"need a >= 0 and k >= 1, got a={a}, k={k}")
    rep: list[tuple[int, int]] = []
    j = k
    rest = a
    while rest > 0 and j >= 1:
        top = j
        while comb(top + 1, j) <= rest:
            top += 1
        rep.append((top, j))
        rest -= comb(top, j)
        j -= 1
    if rest:
        raise ArithmeticError(f"greedy representation of {a} in degree {k} left {rest}")
    return rep


def macaulay_bound(a: int, k: int) -> int:
    """a^<k>: the largest value allowed after a in degree k of an M-sequence."""
    return sum(comb(top + 1, j + 1) for top, j in macaulay_representation(a, k))


def is_m_sequence(h: tuple[int, ...]) -> bool:
    """True when h is the Hilbert function of some standard graded algebra."""
    if not h or h[0] != 1:
        return False
    if any(x < 0 for x in h):
        return False
    for k in range(1, len(h) - 1):
        if h[k] == 0:
            if any(h[k:]):
                return False
            break
        if h[k + 1] > macaulay_bound(h[k], k):
            return False
    return True
