"""Exact homology: boundary maps, integer rank, Betti numbers.

`matrix_rank` reduces sparse columns over the integers.  Two dense oracles
check it: an independent Gaussian elimination over fractions.Fraction, and
the fraction-free (one-step division) integer elimination that computed the
ranks before the sparse reduction.  Both run on seeded random matrices,
including rank-deficient products, on hypothesis-drawn matrices, and the
fraction-free one on every boundary matrix of B(2,4) and A(2,5).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydissect import counting, homology
from polydissect.complexes import abstract_facets, enumerate_faces
from polydissect.homology import boundary_matrix, matrix_rank, reduced_betti
from polydissect.polygons import FAMILY_A, FAMILY_B, PolygonParams
from polydissect.simplicial import AbstractComplex, faces_by_dimension


def rank_oracle(mat):
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def fraction_free_rank(mat):
    """Dense rank by fraction-free elimination; every division is checked."""
    work = [row[:] for row in mat]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, nrows) if work[i][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        top = work[rank]
        for i in range(rank + 1, nrows):
            row = work[i]
            factor = row[col]
            for j in range(col + 1, ncols):
                num = pivot * row[j] - factor * top[j]
                q, r = divmod(num, prev)
                if r:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                row[j] = q
            row[col] = 0
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


def dense(bm):
    """The boundary matrix as a list of rows."""
    out = [[0] * len(bm.cols) for _ in bm.rows]
    for (i, j), sign in bm.entries.items():
        out[i][j] = sign
    return out


def sparse(mat):
    return {(i, j): x for i, row in enumerate(mat) for j, x in enumerate(row) if x}


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def cx(facets):
    return AbstractComplex([frozenset(f) for f in facets])


def complex_of(fam, m, n):
    return AbstractComplex(abstract_facets(enumerate_faces(PolygonParams(fam, m, n))))


def test_rank_matches_fraction_oracle_on_random_matrices():
    rng = random.Random(20260817)
    for _ in range(40):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 8)
        mat = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
        assert matrix_rank(sparse(mat)) == rank_oracle(mat) == fraction_free_rank(mat)
    for _ in range(20):
        # force rank deficiency through a low inner dimension
        inner = rng.randrange(1, 4)
        left = [[rng.randrange(-3, 4) for _ in range(inner)] for _ in range(6)]
        right = [[rng.randrange(-3, 4) for _ in range(7)] for _ in range(inner)]
        mat = mat_mul(left, right)
        got = matrix_rank(sparse(mat))
        assert got == rank_oracle(mat) == fraction_free_rank(mat)
        assert got <= inner


def test_rank_edge_cases():
    assert matrix_rank({}) == 0
    assert matrix_rank(sparse([[0, 0], [0, 0]])) == 0
    assert matrix_rank({(0, 1): 0, (1, 0): 0}) == 0  # explicit zeros are no entries
    assert matrix_rank(sparse([[2]])) == 1
    assert matrix_rank(sparse([[1, 2], [2, 4]])) == 1
    assert matrix_rank(sparse([[1, 0], [0, 1]])) == 2
    assert matrix_rank(sparse([[6, 4], [9, 6]])) == 1  # pivots 9 and 6 share the factor 3
    assert matrix_rank({(5, 100): 3, (7, 2): -1}) == 2  # indices need not be dense


@st.composite
def integer_matrices(draw):
    """Small integer matrices; half of them products through a narrow inner
    dimension, so rank deficiency is common."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    entry = st.integers(-6, 6)
    if draw(st.booleans()):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    inner = draw(st.integers(1, 3))
    left = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                         min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=inner, max_size=inner))
    return mat_mul(left, right)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_matrices())
def test_sparse_rank_matches_both_dense_oracles(mat):
    assert matrix_rank(sparse(mat)) == rank_oracle(mat) == fraction_free_rank(mat)


@pytest.mark.parametrize("fam,m,n", [(FAMILY_B, 2, 4), (FAMILY_A, 2, 5)])
def test_boundary_ranks_match_dense_oracle_per_degree(fam, m, n):
    comp = complex_of(fam, m, n)
    for k in range(comp.dim + 1):
        bm = boundary_matrix(comp, k)
        assert matrix_rank(bm.entries) == fraction_free_rank(dense(bm)), k


def test_boundary_composition_is_zero():
    for comp in [
        cx([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        cx([(0, 1, 2, 3)]),
        complex_of(FAMILY_B, 1, 2),
        complex_of(FAMILY_A, 2, 3),
    ]:
        for k in range(1, comp.dim + 1):
            outer = dense(boundary_matrix(comp, k))
            inner = dense(boundary_matrix(comp, k + 1)) if k < comp.dim else None
            if inner:
                prod = mat_mul(outer, inner)
                assert all(all(x == 0 for x in row) for row in prod)


def test_degree_zero_boundary_is_augmentation():
    comp = cx([(0, 1), (1, 2)])
    b0 = boundary_matrix(comp, 0)
    assert b0.rows == [()]
    assert dense(b0) == [[1, 1, 1]]
    assert matrix_rank(b0.entries) == 1


def test_reduced_betti_builds_the_face_closure_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return faces_by_dimension(*args)

    monkeypatch.setattr(homology, "faces_by_dimension", counted)
    params = PolygonParams(FAMILY_B, 2, 3)
    assert reduced_betti(AbstractComplex(abstract_facets(enumerate_faces(params)))) == (0, 0, 20)
    assert len(calls) == 1


def test_boundary_rejects_negative_degree():
    with pytest.raises(ValueError):
        boundary_matrix(cx([(0, 1)]), -1)


def test_small_complex_betti_numbers():
    assert reduced_betti(cx([(0, 1), (1, 2), (0, 2)])) == (0, 1)  # hollow triangle
    assert reduced_betti(cx([(0, 1, 2)])) == (0, 0, 0)  # filled triangle
    assert reduced_betti(cx([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])) == (0, 1)
    assert reduced_betti(cx([(0, 1), (2, 3)])) == (1, 0)  # two components
    assert reduced_betti(cx([(0,), (1,), (2,)])) == (2,)
    octa = cx(
        [(0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)]
    )
    assert reduced_betti(octa) == (0, 0, 1)


def test_degenerate_complexes_have_empty_betti():
    assert reduced_betti(AbstractComplex([])) == ()
    assert reduced_betti(AbstractComplex([()])) == ()


@pytest.mark.parametrize(
    "fam,m,n,expected",
    [
        (FAMILY_A, 1, 3, (0, 1)),
        (FAMILY_A, 2, 2, (2,)),
        (FAMILY_A, 2, 3, (0, 5)),
        (FAMILY_B, 1, 2, (0, 1)),
        (FAMILY_B, 2, 2, (0, 6)),
        (FAMILY_B, 2, 3, (0, 0, 20)),
    ],
)
def test_dissection_complexes_are_wedges_of_spheres(fam, m, n, expected):
    assert reduced_betti(complex_of(fam, m, n)) == expected


@pytest.mark.parametrize(
    "fam,m,n",
    [(FAMILY_A, 1, 3), (FAMILY_A, 2, 3), (FAMILY_B, 1, 2), (FAMILY_B, 2, 2), (FAMILY_B, 1, 3)],
)
def test_euler_poincare_identity(fam, m, n):
    params = PolygonParams(fam, m, n)
    betti = reduced_betti(complex_of(fam, m, n))
    alternating = sum(b if k % 2 == 0 else -b for k, b in enumerate(betti))
    assert alternating == counting.reduced_euler(counting.f_vector(params))
