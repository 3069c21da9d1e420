"""Closed-form counts and vector transforms.

The h-vector oracles are the binomial sum h_k = sum_i (-1)^(k-i) C(d-i, d-k)
f_i, and an expansion of sum_i f[i] * (x-1)^(d-i) with integer polynomial
arithmetic, both independent of the Taylor shift under test.  Face counts
built from ratios of consecutive terms are checked against the oracle
`count_faces`, the closed form in binomials.
"""

import random
from math import comb

import pytest

from oracles import count_faces, f_from_h, facet_count
from polydissect.counting import (
    diameter_face_count,
    f_entry_bits,
    f_vector,
    face_counts,
    h_from_f,
    is_m_sequence,
    macaulay_bound,
    macaulay_representation,
    narayana,
    narayana_vector,
    reduced_euler,
)
from polydissect.polygons import FAMILY_A, FAMILY_B, PolygonParams

GRID = [
    (fam, m, n)
    for fam in (FAMILY_A, FAMILY_B)
    for m in (1, 2, 3)
    for n in (1, 2, 3, 4, 5)
]


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def h_oracle(f):
    """Coefficients of sum_i f[i]*(x-1)^(d-i), highest power first."""
    d = len(f) - 1
    total = [0]
    for i, fi in enumerate(f):
        term = [fi]
        for _ in range(d - i):
            term = poly_mul(term, [-1, 1])  # multiply by (x - 1)
        total = poly_add(total, term)
    total = total + [0] * (d + 1 - len(total))
    return tuple(total[d - k] for k in range(d + 1))


def h_comb_oracle(f):
    """The binomial sum for the h-vector."""
    d = len(f) - 1
    return tuple(
        sum((-1) ** (k - i) * comb(d - i, d - k) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    )


def test_h_from_f_matches_binomial_sum():
    rng = random.Random(20261019)
    vectors = [f_vector(PolygonParams(fam, m, n)) for fam, m, n in GRID]
    vectors += [f_vector(PolygonParams(FAMILY_B, 40, 40)),
                f_vector(PolygonParams(FAMILY_A, 7, 60))]
    for _ in range(100):
        d = rng.randrange(0, 30)
        vectors.append((1,) + tuple(rng.randrange(-10 ** 12, 10 ** 12) for _ in range(d)))
    for f in vectors:
        assert h_from_f(f) == h_comb_oracle(f)


def test_face_counts_match_the_closed_form():
    for fam in (FAMILY_A, FAMILY_B):
        for m in range(1, 8):
            for n in range(1, 16):
                params = PolygonParams(fam, m, n)
                closed = [count_faces(params, i) for i in range(params.rank + 1)]
                assert list(face_counts(params)) == closed
                assert f_vector(params) == tuple(closed)
                for top in range(params.rank + 1):
                    assert list(face_counts(params, top)) == closed[:top + 1]
    for params in (PolygonParams(FAMILY_A, 300, 200), PolygonParams(FAMILY_B, 250, 180)):
        assert sum(face_counts(params)) == sum(
            count_faces(params, i) for i in range(params.rank + 1)
        )


def test_h_from_f_frozen_values():
    assert h_from_f((1, 5, 5)) == (1, 3, 1)
    assert h_from_f((1, 10, 15)) == (1, 8, 6)
    assert h_from_f((1,)) == (1,)


@pytest.mark.parametrize("fam,m,n", GRID)
def test_h_from_f_matches_polynomial_oracle(fam, m, n):
    f = f_vector(PolygonParams(fam, m, n))
    assert h_from_f(f) == h_oracle(f)


def test_h_from_f_matches_oracle_on_random_vectors():
    rng = random.Random(20260817)
    for _ in range(50):
        d = rng.randrange(0, 6)
        f = (1,) + tuple(rng.randrange(0, 40) for _ in range(d))
        assert h_from_f(f) == h_oracle(f)
        assert f_from_h(h_from_f(f)) == f


def test_f_from_h_round_trip_on_random_h():
    rng = random.Random(99)
    for _ in range(50):
        d = rng.randrange(0, 6)
        h = (1,) + tuple(rng.randrange(0, 30) for _ in range(d))
        assert h_from_f(f_from_h(h)) == h


def test_f_vector_frozen_values():
    assert f_vector(PolygonParams(FAMILY_A, 2, 3)) == (1, 8, 12)
    assert f_vector(PolygonParams(FAMILY_A, 1, 4)) == (1, 9, 21, 14)
    assert f_vector(PolygonParams(FAMILY_B, 2, 3)) == (1, 21, 84, 84)
    assert f_vector(PolygonParams(FAMILY_B, 3, 4)) == (1, 52, 546, 1820, 1820)
    assert f_vector(PolygonParams(FAMILY_A, 3, 1)) == (1,)


@pytest.mark.parametrize("fam", [FAMILY_A, FAMILY_B])
def test_f_entry_bits_bounds_every_entry(fam):
    """The bound that `count` and `enumerate_faces` charge their big-int work to."""
    for m, n in [(m, n) for m in range(1, 9) for n in range(1, 41)] + [(1000, 20), (1, 2000)]:
        params = PolygonParams(fam, m, n)
        assert max(f_vector(params)).bit_length() <= f_entry_bits(params), (m, n)


def test_count_faces_uses_exact_division():
    for fam, m, n in GRID:
        params = PolygonParams(fam, m, n)
        for i in range(params.rank + 1):
            assert isinstance(count_faces(params, i), int)


def test_narayana_frozen_values():
    assert narayana_vector(PolygonParams(FAMILY_A, 2, 3)) == (1, 6, 5)
    assert narayana_vector(PolygonParams(FAMILY_A, 1, 4)) == (1, 6, 6, 1)
    assert narayana_vector(PolygonParams(FAMILY_B, 2, 3)) == (1, 18, 45, 20)
    assert narayana_vector(PolygonParams(FAMILY_B, 3, 2)) == (1, 12, 15)
    assert narayana(PolygonParams(FAMILY_A, 2, 3), 2) == 5
    assert narayana(PolygonParams(FAMILY_B, 2, 3), 3) == 20


@pytest.mark.parametrize("fam,m,n", GRID)
def test_h_vector_equals_narayana(fam, m, n):
    params = PolygonParams(fam, m, n)
    assert h_from_f(f_vector(params)) == narayana_vector(params)


@pytest.mark.parametrize("fam,m,n", GRID)
def test_narayana_sums_to_facet_count(fam, m, n):
    params = PolygonParams(fam, m, n)
    assert sum(narayana_vector(params)) == facet_count(params) == f_vector(params)[-1]
    if fam == FAMILY_A:
        assert facet_count(params) == comb(m * n + n, n - 1) // n
    else:
        assert facet_count(params) == comb(m * n + n, n)


def test_reduced_euler_frozen_values():
    assert reduced_euler((1, 8, 12)) == -5
    assert reduced_euler((1, 9, 21, 14)) == 1
    assert reduced_euler((1, 21, 84, 84)) == 20
    assert reduced_euler((1,)) == -1
    assert isinstance(reduced_euler((1, 8, 12)), int)


@pytest.mark.parametrize("fam,m,n", GRID)
def test_reduced_euler_is_signed_top_narayana(fam, m, n):
    params = PolygonParams(fam, m, n)
    r = params.rank
    sign = 1 if (r - 1) % 2 == 0 else -1
    assert reduced_euler(f_vector(params)) == sign * narayana(params, r)


def test_diameter_face_counts_hexagon():
    params = PolygonParams(FAMILY_B, 1, 2)
    assert diameter_face_count(params, 1) == 3
    assert diameter_face_count(params, 2) == 6


def test_diameter_face_count_formula():
    params = PolygonParams(FAMILY_B, 2, 3)
    for i in range(1, 4):
        assert diameter_face_count(params, i) == comb(6 + i, i) * comb(2, i - 1)


def test_macaulay_representation_examples():
    assert macaulay_representation(10, 3) == [(5, 3)]
    assert macaulay_representation(11, 3) == [(5, 3), (2, 2)]
    assert macaulay_representation(0, 2) == []
    # reconstruct the number from its representation
    for a in range(0, 60):
        for k in range(1, 5):
            rep = macaulay_representation(a, k)
            assert sum(comb(t, j) for t, j in rep) == a
            tops = [j for _, j in rep]
            assert tops == sorted(tops, reverse=True)


def test_macaulay_bound_examples():
    assert macaulay_bound(10, 3) == 15
    assert macaulay_bound(4, 1) == 10
    assert macaulay_bound(0, 2) == 0


def test_is_m_sequence_accepts_and_rejects():
    assert is_m_sequence((1,))
    assert is_m_sequence((1, 3, 1))
    assert is_m_sequence((1, 4, 10, 20))
    assert not is_m_sequence((1, 2, 4))
    assert not is_m_sequence((2, 1))
    assert not is_m_sequence((1, 0, 5))
    assert not is_m_sequence((1, 3, -1))
    assert not is_m_sequence(())


@pytest.mark.parametrize("fam,m,n", GRID)
def test_narayana_vectors_are_m_sequences(fam, m, n):
    assert is_m_sequence(narayana_vector(PolygonParams(fam, m, n)))
