"""Exact reduced simplicial homology over the rationals.

Chains are indexed by the faces of the complex in canonical sorted order,
with the empty face as the basis of degree -1, so the degree-0 boundary map
is the all-ones augmentation row.  Betti numbers come from exact ranks of
the sparse boundary matrices, computed by integer column reduction: each
column's pivot is its lowest nonzero row, and a column whose pivot is taken
is cancelled against the owner of that pivot with integer multipliers, then
divided by the gcd of its entries.  No division is ever inexact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .simplicial import AbstractComplex, faces_by_dimension


@dataclass
class BoundaryMatrix:
    """Sparse signed boundary map from degree-k chains to degree-(k-1) chains."""

    degree: int
    rows: list[tuple]
    cols: list[tuple]
    entries: dict[tuple[int, int], int] = field(repr=False)


def _boundary_entries(fbd: dict[int, list[tuple]], k: int) -> dict[tuple[int, int], int]:
    """Signed entries of the degree-k boundary map of the face closure `fbd`."""
    row_index = {face: i for i, face in enumerate(fbd.get(k - 1, []))}
    entries: dict[tuple[int, int], int] = {}
    for j, face in enumerate(fbd.get(k, [])):
        for pos in range(len(face)):
            sub = face[:pos] + face[pos + 1 :]
            entries[(row_index[sub], j)] = -1 if pos % 2 else 1
    return entries


def boundary_matrix(
    complex_: AbstractComplex, k: int, max_faces: int | None = None
) -> BoundaryMatrix:
    """Boundary map in degree k; faces are sorted tuples, signs alternate by
    the index of the dropped vertex.  `max_faces` bounds the face closure
    (see `faces_by_dimension`)."""
    if k < 0:
        raise ValueError(f"boundary degree must be >= 0, got {k}")
    fbd = faces_by_dimension(complex_, max_faces)
    return BoundaryMatrix(k, fbd.get(k - 1, []), fbd.get(k, []), _boundary_entries(fbd, k))


def matrix_rank(entries: dict[tuple[int, int], int]) -> int:
    """Exact rank of a sparse integer matrix given as {(row, col): value}.

    Zero values are dropped first, since a pivot must be nonzero.  Columns
    are reduced left to right.  A column whose lowest row is already the
    pivot of an earlier column c becomes a*col - b*c, with a and b the two
    pivot entries divided by their gcd, which clears that row; the result is
    divided by the gcd of its entries.  The rank is the number of columns
    left nonzero, whose pivots are distinct.
    """
    columns: dict[int, dict[int, int]] = {}
    for (i, j), x in entries.items():
        if x:
            columns.setdefault(j, {})[i] = x
    owners: dict[int, dict[int, int]] = {}  # pivot row -> reduced column
    for j in sorted(columns):
        col = columns[j]
        while col:
            low = max(col)
            pivot_col = owners.get(low)
            if pivot_col is None:
                owners[low] = col
                break
            g = gcd(pivot_col[low], col[low])
            a, b = pivot_col[low] // g, col[low] // g
            reduced = {i: a * x for i, x in col.items()}
            for i, y in pivot_col.items():
                x = reduced.get(i, 0) - b * y
                if x:
                    reduced[i] = x
                else:
                    del reduced[i]
            content = gcd(*reduced.values())
            if content > 1:
                reduced = {i: x // content for i, x in reduced.items()}
            col = reduced
    return len(owners)


def reduced_betti(complex_: AbstractComplex, max_faces: int | None = None) -> tuple[int, ...]:
    """Reduced Betti numbers (b_0, ..., b_dim) over the rationals, from one
    face closure shared by every degree.

    Raises ResourceLimitError when the face closure exceeds `max_faces`
    (default `complexes.max_faces_bound()`)."""
    fbd = faces_by_dimension(complex_, max_faces)
    if not fbd:
        return ()
    dim = max(fbd)
    if dim < 0:
        return ()
    ranks = [matrix_rank(_boundary_entries(fbd, k)) for k in range(dim + 1)]
    ranks.append(0)  # no chains above the top dimension
    return tuple(len(fbd[k]) - ranks[k] - ranks[k + 1] for k in range(dim + 1))
