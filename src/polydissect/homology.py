"""Exact reduced simplicial homology over the rationals.

Chains are indexed by the faces of the complex in canonical sorted order,
with the empty face as the basis of degree -1, so the degree-0 boundary map
is the all-ones augmentation row.  Betti numbers come from exact ranks of
the sparse boundary matrices, built one {row: sign} column at a time and
reduced as they arrive, by integer column reduction: each column's pivot
is its lowest nonzero row, and a column whose pivot is taken is cancelled
against the owner of that pivot with integer multipliers, then divided by
the gcd of its entries.  No division is ever inexact.
"""

from __future__ import annotations

from math import gcd

from .simplicial import AbstractComplex, faces_by_dimension


class BoundaryMatrix:
    """Sparse signed boundary map from degree-k chains to degree-(k-1) chains."""

    def __init__(
        self, degree: int, rows: list[tuple], cols: list[tuple],
        entries: dict[tuple[int, int], int],
    ):
        self.degree = degree
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.degree, self.rows, self.cols, self.entries) == (
            other.degree, other.rows, other.cols, other.entries
        )

    def __repr__(self) -> str:
        return f"BoundaryMatrix(degree={self.degree!r}, rows={self.rows!r}, cols={self.cols!r})"


def _boundary_columns(faces: dict[int, list[tuple]], k: int):
    """The degree-k boundary map of the face closure `faces`, one column per
    k-face in order: a {row: sign} dict over the indices of the (k-1)-faces,
    the sign alternating by the index of the dropped vertex."""
    row_index = {face: i for i, face in enumerate(faces.get(k - 1, []))}
    for face in faces.get(k, []):
        yield {row_index[face[:pos] + face[pos + 1:]]: -1 if pos % 2 else 1
               for pos in range(len(face))}


def boundary_matrix(
    complex_: AbstractComplex, k: int, max_faces: int | None = None
) -> BoundaryMatrix:
    """Boundary map in degree k; faces are sorted tuples, signs alternate by
    the index of the dropped vertex.  `max_faces` bounds the face closure
    (see `faces_by_dimension`)."""
    if k < 0:
        raise ValueError(f"boundary degree must be >= 0, got {k}")
    fbd = faces_by_dimension(complex_, max_faces)
    entries = {(i, j): sign for j, col in enumerate(_boundary_columns(fbd, k))
               for i, sign in col.items()}
    return BoundaryMatrix(k, fbd.get(k - 1, []), fbd.get(k, []), entries)


def matrix_rank(columns) -> int:
    """Exact rank of a sparse integer matrix given as its columns: any
    iterable of {row: value} dicts, reduced one at a time as they arrive.

    Zero values are dropped first, since a pivot must be nonzero; the
    caller's dicts are never changed.  A column whose lowest row is already
    the pivot of an earlier column c becomes a*col - b*c, with a and b the
    two pivot entries divided by their gcd, which clears that row; the
    result is divided by the gcd of its entries.  The rank is the number of
    columns left nonzero, whose pivots are distinct.
    """
    owners: dict[int, dict[int, int]] = {}  # pivot row -> reduced column
    for col in columns:
        col = {i: x for i, x in col.items() if x}
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


def reduced_betti(faces: dict[int, list[tuple]]) -> tuple[int, ...]:
    """Reduced Betti numbers (b_0, ..., b_dim) over the rationals of the face
    closure `faces`, keyed by dimension as `faces_by_dimension` returns it:
    each face a tuple of vertices in one global order, the empty face at -1.

    It builds no closure, so the face bound is the caller's: a `FaceTable`
    hands over its levels, `dict(enumerate(table.by_cardinality, -1))`, and
    an `AbstractComplex` its bounded `faces_by_dimension`."""
    dim = max(faces, default=-1)
    if dim < 0:
        return ()
    ranks = [matrix_rank(_boundary_columns(faces, k)) for k in range(dim + 1)]
    ranks.append(0)  # no chains above the top dimension
    return tuple(len(faces[k]) - ranks[k] - ranks[k + 1] for k in range(dim + 1))
