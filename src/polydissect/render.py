"""Deterministic SVG pictures of dissection faces.

Vertices sit on a circle in anticlockwise label order starting at three
o'clock.  Mirror pairs are drawn in one style, diameters in another; barred
labels carry an overline.  Output depends only on the face, so repeated
renders are byte-identical.
"""

from __future__ import annotations

import math

from .complexes import Face
from .polygons import KIND_DIAMETER, constituent_positions

SIZE = 640
RADIUS = 250
LABEL_RADIUS = 272

PAIR_COLOR = "#2b6cb0"
DIAMETER_COLOR = "#c53030"
EDGE_COLOR = "#444444"


def _point(p: int, size: int, radius: float) -> tuple[float, float]:
    angle = 2.0 * math.pi * p / size
    # SVG y grows downward; flip the sine so labels run anticlockwise
    return (SIZE / 2 + radius * math.cos(angle), SIZE / 2 - radius * math.sin(angle))


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def face_svg(face: Face) -> str:
    params = face.params
    size = params.size
    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">'
    )
    parts.append(f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>')

    boundary = " ".join(
        f"{_fmt(x)},{_fmt(y)}" for x, y in (_point(p, size, RADIUS) for p in range(size))
    )
    parts.append(
        f'<polygon points="{boundary}" fill="none" stroke="{EDGE_COLOR}" stroke-width="1"/>'
    )

    diagonals = face.sorted_diagonals()
    for d, chords in zip(diagonals, constituent_positions(params, diagonals)):
        color = DIAMETER_COLOR if d.kind == KIND_DIAMETER else PAIR_COLOR
        for a, b in chords:
            x1, y1 = _point(a, size, RADIUS)
            x2, y2 = _point(b, size, RADIUS)
            parts.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="{color}" stroke-width="1.6"/>'
            )

    for p in range(size):
        x, y = _point(p, size, RADIUS)
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{EDGE_COLOR}"/>')
        lx, ly = _point(p, size, LABEL_RADIUS)
        parts.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-family="sans-serif" font-size="14" '
            f'text-anchor="middle" dominant-baseline="middle">{params.label_text(p)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
