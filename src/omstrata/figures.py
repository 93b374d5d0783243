"""Deterministic SVG pictures of labeled planar configurations.

Exact coordinates are rounded to two decimals for display only; identical
inputs always produce byte-identical documents.  Elements that cannot be
drawn (zero vectors, non-positive height) are skipped.
"""

from __future__ import annotations

from fractions import Fraction

from .construction import ConfigurationFamily
from .geometry import PlanePoint, perspective_normalize
from .labels import Label, display, indexed
from .om import LabeledArrangement

_WIDTH = 640
_HEIGHT = 480
_MARGIN = 40


def _drawable_points(arrangement: LabeledArrangement) -> list[tuple[Label, PlanePoint]]:
    return [(label, perspective_normalize(vec)) for label, vec in arrangement.elements if vec.z > 0]


def _construction_lines(points: dict[Label, PlanePoint]) -> list[tuple[Label, Label]]:
    pairs: list[tuple[Label, Label]] = []

    def add(u: Label, v: Label) -> None:
        if u in points and v in points and points[u] != points[v]:
            pairs.append((u, v))

    add("alpha", "beta")
    add("omega", "beta")
    add("omega", "gamma")
    n = 1
    while indexed("d", n) in points:
        add("alpha", indexed("b", n))
        add("a", indexed("d", n))
        add("a", indexed("b", n + 1))
        n += 1
    return pairs


def emit_figure(obj: ConfigurationFamily | LabeledArrangement) -> str:
    """Render a configuration to SVG text: its points and the lines that
    define the construction.  A family is drawn as its arrangement."""
    if isinstance(obj, ConfigurationFamily):
        obj = obj.arrangement()
    labeled = _drawable_points(obj)
    if not labeled:
        raise ValueError("nothing to draw")
    xs = [p.x for _, p in labeled]
    ys = [p.y for _, p in labeled]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x = max(max_x - min_x, Fraction(1))
    span_y = max(max_y - min_y, Fraction(1))
    inner_w = _WIDTH - 2 * _MARGIN
    inner_h = _HEIGHT - 2 * _MARGIN
    scale = min(Fraction(inner_w) / span_x, Fraction(inner_h) / span_y)

    def sx(x: Fraction) -> str:
        return f"{float(_MARGIN + (x - min_x) * scale):.2f}"

    def sy(y: Fraction) -> str:
        return f"{float(_MARGIN + (max_y - y) * scale):.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    table = dict(labeled)
    for u, v in _construction_lines(table):
        p, q = table[u], table[v]
        # extend far past both endpoints; the viewport clips the excess
        ex_p = PlanePoint(p.x + 100 * (p.x - q.x), p.y + 100 * (p.y - q.y))
        ex_q = PlanePoint(q.x + 100 * (q.x - p.x), q.y + 100 * (q.y - p.y))
        parts.append(
            f'<line x1="{sx(ex_p.x)}" y1="{sy(ex_p.y)}" '
            f'x2="{sx(ex_q.x)}" y2="{sy(ex_q.y)}" '
            f'stroke="#888888" stroke-width="1"/>'
        )
    for label, point in labeled:
        parts.append(
            f'<circle cx="{sx(point.x)}" cy="{sy(point.y)}" r="4" fill="black"/>'
        )
        parts.append(
            f'<text x="{sx(point.x)}" y="{sy(point.y)}" dx="6" dy="-6" '
            f'font-family="serif" font-size="14">{display(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
