"""The earlier Fraction formulas of the plane geometry and the construction,
kept as reference oracles for the integer projective code.

Nothing here calls into ``omstrata.geometry`` or ``omstrata.construction``
beyond the ``PlanePoint`` value type, so a test that compares the library
with these functions compares two independent computations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from omstrata import PlanePoint
from omstrata.labels import indexed


def fraction_primitive(x: Fraction, y: Fraction, z: Fraction):
    """The earlier body of ``_primitive``: scale by the lcm of the
    denominators with Fraction multiplication, then divide by the gcd of the
    entries."""
    scale = 1
    for part in (x, y, z):
        scale = scale * part.denominator // gcd(scale, part.denominator)
    ints = (int(x * scale), int(y * scale), int(z * scale))
    g = gcd(gcd(abs(ints[0]), abs(ints[1])), abs(ints[2])) or 1
    return (ints[0] // g, ints[1] // g, ints[2] // g)


def collinear(p: PlanePoint, q: PlanePoint, r: PlanePoint) -> bool:
    return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x) == 0


def line_through(p: PlanePoint, q: PlanePoint):
    """Canonical (a, b, c) of the line through p != q, from Fraction
    coefficients."""
    a = p.y - q.y
    b = q.x - p.x
    c = p.x * q.y - q.x * p.y
    ai, bi, ci = fraction_primitive(a, b, c)
    if ai < 0 or (ai == 0 and bi < 0):
        ai, bi, ci = -ai, -bi, -ci
    return (ai, bi, ci)


def line_intersect(l1, l2) -> PlanePoint:
    """Cramer's rule on two (a, b, c) lines; ZeroDivisionError when parallel
    or identical."""
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    det = a1 * b2 - a2 * b1
    return PlanePoint(Fraction(b1 * c2 - b2 * c1, det), Fraction(a2 * c1 - a1 * c2, det))


def cross_ratio(a: PlanePoint, b: PlanePoint, c: PlanePoint, d: PlanePoint) -> Fraction:
    """The parametric formula: each point as a + t * (b - a)."""
    dx = b.x - a.x
    dy = b.y - a.y
    if dx != 0:
        ta, tb, tc, td = [(p.x - a.x) / dx for p in (a, b, c, d)]
    else:
        ta, tb, tc, td = [(p.y - a.y) / dy for p in (a, b, c, d)]
    return abs(tc - ta) / abs(tc - tb) * abs(td - tb) / abs(td - ta)


def build_points(seed, depth: int):
    """The labelled points of ``build(seed, depth)``, one Fraction meet of two
    lines per point; ZeroDivisionError or ValueError at a degenerate step."""
    s = seed
    points = list(s.points().items())
    b_n = s.b1

    def meet(p1, p2, q1, q2):
        if p1 == p2 or q1 == q2:
            raise ValueError("coincident points")
        return line_intersect(line_through(p1, p2), line_through(q1, q2))

    for n in range(1, depth + 1):
        d_n = meet(s.omega, s.gamma, s.alpha, b_n)
        b_next = meet(s.omega, s.beta, s.a, d_n)
        c_n = meet(s.alpha, s.beta, s.a, b_next)
        points += [(indexed("d", n), d_n), (indexed("b", n + 1), b_next), (indexed("c", n), c_n)]
        b_n = b_next
    return points
