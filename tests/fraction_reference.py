"""The earlier Fraction formulas of the plane geometry and the construction,
kept as reference oracles for the integer projective code, and the slow
exact line kernel, the reference of ``om._enumerate_lines``.

Nothing here calls into ``omstrata.geometry``, ``omstrata.construction`` or
``omstrata.om`` beyond the ``PlanePoint`` value type, so a test that
compares the library with these functions compares two independent
computations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
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


def slow_lines(ints):
    """The rows and the pair index of ``om._enumerate_lines`` with a
    full-width product for every triple.

    The pairs ``i < j`` are walked in order; a pair not yet indexed whose
    cross product N is non-zero makes a line: the row of the n signs
    ``sign(N . v_k)`` and its negation.  Every pair of non-zero vectors in
    the row's zero set is then indexed to ``(line, c, up)``, with ``c`` the
    first coordinate where N is non-zero and ``up`` whether N is positive
    there; a later line may index a parallel pair again."""
    rows, line_of = [], {}
    live = [k for k, v in enumerate(ints) if any(v)]
    for i, j in combinations(range(len(ints)), 2):
        (x1, y1, z1), (x2, y2, z2) = ints[i], ints[j]
        normal = (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
        if (i, j) in line_of or not any(normal):
            continue
        dots = [normal[0] * x + normal[1] * y + normal[2] * z for x, y, z in ints]
        row = "".join("+" if d > 0 else "-" if d < 0 else "0" for d in dots)
        c = next(k for k, x in enumerate(normal) if x)
        entry = (len(rows) // 2, c, normal[c] > 0)
        line_of.update(dict.fromkeys(combinations([k for k in live if not dots[k]], 2), entry))
        rows += (row, row.translate(str.maketrans("+-", "-+")))
    return rows, line_of
