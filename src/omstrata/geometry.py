"""Exact rational plane geometry: predicates, lines, cross-ratio, projectivities.

Points and results are ``fractions.Fraction``; every operation is exact,
pure, and deterministic.  Coordinates and factors are ints or Fractions:
anything else, a float or a bool included, raises ValueError.  Degenerate
inputs raise the typed errors from :mod:`omstrata.errors` instead of
returning sentinels.

Underneath, points and lines are integer 3-vectors, and a gcd is taken only
where a result must be primitive.  ``_cleared`` clears denominators by
their least common multiple, which keeps every sign, and ``_primitive``
(behind ``sign_det3`` and ``integer_vectors``) divides that by the gcd.
``_lift`` takes a plane point to its primitive vector with z > 0 and needs
no gcd.  ``_join``, the cross product divided by its gcd, gives the
canonical line of ``line_through``.  ``_meet``, the point on two lines, is a
bare cross product: the ``Fraction`` coordinates of ``_point`` reduce it, and
``_point_lift`` reads the primitive vector off that reduction at the cost of
one small gcd.  Collinearity is one integer determinant of three lifts, and
the cross-ratio one quotient of integer products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import mul
from typing import Sequence, Union

from .errors import (
    CoincidentPoints,
    DegeneratePoints,
    DegenerateSource,
    DegenerateTarget,
    Identical,
    NonPositiveHeight,
    NotCollinear,
    Parallel,
)

Rational = Fraction
RationalLike = Union[Fraction, int]


def _frac(value: RationalLike) -> Fraction:
    """``value`` as a Fraction.  Raises ValueError for anything but an int or
    a Fraction (a bool or a float is not)."""
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is int:
        return Fraction(value)
    raise ValueError(f"expected an int or a Fraction, got {value!r}")


@dataclass(frozen=True)
class PlanePoint:
    x: Fraction
    y: Fraction

    def __init__(self, x: RationalLike, y: RationalLike):
        object.__setattr__(self, "x", _frac(x))
        object.__setattr__(self, "y", _frac(y))


@dataclass(frozen=True)
class Vector3:
    """Homogeneous 3-vector.  The zero vector is allowed (it models loops)."""

    x: Fraction
    y: Fraction
    z: Fraction

    def __init__(self, x: RationalLike, y: RationalLike, z: RationalLike):
        object.__setattr__(self, "x", _frac(x))
        object.__setattr__(self, "y", _frac(y))
        object.__setattr__(self, "z", _frac(z))

    def dot(self, other: "Vector3") -> Fraction:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vector3") -> "Vector3":
        return Vector3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def scaled(self, factor: RationalLike) -> "Vector3":
        f = _frac(factor)
        p, q = f.numerator, f.denominator
        x, y, z = self.x, self.y, self.z
        return Vector3(Fraction(x.numerator * p, x.denominator * q),
                       Fraction(y.numerator * p, y.denominator * q),
                       Fraction(z.numerator * p, z.denominator * q))

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0


IntVec = tuple[int, int, int]


def _cleared(x: Fraction, y: Fraction, z: Fraction) -> IntVec:
    """(x, y, z) times the least common multiple of its denominators: a
    positive integer multiple, each numerator times the cofactor of its
    denominator."""
    dx, dy, dz = x.denominator, y.denominator, z.denominator
    scale = lcm(dx, dy, dz)
    return (x.numerator * (scale // dx), y.numerator * (scale // dy), z.numerator * (scale // dz))


def _primitive(x: Fraction, y: Fraction, z: Fraction) -> IntVec:
    """Positive integer rescaling of (x, y, z) with coprime entries (0 stays 0).

    Integer arithmetic only: ``_cleared`` divided by one gcd."""
    a, b, c = _cleared(x, y, z)
    g = gcd(a, b, c) or 1
    return (a // g, b // g, c // g)


def _cross(u: IntVec, v: IntVec) -> IntVec:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u: IntVec, v: IntVec) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _det3(u: IntVec, v: IntVec, w: IntVec) -> int:
    return _dot(u, _cross(v, w))


def _gram_adjugate(rows: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """adj(G') and det(G') of the Gram matrix G' = B' B'^T of three integer
    rows B'.  det(G') is the sum of the squared 3x3 minors of B'
    (Cauchy-Binet), so it is non-zero exactly when the rows are independent:
    the rank-3 test of ``Subspace`` and of ``LabeledArrangement.is_spanning``."""
    g00, g01, g02, g11, g12, g22 = (
        sum(map(mul, u, v)) for u, v in combinations_with_replacement(rows, 2)
    )
    # adj(G') is symmetric, as G' is.
    a00, a01, a02 = g11 * g22 - g12 * g12, g02 * g12 - g01 * g22, g01 * g12 - g02 * g11
    a11, a12, a22 = g00 * g22 - g02 * g02, g01 * g02 - g00 * g12, g00 * g11 - g01 * g01
    det = g00 * a00 + g01 * a01 + g02 * a02
    return ((a00, a01, a02), (a01, a11, a12), (a02, a12, a22)), det


def _lift(p: PlanePoint) -> IntVec:
    """The primitive integer vector of p, with z > 0: (x L, y L, L) for L the
    lcm of the denominators, which takes no gcd.  Proof: a prime dividing L
    divides one denominator, say x's, to its full power in L, so it divides
    neither L / x.denominator nor x.numerator, hence not x L."""
    x, y = p.x, p.y
    dx, dy = x.denominator, y.denominator
    scale = lcm(dx, dy)
    return (x.numerator * (scale // dx), y.numerator * (scale // dy), scale)


def _join(u: IntVec, v: IntVec) -> IntVec:
    """The line through two points as a primitive vector; zero when u and v
    are proportional."""
    w = _cross(u, v)
    g = gcd(*w)
    return (w[0] // g, w[1] // g, w[2] // g) if g > 1 else w


def _point(v: IntVec) -> PlanePoint:
    """The plane point of a vector with z != 0."""
    return PlanePoint(Fraction(v[0], v[2]), Fraction(v[1], v[2]))


def _point_lift(v: IntVec) -> tuple[PlanePoint, IntVec]:
    """The plane point of a vector with z != 0, and the vector divided by its
    gcd (its sign kept).  With x = v0 / v2 in lowest terms, gcd(v0, v2) is
    |v2| / x.denominator, so the gcd of v is the gcd of that small cofactor
    and v1: the reduction of x has done the large gcd."""
    x = Fraction(v[0], v[2])
    g = gcd(v[2] // x.denominator, v[1])
    point = PlanePoint(x, Fraction(v[1], v[2]))
    return point, ((v[0] // g, v[1] // g, v[2] // g) if g > 1 else v)


def _canonical(line: IntVec) -> IntVec:
    """The line vector signed so that the first non-zero of (a, b) is
    positive."""
    a, b, c = line
    return (-a, -b, -c) if a < 0 or (a == 0 and b < 0) else line


def _line_text(line: IntVec) -> str:
    """The line as its ``Line2`` repr, reduced and canonically signed."""
    g = gcd(*line) or 1
    a, b, c = _canonical((line[0] // g, line[1] // g, line[2] // g))
    return f"Line2({a}x + {b}y + {c} = 0)"


def _spanned(line: IntVec, p: PlanePoint) -> IntVec:
    """line, the cross product of p's lift with another point's, checked
    non-zero.

    Raises CoincidentPoints when the two points coincide."""
    if line == (0, 0, 0):
        raise CoincidentPoints(f"cannot span a line with {p} twice")
    return line


def _meet(l1: IntVec, l2: IntVec) -> IntVec:
    """The point on two non-zero line vectors, with z != 0, as their cross
    product: not reduced, since ``_point`` and ``_point_lift`` reduce it.

    Raises Identical when the lines coincide and Parallel when they meet
    only at infinity."""
    v = _cross(l1, l2)
    if v[2] == 0:
        if v == (0, 0, 0):
            raise Identical(f"{_line_text(l1)} and {_line_text(l2)} coincide")
        raise Parallel(f"{_line_text(l1)} and {_line_text(l2)} are parallel")
    return v


def sign_det3(u: Vector3, v: Vector3, w: Vector3) -> int:
    """Sign of det(u, v, w) as rows, in {-1, 0, +1}, computed exactly on
    primitive integer copies (positive rescaling keeps the sign)."""
    rows = [_primitive(r.x, r.y, r.z) for r in (u, v, w)]
    return _sign(_det3(*rows))


@dataclass(frozen=True)
class Line2:
    """Oriented line a*x + b*y + c = 0 with canonical integer coefficients.

    Canonical form: gcd(a, b, c) = 1 and the first non-zero of (a, b) is
    positive, so two Line2 values are equal iff they carry the same point set.
    """

    a: int
    b: int
    c: int

    def __repr__(self) -> str:
        return _line_text((self.a, self.b, self.c))


def line_through(p: PlanePoint, q: PlanePoint) -> Line2:
    """The canonical line through two distinct points."""
    return Line2(*_canonical(_spanned(_join(_lift(p), _lift(q)), p)))


def line_intersect(l1: Line2, l2: Line2) -> PlanePoint:
    """The unique common point of two lines.

    Raises Parallel when there is none and Identical when there are
    infinitely many.
    """
    return _point(_meet((l1.a, l1.b, l1.c), (l2.a, l2.b, l2.c)))


def collinear(p: PlanePoint, q: PlanePoint, r: PlanePoint) -> bool:
    """True iff the three points lie on one line (repetitions count)."""
    return _det3(_lift(p), _lift(q), _lift(r)) == 0


def cross_ratio(a: PlanePoint, b: PlanePoint, c: PlanePoint, d: PlanePoint) -> Fraction:
    """Exact cross-ratio of four pairwise-distinct collinear points.

    The value is |c - a| * |d - b| / (|c - b| * |d - a|) in distances along
    the common line.  Each difference is read on one coordinate k (x, or y
    when the line is vertical) of the lifts: c_k - a_k is
    m(c, a) / (c_z * a_z) with m(u, v) = u_k * v_z - v_k * u_z, the heights
    cancel in the quotient, and so does the line's direction length.
    """
    lifts = [_lift(p) for p in (a, b, c, d)]
    for i in range(4):
        for j in range(i + 1, 4):
            if lifts[i] == lifts[j]:
                raise DegeneratePoints(f"points {i} and {j} coincide")
    la, lb, lc, ld = lifts
    if _det3(la, lb, lc) != 0 or _det3(la, lb, ld) != 0:
        raise NotCollinear("cross-ratio needs four collinear points")
    k = 0 if a.x != b.x else 1

    def m(u: IntVec, v: IntVec) -> int:
        return u[k] * v[2] - v[k] * u[2]

    return Fraction(abs(m(lc, la) * m(ld, lb)), abs(m(lc, lb) * m(ld, la)))


@dataclass(frozen=True)
class Projectivity:
    """Projective automorphism x -> M x of the lifts, M an invertible integer 3x3
    matrix kept primitive with its first non-zero entry positive: equal maps are equal."""

    matrix: tuple[IntVec, IntVec, IntVec]

    def __init__(self, matrix: tuple[IntVec, IntVec, IntVec]):
        entries = [e for row in matrix for e in row]
        if [len(row) for row in matrix] != [3, 3, 3] or any(type(e) is not int for e in entries):
            raise ValueError(f"not a 3x3 matrix of ints: {matrix!r}")
        if _det3(*matrix) == 0:
            raise ValueError(f"singular matrix: {matrix!r}")
        g = gcd(*entries) * _sign(next(e for e in entries if e))
        object.__setattr__(self, "matrix", tuple(tuple(e // g for e in row) for row in matrix))

    def __call__(self, p: PlanePoint) -> PlanePoint:
        """The image of p; raises NonPositiveHeight when it is at infinity."""
        lift = _lift(p)
        image = tuple(_dot(row, lift) for row in self.matrix)
        if image[2] == 0:
            raise NonPositiveHeight(f"{p} is sent to the line at infinity")
        return _point(image)

    @staticmethod
    def identity() -> "Projectivity":
        return Projectivity(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def affine_from_correspondence(
    src: tuple[PlanePoint, PlanePoint, PlanePoint],
    dst: tuple[PlanePoint, PlanePoint, PlanePoint],
) -> Projectivity:
    """The unique affine map (last row (0, 0, d)) sending src_i to dst_i, i = 1..3.

    The source triple must be non-collinear for the map to exist and be
    unique; the target triple must be non-collinear for the map to be
    invertible.  M = sum_i u_i r_i, from cofactors: r_i is the cross product of
    the other two source lifts, u_i the lift of dst_i at height h(src_i) * lcm(h(dst)).
    """
    if collinear(*src):
        raise DegenerateSource("source triple is collinear")
    if collinear(*dst):
        raise DegenerateTarget("target triple is collinear")
    s, t = [_lift(p) for p in src], [_lift(q) for q in dst]
    k = lcm(*(v[2] for v in t))
    u = [[c * si[2] * (k // ti[2]) for c in ti] for si, ti in zip(s, t)]
    r = (_cross(s[1], s[2]), _cross(s[2], s[0]), _cross(s[0], s[1]))
    return Projectivity([[_dot(row, col) for col in zip(*r)] for row in zip(*u)])


def embed_affine(p: PlanePoint) -> Vector3:
    """Lift an affine point to height 1."""
    return Vector3(p.x, p.y, Fraction(1))


def perspective_normalize(v: Vector3) -> PlanePoint:
    """Divide by the z-coordinate; requires z > 0."""
    if v.z <= 0:
        raise NonPositiveHeight(f"z = {v.z} is not positive")
    return PlanePoint(v.x / v.z, v.y / v.z)
